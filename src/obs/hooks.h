#ifndef ASF_OBS_HOOKS_H_
#define ASF_OBS_HOOKS_H_

#include "common/types.h"

/// \file
/// The observability attachment point (DESIGN.md §14): a bundle of
/// non-owning pointers a run driver (asf_run, a bench, a test) threads
/// through SystemConfig / MultiQueryConfig / SimulationCore::Options
/// into the engine and the network layer. Null pointers (the default)
/// disable each facility independently at the cost of one branch per
/// instrumentation point.
///
/// Ownership and lifetime: the driver owns the Tracer / MetricsRegistry
/// / Profiler objects and must keep them alive for the whole run. One
/// bundle serves one run at a time — the objects are not synchronized
/// for concurrent runs.

namespace asf {
namespace obs {

class Tracer;
class MetricsRegistry;
class Profiler;

struct ObsHooks {
  /// Sim-time event tracer (obs/trace.h); null = off.
  Tracer* tracer = nullptr;
  /// Gauge/histogram registry (obs/metrics.h); null = off.
  MetricsRegistry* metrics = nullptr;
  /// Sim-time snapshot period for the registry's gauges; <= 0 disables
  /// periodic snapshots (histograms still fill). The engine samples
  /// exactly on the grid: a row at t follows every event due before t and
  /// precedes the deploys, retirements and events at t.
  SimTime metrics_every = 0;
  /// Wall-clock phase profiler (obs/profiler.h); null = off.
  Profiler* profiler = nullptr;
};

}  // namespace obs
}  // namespace asf

#endif  // ASF_OBS_HOOKS_H_
