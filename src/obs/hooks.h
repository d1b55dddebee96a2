#ifndef ASF_OBS_HOOKS_H_
#define ASF_OBS_HOOKS_H_

/// \file
/// The observability attachment point (DESIGN.md §14): a bundle of
/// non-owning pointers a run driver (asf_run, a bench, a test) threads
/// through SystemConfig / MultiQueryConfig / SimulationCore::Options
/// into the engine and the network layer. Null pointers (the default)
/// disable each facility independently at the cost of one branch per
/// instrumentation point.
///
/// Ownership and lifetime: the driver owns the Tracer / Profiler objects
/// and must keep them alive for the whole run. One bundle serves one run
/// at a time — the objects are not synchronized for concurrent runs.

namespace asf {
namespace obs {

class Tracer;
class Profiler;

struct ObsHooks {
  /// Sim-time event tracer (obs/trace.h); null = off.
  Tracer* tracer = nullptr;
  /// Wall-clock phase profiler (obs/profiler.h); null = off.
  Profiler* profiler = nullptr;
};

}  // namespace obs
}  // namespace asf

#endif  // ASF_OBS_HOOKS_H_
