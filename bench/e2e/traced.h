#ifndef ASF_BENCH_E2E_TRACED_H_
#define ASF_BENCH_E2E_TRACED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

/// \file
/// The traced run: replicas of one run of a workload driven through
/// SimulationCore directly, with every layer timed from outside the
/// program. No span lives inside src/.
///
///  * The timed replica hands the engine a sampling StreamSet wrapper
///    (SourceSpec::Custom) that times every 64th call into its update
///    handler, and the benchmark times spans around set-up and result
///    assembly. This replica gives the wall-time breakdown.
///  * The profiled replica attaches obs::Profiler through ObsHooks for the
///    phase split inside the engine (dispatch, index rebuild, net flush,
///    spill I/O). The profiler reads the clock twice per update, which on
///    the cheapest workloads doubles the per-update cost, so its wall time
///    is kept out of the breakdown.
///  * Isolation probes call single layer APIs on the workload's inputs:
///    the stream source alone on a private scheduler, and the oracle on
///    the final value snapshot.

namespace asf {
namespace e2e {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct TracedRun {
  /// Digests of the two replicas; each must equal the untraced run's.
  std::uint64_t digest = 0;
  std::uint64_t profiled_digest = 0;
  std::string failure;  ///< output-check failure; empty = ok
  /// Every per-layer metric, named `<module>.<metric>` after src/.
  std::vector<Metric> metrics;
  /// Properties of the workload's inputs that no optimization moves
  /// (population sizes, sampling counts); recorded for reading the rest.
  std::vector<Metric> context;
  /// The timed replica's wall time split into disjoint parts, each as a
  /// fraction of the whole; "unattributed" is what no part covers.
  std::vector<Metric> breakdown;
};

/// Runs the traced replicas of `w.traced_run`. `untraced_s` is the median
/// wall time of that run untraced (for the tracing overhead) and
/// `setup_s` the median benchmark set-up time (for the trace-synthesis
/// share).
TracedRun RunTraced(const Workload& w, double untraced_s, double setup_s);

}  // namespace e2e
}  // namespace asf

#endif  // ASF_BENCH_E2E_TRACED_H_
