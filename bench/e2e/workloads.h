#ifndef ASF_BENCH_E2E_WORKLOADS_H_
#define ASF_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/multi_system.h"
#include "engine/sim_core.h"
#include "net/network_model.h"
#include "stream/trace_source.h"

/// \file
/// The end-to-end benchmark's workloads (README.md in this directory says
/// why each was chosen). A workload turns the benchmark seed into inputs,
/// runs them through the public entry points users call — RunSweepAll for
/// the figure grid, RunMultiQuerySystem otherwise — and checks every run's
/// outputs.

namespace asf {
namespace e2e {

/// One run through a public entry point, reduced to what the benchmark
/// measures and checks.
struct RunOutcome {
  std::uint64_t updates = 0;     ///< updates generated while queries lived
  std::uint64_t maint_msgs = 0;  ///< logical maintenance messages (§6)
  std::uint64_t digest = 0;      ///< see AddQueryDigest
  std::string failure;           ///< first failed output check; empty = ok
};

/// What the traced run needs to drive SimulationCore directly: the options
/// and deployments the entry point builds from the same config.
struct CoreInputs {
  SimulationCore::Options options;
  std::vector<QueryDeployment> queries;
};

struct Workload {
  /// Instant-delivery workloads must show zero oracle violations; under
  /// loss the tolerance guarantee does not hold, so only message
  /// conservation (checked on every workload) applies.
  bool expect_zero_violations = true;

  /// Inputs, rebuilt by Setup(). A figure grid fills `grid` (one
  /// RunSweepAll call per cell); every other workload fills `multi`.
  std::unique_ptr<TraceData> trace;
  std::vector<SystemConfig> grid;
  MultiQueryConfig multi;
  /// Seconds the last Setup() spent synthesizing the trace (0 without one).
  double synth_seconds = 0;
  /// The run the traced run replicates (the ε = (0.2, 0.2) cell of a grid).
  std::size_t traced_run = 0;

  /// Regenerates every input from the seed.
  std::function<void(Workload&)> setup;

  void Setup() { setup(*this); }
  std::size_t RunsPerPass() const { return grid.empty() ? 1 : grid.size(); }
  /// Executes run `i` of a pass through its public entry point.
  RunOutcome Run(std::size_t i) const;
  CoreInputs TracedInputs() const;
};

/// The workload names, in the order `run.py --all` runs them.
const std::vector<std::string>& WorkloadNames();

/// Builds workload `name` for benchmark seed `seed`. `scale` multiplies
/// every input's length (1 = the benchmark, 0.05 = --quick); `scratch` is
/// the directory spilling workloads write their page files to. Returns
/// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed, double scale,
                                       const std::string& scratch);

/// FNV-1a over the 64-bit words of a run's outputs.
class Digest {
 public:
  void Add(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (word >> (8 * b)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(double value);
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Folds one query's outputs into `digest`: message counts by phase and
/// type, updates reported, re-initializations, answer-size statistics and
/// oracle counts. Works on RunResult, MultiQueryResult::PerQuery and
/// QueryRunStats alike, so the traced core and the entry points digest the
/// same fields.
template <typename PerQuery>
void AddQueryDigest(Digest& digest, const PerQuery& q) {
  for (int p = 0; p < kNumMessagePhases; ++p) {
    for (int t = 0; t < kNumMessageTypes; ++t) {
      digest.Add(q.messages.count(static_cast<MessagePhase>(p),
                                  static_cast<MessageType>(t)));
    }
  }
  digest.Add(q.updates_reported);
  digest.Add(q.reinits);
  digest.Add(q.answer_size.count());
  digest.Add(q.answer_size.mean());
  digest.Add(q.answer_size.variance());
  digest.Add(q.oracle_checks);
  digest.Add(q.oracle_violations);
}

/// The output checks every run passes: at least one oracle check, zero
/// violations when `zero_violations`, and the crossing conservation
/// invariant. Returns the first failure, or "" when all hold.
std::string CheckOutputs(bool zero_violations, std::uint64_t oracle_checks,
                         std::uint64_t oracle_violations, const NetStats& net);

}  // namespace e2e
}  // namespace asf

#endif  // ASF_BENCH_E2E_WORKLOADS_H_
