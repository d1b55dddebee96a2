#ifndef ASF_ENGINE_SWEEP_RUNNER_H_
#define ASF_ENGINE_SWEEP_RUNNER_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "engine/config.h"
#include "engine/run_result.h"

/// \file
/// Thread-parallel sweep execution: fan a vector of SystemConfigs across a
/// worker pool and collect the results in submission order.
///
/// Each run is an independent, self-contained simulation — every RNG is
/// seeded from its own config, no state is shared between runs — so a
/// parallel sweep is bitwise identical to running the same configs
/// serially (tests/sweep_runner_test.cc locks this in). Trace sources may
/// share one TraceData across configs: replay only reads it.
///
/// Custom stream sources (SourceSpec::Custom) are rejected: a caller-built
/// StreamSet carries run state and must be freshly constructed per run, so
/// it cannot be fanned out (see SourceSpec::Custom).

namespace asf {

/// Tuning knobs of a sweep.
struct SweepOptions {
  /// Worker threads; 0 means one per hardware thread. A sweep never uses
  /// more workers than it has configs, and with one worker runs inline on
  /// the calling thread.
  std::size_t num_threads = 0;
};

/// Runs every config and returns one result per config, in submission
/// order. A config that fails validation yields its error in the
/// corresponding slot; the other runs still execute.
std::vector<Result<RunResult>> RunSweep(
    const std::vector<SystemConfig>& configs,
    const SweepOptions& options = {});

/// As RunSweep, but collapses to the first (lowest-index) error: either
/// every run succeeded, or nothing is returned.
Result<std::vector<RunResult>> RunSweepAll(
    const std::vector<SystemConfig>& configs,
    const SweepOptions& options = {});

/// Replicates `base` across `count` deterministic seeds: copy i offsets
/// both the workload seed (walk.seed) and the protocol seed by i, the
/// convention the sweep tool and benches use for seed averaging.
std::vector<SystemConfig> ExpandSeeds(const SystemConfig& base,
                                      std::size_t count);

}  // namespace asf

#endif  // ASF_ENGINE_SWEEP_RUNNER_H_
