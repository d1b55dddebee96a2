#ifndef ASF_OBS_PROFILER_H_
#define ASF_OBS_PROFILER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

/// \file
/// Phase profiler (DESIGN.md §14): RAII wall-clock scopes around the
/// engine's coarse phases (dispatch, index rebuild, net flush, spill
/// I/O), accumulated in per-thread state and merged into one
/// exclusive-time report at the end of a run.
///
/// Attribution is *exclusive*: entering a nested scope stops the clock
/// on the parent, so the per-phase seconds sum to the profiled wall time
/// (not more). The engine opens a kOther root scope around the whole Run so
/// un-annotated time is visible rather than missing — the ≥90% coverage
/// criterion in ISSUE 10 falls out of that by construction.
///
/// Wall-clock readings never feed back into the simulation (no sim-time,
/// no RNG, no scheduling depends on them), so profiling is inert on
/// results by construction; only `wall seconds` — already normalized out
/// of CI diffs — can shift.

namespace asf {
namespace obs {

enum class Phase : std::uint8_t {
  kOther = 0,     ///< root scope: everything not otherwise annotated
  kDispatch,      ///< filter dispatch in the update handler
  kIndexRebuild,  ///< interval-index rebuild inside dispatch
  kNetFlush,      ///< network delivery callbacks draining into the engine
  kSpillIo,       ///< spill write-out / fault-back page I/O
  kNumPhases,
};

const char* PhaseName(Phase phase);

/// Aggregated exclusive seconds per phase, summed over all threads that
/// ever opened a scope on this profiler.
struct ProfileReport {
  double seconds[static_cast<std::size_t>(Phase::kNumPhases)] = {};

  double total() const {
    double sum = 0;
    for (double s : seconds) sum += s;
    return sum;
  }
  double of(Phase phase) const {
    return seconds[static_cast<std::size_t>(phase)];
  }
};

/// The per-run profiler. Scope enter/exit is wait-free after a thread's
/// first scope (one thread_local lookup + two steady_clock reads);
/// thread registration takes a mutex once per (thread, profiler) pair.
class Profiler {
 public:
  Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;
  ~Profiler();

  /// Merged exclusive-time report over every participating thread. Call
  /// only while no scopes are open (end of run).
  ProfileReport Merged() const;

  /// The `asf_run --profile` table: one "obs profile" line per nonzero
  /// phase with seconds and percent of `wall_seconds`, plus a coverage
  /// line. All lines carry the "obs " prefix CI normalization strips.
  std::string FormatTable(double wall_seconds) const;

  /// Complete JSON value for metrics::JsonWriter::AddBlock:
  /// {"phase": seconds, ...} for nonzero phases plus "total".
  std::string ProfileJson() const;

 private:
  friend class ScopedPhase;

  static constexpr int kMaxDepth = 32;

  /// One thread's accumulation state. Stable address (unique_ptr in the
  /// registry) because ScopedPhase caches the pointer thread-locally.
  struct ThreadState {
    double accum[static_cast<std::size_t>(Phase::kNumPhases)] = {};
    Phase stack[kMaxDepth] = {};
    int depth = 0;
    std::chrono::steady_clock::time_point mark;
    std::thread::id tid;
  };

  /// The calling thread's state, registering it on first use. Keyed by a
  /// process-unique profiler id (not the pointer) so a recycled Profiler
  /// address can never alias a stale thread-local cache entry.
  ThreadState* StateForThisThread();

  const std::uint64_t id_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadState>> states_;
};

/// RAII phase scope. Null profiler = no-op (the disabled path). Charges
/// elapsed time to the enclosing scope on entry and to `phase` on exit.
class ScopedPhase {
 public:
  ScopedPhase(Profiler* profiler, Phase phase) : st_(nullptr) {
    if (profiler == nullptr) return;
    Profiler::ThreadState* st = profiler->StateForThisThread();
    if (st->depth >= Profiler::kMaxDepth) return;  // accrue to parent
    const auto now = std::chrono::steady_clock::now();
    if (st->depth > 0) {
      st->accum[static_cast<std::size_t>(st->stack[st->depth - 1])] +=
          std::chrono::duration<double>(now - st->mark).count();
    }
    st->stack[st->depth++] = phase;
    st->mark = now;
    st_ = st;
  }

  ~ScopedPhase() {
    if (st_ == nullptr) return;
    const auto now = std::chrono::steady_clock::now();
    st_->accum[static_cast<std::size_t>(st_->stack[st_->depth - 1])] +=
        std::chrono::duration<double>(now - st_->mark).count();
    --st_->depth;
    st_->mark = now;
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Profiler::ThreadState* st_;
};

}  // namespace obs
}  // namespace asf

#endif  // ASF_OBS_PROFILER_H_
