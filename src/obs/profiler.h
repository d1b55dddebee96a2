#ifndef ASF_OBS_PROFILER_H_
#define ASF_OBS_PROFILER_H_

#include <chrono>
#include <cstdint>
#include <string>

/// \file
/// Phase profiler (DESIGN.md §14): RAII wall-clock scopes around the
/// engine's coarse phases (dispatch, index rebuild, net flush, spill
/// I/O), accumulated into one exclusive-time report per run. One
/// profiler serves one run at a time on the engine's one thread
/// (obs/hooks.h), so its state is plain members: a scope costs two
/// steady_clock reads and no lookup.
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

/// Exclusive seconds per phase.
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

/// The per-run profiler.
class Profiler {
 public:
  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// The exclusive-time report. Call only while no scopes are open (end
  /// of run).
  ProfileReport Merged() const { return report_; }

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

  /// Charges the time since the last mark to the innermost open scope and
  /// moves the mark to `now`.
  void Charge(std::chrono::steady_clock::time_point now) {
    report_.seconds[static_cast<std::size_t>(stack_[depth_ - 1])] +=
        std::chrono::duration<double>(now - mark_).count();
    mark_ = now;
  }

  ProfileReport report_;
  Phase stack_[kMaxDepth] = {};
  int depth_ = 0;
  std::chrono::steady_clock::time_point mark_;
};

/// RAII phase scope. Null profiler = no-op (the disabled path). Charges
/// elapsed time to the enclosing scope on entry and to `phase` on exit.
class ScopedPhase {
 public:
  ScopedPhase(Profiler* profiler, Phase phase) : profiler_(nullptr) {
    if (profiler == nullptr) return;
    if (profiler->depth_ >= Profiler::kMaxDepth) return;  // accrue to parent
    const auto now = std::chrono::steady_clock::now();
    if (profiler->depth_ > 0) profiler->Charge(now);
    profiler->stack_[profiler->depth_++] = phase;
    profiler->mark_ = now;
    profiler_ = profiler;
  }

  ~ScopedPhase() {
    if (profiler_ == nullptr) return;
    profiler_->Charge(std::chrono::steady_clock::now());
    --profiler_->depth_;
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Profiler* profiler_;
};

}  // namespace obs
}  // namespace asf

#endif  // ASF_OBS_PROFILER_H_
