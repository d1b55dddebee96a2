#ifndef ASF_PROTOCOL_FT_CORE_H_
#define ASF_PROTOCOL_FT_CORE_H_

#include <cstdint>
#include <vector>

#include "common/interval.h"
#include "common/rng.h"
#include "protocol/heuristics.h"
#include "protocol/options.h"
#include "protocol/server_context.h"
#include "query/answer_set.h"

/// \file
/// The fraction-tolerance filter machinery shared by FT-NRP (range queries,
/// paper Figure 7) and FT-RP (k-NN transformed to a range query over the
/// bound R, paper §5.2). Given a region and silent-filter budgets (n+, n−),
/// it:
///
///  * installs the always-inside filter on n+ answer streams (false-
///    positive filters), the never-inside filter on n− non-answer streams
///    (false-negative filters), and the region on everyone else — silenced
///    streams are effectively shut down, which is the communication (and
///    sensor-battery) saving;
///  * maintains A(t) and the `count` of surplus insertions;
///  * runs Fix_Error when a removal lands while count == 0, consulting one
///    false-positive and possibly one false-negative stream to restore the
///    F+/F− guarantees (Figure 7, with the §5.1.1 correctness-proof reading
///    of step 1(III): the consulted FP stream always gets the range filter
///    installed and n+ is decremented — see DESIGN.md §4).
///
/// The core probes and deploys only through the query's ServerContext. It
/// works on the line alone: both 2-D query classes (paper §7) reduce to a
/// 1-D query over a derived scalar (geo/distance_streams.h) — a rectangle
/// query is FT-NRP over each point's signed distance to the rectangle.

namespace asf {

/// Reusable fraction-tolerance range-filter state machine.
class FractionFilterCore {
 public:
  /// `rng` is used by the kRandom heuristic and may be null for
  /// kBoundaryNearest.
  FractionFilterCore(ServerContext* ctx, SelectionHeuristic heuristic,
                     Rng* rng)
      : ctx_(ctx), heuristic_(heuristic), rng_(rng) {}

  /// (Re)installs all filters for `range` from the server's current value
  /// cache: the answer becomes the cached-inside set, n_plus/n_minus silent
  /// filters are placed per the heuristic, and `count` resets. Deploys one
  /// constraint to every stream.
  void InstallFilters(const Interval& range, std::size_t n_plus,
                      std::size_t n_minus);

  /// Handles one reported update from a range-filtered stream (Figure 7
  /// Maintenance): insertion bumps `count`; removal consumes `count` or
  /// triggers Fix_Error.
  void OnRangeUpdate(StreamId id, Value v);

  const AnswerSet& answer() const { return answer_; }
  const Interval& range() const { return range_; }

  /// Remaining false-positive / false-negative filter budgets.
  std::size_t n_plus() const { return fp_streams_.size(); }
  std::size_t n_minus() const { return fn_streams_.size(); }

  /// True once both silent budgets are spent (the protocol has degenerated
  /// to its zero-tolerance form; paper §5.1.1).
  bool Exhausted() const { return fp_streams_.empty() && fn_streams_.empty(); }

  /// Surplus-insertion counter (Figure 7's `count`).
  std::uint64_t count() const { return count_; }

  /// Number of Fix_Error executions so far.
  std::uint64_t fix_error_runs() const { return fix_error_runs_; }

 private:
  void FixError();

  ServerContext* ctx_;
  SelectionHeuristic heuristic_;
  Rng* rng_;

  Interval range_;  // default-constructed: the empty interval
  AnswerSet answer_;
  std::uint64_t count_ = 0;
  std::uint64_t fix_error_runs_ = 0;

  // Streams currently holding silent filters, best Fix_Error candidates
  // last (the lists are consumed back-to-front).
  std::vector<StreamId> fp_streams_;
  std::vector<StreamId> fn_streams_;
};

inline void FractionFilterCore::InstallFilters(const Interval& range,
                                               std::size_t n_plus,
                                               std::size_t n_minus) {
  range_ = range;
  answer_.Clear();
  count_ = 0;
  fp_streams_.clear();
  fn_streams_.clear();

  // Partition streams by the server's (fresh) cache: A(t0) inside, Y(t0)
  // outside (Figure 7, Initialization steps 2-3).
  std::vector<StreamId> inside;
  std::vector<StreamId> outside;
  for (StreamId id = 0; id < ctx_->num_streams(); ++id) {
    if (range_.Contains(ctx_->cached(id))) {
      inside.push_back(id);
      answer_.Insert(id);
    } else {
      outside.push_back(id);
    }
  }

  const auto boundary_distance = [this](StreamId id) {
    return range_.DistanceToBoundary(ctx_->cached(id));
  };
  fp_streams_ = SelectFilterHolders(inside, n_plus, heuristic_,
                                    boundary_distance, rng_);
  fn_streams_ = SelectFilterHolders(outside, n_minus, heuristic_,
                                    boundary_distance, rng_);
  // The selection lists are ordered most-boundary-prone first; Fix_Error
  // consumes from the back so the streams most likely to cross stay silent
  // the longest.
  std::vector<bool> silent(ctx_->num_streams(), false);
  for (StreamId id : fp_streams_) {
    ctx_->Deploy(id, FilterConstraint::FalsePositive());
    silent[id] = true;
  }
  for (StreamId id : fn_streams_) {
    ctx_->Deploy(id, FilterConstraint::FalseNegative());
    silent[id] = true;
  }
  const FilterConstraint range_filter = FilterConstraint::Range(range_);
  for (StreamId id = 0; id < ctx_->num_streams(); ++id) {
    if (!silent[id]) ctx_->Deploy(id, range_filter);
  }
}

inline void FractionFilterCore::OnRangeUpdate(StreamId id, Value v) {
  if (range_.Contains(v)) {
    // Figure 7 Maintenance case 1: a new stream satisfies the query.
    const bool inserted = answer_.Insert(id);
    // Under instant delivery silent filters never report and members
    // never report an in-range value; a late (in-transit) report may
    // re-state the current side, in which case nothing changes
    // (DESIGN.md §9).
    ASF_DCHECK(inserted || ctx_->delayed_delivery());
    if (inserted) ++count_;
    return;
  }
  // Case 2: an answer stream left the range.
  const bool erased = answer_.Erase(id);
  ASF_DCHECK(erased || ctx_->delayed_delivery());
  if (!erased) return;
  if (count_ > 0) {
    --count_;
  } else {
    FixError();
  }
}

inline void FractionFilterCore::FixError() {
  ++fix_error_runs_;
  const FilterConstraint range_filter = FilterConstraint::Range(range_);

  // Step 1: consult a false-positive-filtered stream, if any remain.
  if (!fp_streams_.empty()) {
    const StreamId y = fp_streams_.back();
    fp_streams_.pop_back();
    const Value vy = ctx_->Probe(y);
    // Whether or not S_y is still in range, it stops being a silent filter
    // holder: the range filter is installed and E^max+ is decremented
    // (DESIGN.md §4 — the Figure 7 pseudo-code omits the install in the
    // out-of-range branch but the §5.1.1 proof requires it).
    ctx_->Deploy(y, range_filter);
    if (range_.Contains(vy)) {
      // True positive: answer unchanged, false-positive budget shrank, both
      // fractions improved. Done.
      return;
    }
    // True negative: drop it from the answer and fall through to recruit a
    // replacement from the false-negative pool.
    answer_.Erase(y);
  }

  // Step 2: consult a false-negative-filtered stream, if any remain.
  if (!fn_streams_.empty()) {
    const StreamId z = fn_streams_.back();
    fn_streams_.pop_back();
    const Value vz = ctx_->Probe(z);
    if (range_.Contains(vz)) answer_.Insert(z);
    ctx_->Deploy(z, range_filter);
  }
}

}  // namespace asf

#endif  // ASF_PROTOCOL_FT_CORE_H_
