#ifndef ASF_FILTER_INTERVAL_INDEX_H_
#define ASF_FILTER_INTERVAL_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"

/// \file
/// Per-stream stabbing index over the FilterArena bound lanes — the
/// output-sensitive dispatch path behind DispatchPolicy::kIndex
/// (DESIGN.md §10).
///
/// A value change from `prev` to `v` flips the membership of exactly the
/// filtered columns with an odd number of interval endpoints inside the
/// step: with a = min(prev, v), b = max(prev, v), column c's membership
/// changes iff  (lower_c ∈ (a, b])  XOR  (upper_c ∈ [a, b)).  (Derived
/// from the indicator [l ≤ x ≤ u] = [x ≥ l] − [x > u]; the asymmetric
/// half-open forms make both travel directions agree with
/// Interval::Contains' closed-interval tie semantics.) Columns hit in
/// *both* endpoint ranges — intervals the step jumped clean over — toggle
/// twice and net out.
///
/// The index keeps, per stream strip, a *snapshot* of the live columns at
/// the last rebuild: the lower and upper bounds as two sorted endpoint
/// arrays (bound + column id, SoA), plus the no-filter columns (which
/// report every update) as a sorted list. Each snapshot also keeps a
/// *finger*: the value of the last dispatch it served and that value's
/// positions in both endpoint arrays. A dispatch walks each array from
/// the finger toward `v`, toggling every endpoint it passes, and leaves
/// the finger at `v` — the crossing set falls out as an XOR over a
/// word-granular toggle scratch in O(crossed endpoints + 1) per dispatch,
/// with no O(live) or O(log live) term. When the finger's value is not
/// the stream's `prev` (under DispatchPolicy::kAuto a scan dispatch ran
/// in between), one binary search per array re-seats it first.
///
/// Mutations (protocol bound tightening via Deploy, churn compaction via
/// Release, deploy growth via Acquire) do not patch the sorted arrays.
/// They mark the affected column *dirty*: dirty columns are excluded from
/// the snapshot's answer and evaluated scalar per dispatch instead
/// (FilterArena::EvaluateColumn), an overlay that stays exact under any
/// interleaving. Each index dispatch charges the overlay's size to a
/// per-stream `pending` counter; when pending exceeds the cost of a
/// fresh rebuild (≈ live columns), the next dispatch of that stream runs
/// the full SIMD kernel once and rebuilds its snapshot — so
/// tightening-heavy protocols degrade to at most a constant factor of
/// the pure scan, never an O(live) *per-update* rebuild thrash. The
/// trigger counts columns only (no clocks), so rebuild schedules are
/// deterministic for a given op sequence.
///
/// Correctness leans on one arena invariant (proved in DESIGN.md §10):
/// for every clean live column, the canonical reference bit equals
/// "interval contains the stream's last *dispatched* value", so a
/// snapshot toggle is exactly `fired = inside XOR ref` and the advanced
/// reference is one word-XOR. Dirty columns and the no-filter list
/// reproduce the kernel's `| always` term and reference blend through
/// the scalar path. The fired set is emitted in ascending column order,
/// byte-identical to the kernel's bit order
/// (tests/interval_index_test.cc locks scan/index equality under
/// randomized op sequences).

namespace asf {

class FilterArena;

/// The stabbing structure of one FilterArena. Owned by the arena, created
/// on demand the first time a non-scan policy dispatches; fed mutation
/// hooks from Deploy/Acquire/Release.
class IntervalIndex {
 public:
  explicit IntervalIndex(FilterArena* arena);

  IntervalIndex(const IntervalIndex&) = delete;
  IntervalIndex& operator=(const IntervalIndex&) = delete;

  /// Dispatches value `v` of stream `id` through the index: appends the
  /// fired columns (ascending) to `*fired` and advances the membership
  /// references exactly as the SIMD kernel would. `prev` is the stream's
  /// last dispatched value, or NaN if there is none (forces the rebuild
  /// path, which serves the dispatch with one full kernel sweep).
  /// Requires live() > 0 and finite `v`.
  void Dispatch(StreamId id, Value prev, Value v,
                std::vector<std::uint32_t>* fired);

  // --- Mutation hooks (called by the owning arena) ---

  /// Cell (id, column)'s constraint changed (bound tightening / redeploy).
  void OnDeploy(StreamId id, std::size_t column);

  /// `column` was freshly acquired (pristine no-filter tenant, every
  /// stream).
  void OnAcquire(std::size_t column);

  /// Compaction moved the tenant of `vacated_last` into `hole` (no call
  /// when the released column was the last — the vacated lanes fall
  /// outside live() and need no mark).
  void OnRelease(std::size_t hole, std::size_t vacated_last);

  // --- Accounting ---

  std::uint64_t rebuilds() const { return total_rebuilds_; }
  std::uint64_t max_stream_rebuilds() const { return max_stream_rebuilds_; }

 private:
  /// Per-stream snapshot + dirty overlay.
  struct StreamState {
    bool valid = false;
    /// Sorted-endpoint arrays over the filtered live columns at rebuild
    /// time: bounds ascending, cols parallel.
    std::vector<double> lower_bounds;
    std::vector<std::uint32_t> lower_cols;
    std::vector<double> upper_bounds;
    std::vector<std::uint32_t> upper_cols;
    /// The finger: the value of the last dispatch served from this
    /// snapshot, and its positions — lower_pos = #{lower bounds ≤ finger},
    /// upper_pos = #{upper bounds < finger}.
    double finger = 0;
    std::size_t lower_pos = 0;
    std::size_t upper_pos = 0;
    /// No-filter columns at rebuild time, ascending: fire on every update.
    std::vector<std::uint32_t> always_cols;
    /// The dirty overlay: columns whose snapshot entry is stale. The
    /// bitmask (word-indexed like the arena's strips) dedups; the list
    /// drives the per-dispatch scalar pass.
    std::vector<std::uint64_t> dirty_bits;
    std::vector<std::uint32_t> dirty_cols;
    /// Accumulated overlay work since the last rebuild; the rebuild
    /// trigger compares it against the rebuild cost (≈ live).
    std::uint64_t pending = 0;
    std::uint64_t rebuilds = 0;
  };

  void MarkDirty(StreamState& state, std::size_t column);

  /// Points the finger at `v` with one binary search per endpoint array.
  static void SeatFinger(StreamState& state, Value v);

  /// Serves one dispatch with the full SIMD kernel and rebuilds the
  /// stream's snapshot from the post-sweep arena state.
  void RebuildAndDispatch(StreamId id, StreamState& state, Value v,
                          std::vector<std::uint32_t>* fired);

  FilterArena* arena_;
  std::vector<StreamState> streams_;

  /// Toggle scratch, stamped per dispatch so clearing costs O(touched
  /// words), not O(strip words).
  std::vector<std::uint64_t> toggle_words_;
  std::vector<std::uint64_t> word_stamp_;
  std::uint64_t stamp_ = 0;
  std::vector<std::uint32_t> touched_words_;
  /// Rebuild scratch: (bound, column) pairs sorted per endpoint array.
  std::vector<std::pair<double, std::uint32_t>> sort_scratch_;

  std::uint64_t total_rebuilds_ = 0;
  std::uint64_t max_stream_rebuilds_ = 0;
};

}  // namespace asf

#endif  // ASF_FILTER_INTERVAL_INDEX_H_
