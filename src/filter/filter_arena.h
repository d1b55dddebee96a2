#ifndef ASF_FILTER_FILTER_ARENA_H_
#define ASF_FILTER_FILTER_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/simd.h"
#include "common/types.h"
#include "filter/dispatch.h"
#include "filter/filter.h"
#include "obs/hooks.h"

/// \file
/// Growable stream-major filter storage for a *dynamic* query population,
/// with a structure-of-arrays fast path for batch evaluation.
///
/// The engine lays all live queries' filters out stream-major: the filters
/// of stream i occupy one contiguous strip, so the per-update dispatch
/// tests exactly the live filters of the updated stream no matter how many
/// queries have come and gone.
///
/// Each (stream, column) cell is stored exactly once, as structure-of-
/// arrays state (DESIGN.md §8): per stream strip, the interval bounds as
/// dense `lower[]` / `upper[]` double lanes plus two bitmask words per 64
/// columns — `ref` (the membership reference) and `always`
/// (no-filter-installed columns, which report every update). The strip
/// stride is padded to a multiple of 64 columns. Lanes of no-filter
/// columns, of the empty interval [∞, ∞] and of columns at or beyond
/// live() hold the sentinel bounds (+inf, -inf), which no value lies
/// between, so they never fire on a crossing. There is no `Filter` object
/// per cell: cell() rebuilds one by value from the lanes and bits, and
/// the sentinel keeps that rebuild exact (a non-empty [∞, ∞] keeps its
/// own bounds and stays distinct from the empty interval).
///
/// EvaluateUpdate() is the branch-free crossing kernel over that state:
/// one SIMD sweep computes the inside mask, one word op each derives the
/// fired mask `(inside XOR ref) OR always` and the advanced reference
/// `ref' = inside` for filtered columns — no per-column work at all, no
/// matter how many fire. Every mutation path (Deploy / SyncReference /
/// growth / compaction) keeps bounds and bits coherent, so kernel results
/// always equal running Filter::OnValueChange cell by cell
/// (tests/filter_arena_test.cc).
///
/// Columns are the unit of tenancy: a deployed query's filters are one
/// column, and the engine addresses them by that column alone. A
/// deploying query Acquires the next free column (always the current live
/// count, keeping live columns dense at 0..live-1); a retiring query
/// Releases its column, and the *last* live column is swap-moved into the
/// hole so the strip stays contiguous. Both are one pass down the strips.
/// Release returns the moved column's old index, so the caller re-points
/// its tenant.

namespace asf {

class IntervalIndex;

/// Stream-major, column-tenured filter storage shared by all live queries.
class FilterArena {
 public:
  static constexpr std::size_t kNoColumn = static_cast<std::size_t>(-1);

  explicit FilterArena(std::size_t num_streams);
  ~FilterArena();

  FilterArena(const FilterArena&) = delete;
  FilterArena& operator=(const FilterArena&) = delete;

  std::size_t num_streams() const { return num_streams_; }

  /// Live (tenanted) columns; they are always the dense prefix 0..live-1.
  std::size_t live() const { return live_; }

  /// Allocated columns — the stride of every canonical strip.
  std::size_t capacity() const { return capacity_; }

  /// Acquires a fresh column for a deploying query, growing (doubling) the
  /// storage when full. Returns the column index, which is always the
  /// pre-call live(). All acquired filters start in the default
  /// no-filter-installed state.
  std::size_t Acquire();

  /// Releases `column` (must be live): the highest live column is
  /// swap-moved into it to keep the live prefix dense. Returns the index
  /// of the column that was moved — its *old* index, so the caller can
  /// re-point the tenant that now lives in `column` — or `column` itself
  /// when it was the last live column (no move happened).
  std::size_t Release(std::size_t column);

  /// Cell (id, column) (column must be live) rebuilt by value: the
  /// deployed constraint and the current membership reference, exactly
  /// as a Filter receiving the same Deploy / SyncReference / evaluation
  /// sequence would hold them.
  Filter cell(StreamId id, std::size_t column) const;

  /// The membership reference of cell (id, column) — the bit the kernel
  /// advances. Meaningful only while a filter is installed, like
  /// Filter::reference_inside().
  bool ReferenceInside(StreamId id, std::size_t column) const {
    ASF_DCHECK(id < num_streams_ && column < live_);
    return Bit(ref_bits_, id, column);
  }

  /// Installs a constraint at cell (id, column) against the stream's
  /// current value (Filter::Deploy).
  void Deploy(StreamId id, std::size_t column,
              const FilterConstraint& constraint, Value current_value);

  /// Syncs cell (id, column)'s membership reference to the stream's
  /// current (probed) value (Filter::SyncReference).
  void SyncReference(StreamId id, std::size_t column, Value current_value);

  /// The crossing kernel: evaluates value `v` of stream `id` against all
  /// live columns at once, advancing every filtered column's membership
  /// reference exactly as per-cell Filter::OnValueChange would, and
  /// returns the fired bitmask — bit c of word w set iff column w*64+c
  /// must report the update. Exactly fired_words() words are meaningful;
  /// bits at or beyond live() are never set. The returned pointer stays
  /// valid until the next EvaluateUpdate call. Requires live() > 0 and
  /// finite `v`.
  const std::uint64_t* EvaluateUpdate(StreamId id, Value v);

  /// Words of the fired mask covering the live columns.
  std::size_t fired_words() const { return (live_ + 63) / 64; }

  /// Scalar single-cell evaluation (the index's dirty-cell path):
  /// Filter::OnValueChange on one cell. Returns whether the filter fired.
  bool EvaluateColumn(StreamId id, std::size_t column, Value v);

  // --- Policy-aware dispatch (DESIGN.md §10) ---

  /// Selects the path DispatchUpdate takes: the SIMD kernel scan
  /// (default), the per-stream stabbing index, or the per-dispatch auto
  /// pick (index once live() reaches `auto_crossover`). Every policy
  /// produces identical fired sets and references; switch any time.
  void SetDispatchPolicy(DispatchPolicy policy,
                         std::size_t auto_crossover = kDefaultAutoCrossover);
  DispatchPolicy dispatch_policy() const { return policy_; }

  /// The engine's per-update entry point: evaluates value `v` of stream
  /// `id` against all live columns under the configured policy, advancing
  /// references exactly like EvaluateUpdate, and fills `*fired` with the
  /// fired columns in ascending order. Also records `v` as the stream's
  /// last dispatched value — the "previous value" the index diffs
  /// against. Requires live() > 0 and finite `v`.
  void DispatchUpdate(StreamId id, Value v,
                      std::vector<std::uint32_t>* fired);

  /// Dispatch-path accounting since construction.
  DispatchStats dispatch_stats() const;

  /// Observability attachment (DESIGN.md §14): index snapshot rebuilds
  /// run under a kIndexRebuild profiler scope. Null (the default) = off;
  /// dispatch results are identical either way.
  void set_profiler(obs::Profiler* profiler) { profiler_ = profiler; }

  /// The stream's last DispatchUpdate value; NaN before the first
  /// dispatch (the index treats NaN as "no diff base" and rebuilds).
  Value known_value(StreamId id) const { return known_values_[id]; }

 private:
  friend class IntervalIndex;
  static std::size_t PaddedStride(std::size_t capacity) {
    return (capacity + 63) & ~std::size_t{63};
  }

  /// Re-lays every strip out at the stride of the grown capacity_; the
  /// new lanes are sentinel and the new bits clear.
  void Widen();

  /// Closed-interval membership of `v` in cell `lane`'s bounds —
  /// Interval::Contains over the lane encoding (sentinel lanes contain
  /// nothing).
  bool LaneContains(std::size_t lane, Value v) const {
    return lower_[lane] <= v && v <= upper_[lane];
  }

  bool Bit(const std::vector<std::uint64_t>& bits, StreamId id,
           std::size_t column) const {
    return (bits[id * words_ + column / 64] >> (column % 64)) & 1u;
  }

  void SetBit(std::vector<std::uint64_t>& bits, StreamId id,
              std::size_t column, bool value) {
    std::uint64_t& word = bits[id * words_ + column / 64];
    const std::uint64_t mask = std::uint64_t{1} << (column % 64);
    word = value ? (word | mask) : (word & ~mask);
  }

  std::size_t num_streams_;
  std::size_t capacity_ = 0;
  std::size_t live_ = 0;

  /// The cells, stride_ = PaddedStride(capacity_) lanes per stream,
  /// words_ = stride_ / 64 mask words per stream.
  std::size_t stride_ = 0;
  std::size_t words_ = 0;
  std::vector<double> lower_;   ///< lower_[stream * stride_ + column]
  std::vector<double> upper_;
  std::vector<std::uint64_t> ref_bits_;     ///< [stream * words_ + w]
  std::vector<std::uint64_t> always_bits_;  ///< [stream * words_ + w]
  std::vector<std::uint64_t> fired_;        ///< scratch, words_ words

  // --- Dispatch policy state (DESIGN.md §10) ---
  DispatchPolicy policy_ = DispatchPolicy::kScan;
  std::size_t auto_crossover_ = kDefaultAutoCrossover;
  /// The stabbing index, created on demand by the first non-scan
  /// dispatch; once alive it shadows every mutation via hooks.
  std::unique_ptr<IntervalIndex> index_;
  /// Scan/index dispatch counters (rebuild counts live in the index).
  DispatchStats stats_;
  /// Last dispatched value per stream (NaN = none yet) — the diff base
  /// of the index's crossing query.
  std::vector<Value> known_values_;

  /// Wall-clock profiler the index rebuild path reports into (may be
  /// null; read by the friend IntervalIndex).
  obs::Profiler* profiler_ = nullptr;
};

}  // namespace asf

#endif  // ASF_FILTER_FILTER_ARENA_H_
