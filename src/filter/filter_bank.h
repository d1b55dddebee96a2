#ifndef ASF_FILTER_FILTER_BANK_H_
#define ASF_FILTER_FILTER_BANK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "filter/filter.h"

/// \file
/// The collection of client-side filters, one per stream source. In the
/// real deployment each filter lives at its stream (paper Figure 3, "agent
/// software installed at each subnet router"); in the simulation they are
/// held together for efficiency, but only the engine's transport layer may
/// touch them, preserving the distributed-system message discipline.
///
/// A bank is one of:
///  * *owning* — its own dense array (standalone tests/tools);
///  * an *arena-routed view*: one query's column of the engine's
///    stream-major FilterArena. The arena holds no Filter objects, so
///    such a view mutates only through Deploy / SyncReference and reads
///    cells by value.
///
/// Views are retagged as queries come and go (see filter/filter_arena.h
/// and SimulationCore::InstallSlot / RebindLiveViews).

namespace asf {

class FilterArena;

/// Dense or arena-routed array of per-stream filters.
class FilterBank {
 public:
  /// Detached bank: no storage, size 0. The state of a dynamic query's
  /// bank before its filters are bound into the shared arena (and after
  /// they are released); any access trips the size check.
  FilterBank() : base_(nullptr), size_(0) {}

  /// Owning bank: `num_streams` default-constructed filters.
  explicit FilterBank(std::size_t num_streams)
      : owned_(num_streams), base_(owned_.data()), size_(num_streams) {}

  /// Arena-routed view of one query's `column` of `arena`. The arena
  /// outlives the view; the caller may tag the view with the storage
  /// generation it was bound at (see FilterArena) so stale views are
  /// detectable after a rebind.
  FilterBank(FilterArena* arena, std::size_t column, std::size_t num_streams,
             std::uint64_t generation = 0)
      : base_(nullptr), size_(num_streams), generation_(generation),
        arena_(arena), column_(column) {
    ASF_CHECK(arena != nullptr);
  }

  FilterBank(FilterBank&&) = default;
  FilterBank& operator=(FilterBank&&) = default;

  std::size_t size() const { return size_; }

  /// The storage generation this view was bound at (0 for owning and
  /// detached banks). Compared against the engine's rebind counter to
  /// catch use of a view that survived a rebind.
  std::uint64_t bound_generation() const { return generation_; }

  /// Re-points an arena-routed view at `column`, bound at storage
  /// generation `generation` — the in-place rebind after growth or
  /// compaction.
  void Retag(std::size_t column, std::uint64_t generation) {
    ASF_DCHECK(arena_ != nullptr);
    column_ = column;
    generation_ = generation;
  }

  /// Mutable access to stream `id`'s filter; owning banks only.
  Filter& at(StreamId id) {
    ASF_DCHECK(id < size_ && arena_ == nullptr);
    return base_[id];
  }

  /// Stream `id`'s filter by value, for every kind of bank.
  Filter at(StreamId id) const;

  /// Installs a constraint on one stream given its current value.
  void Deploy(StreamId id, const FilterConstraint& constraint,
              Value current_value);

  /// Syncs one stream's membership reference to its current (probed)
  /// value: the probed value becomes the last-reported one.
  void SyncReference(StreamId id, Value current_value);

  /// Filters currently in the two silent states, counted in one walk.
  struct SilentCounts {
    std::size_t false_positive = 0;  ///< [−∞, ∞]
    std::size_t false_negative = 0;  ///< [∞, ∞]
  };
  SilentCounts CountSilentFilters() const;

  /// Number of filters currently in the [−∞, ∞] (false positive) state.
  std::size_t CountFalsePositiveFilters() const {
    return CountSilentFilters().false_positive;
  }

  /// Number of filters currently in the [∞, ∞] (false negative) state.
  std::size_t CountFalseNegativeFilters() const {
    return CountSilentFilters().false_negative;
  }

  /// Number of streams with any interval filter installed.
  std::size_t CountInstalled() const;

 private:
  std::vector<Filter> owned_;  ///< empty for views
  Filter* base_;
  std::size_t size_;
  std::uint64_t generation_ = 0;
  FilterArena* arena_ = nullptr;  ///< set for arena-routed views
  std::size_t column_ = 0;
};

}  // namespace asf

#endif  // ASF_FILTER_FILTER_BANK_H_
