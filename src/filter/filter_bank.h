#ifndef ASF_FILTER_FILTER_BANK_H_
#define ASF_FILTER_FILTER_BANK_H_

#include <cstddef>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "filter/filter.h"

/// \file
/// The collection of client-side filters of one query, one per stream
/// source. In the real deployment each filter lives at its stream (paper
/// Figure 3, "agent software installed at each subnet router"); here they
/// are held together in one dense array, and only the transport layer may
/// touch them, preserving the distributed-system message discipline.
///
/// The bank is the scheduler-free protocol tests' filter store
/// (tests/test_harness.h). The engine keeps no banks: a deployed query's
/// filters are one column of its stream-major FilterArena
/// (filter/filter_arena.h), addressed by that column alone.

namespace asf {

/// Dense array of per-stream filters.
class FilterBank {
 public:
  /// `num_streams` filters, none installed.
  explicit FilterBank(std::size_t num_streams) : filters_(num_streams) {}

  std::size_t size() const { return filters_.size(); }

  Filter& at(StreamId id) {
    ASF_DCHECK(id < filters_.size());
    return filters_[id];
  }
  const Filter& at(StreamId id) const {
    ASF_DCHECK(id < filters_.size());
    return filters_[id];
  }

  /// Installs a constraint on one stream given its current value.
  void Deploy(StreamId id, const FilterConstraint& constraint,
              Value current_value) {
    at(id).Deploy(constraint, current_value);
  }

  /// Syncs one stream's membership reference to its current (probed)
  /// value: the probed value becomes the last-reported one.
  void SyncReference(StreamId id, Value current_value) {
    at(id).SyncReference(current_value);
  }

  /// Number of filters currently in the [−∞, ∞] (false positive) state.
  std::size_t CountFalsePositiveFilters() const {
    return Count(&FilterConstraint::IsFalsePositiveFilter);
  }

  /// Number of filters currently in the [∞, ∞] (false negative) state.
  std::size_t CountFalseNegativeFilters() const {
    return Count(&FilterConstraint::IsFalseNegativeFilter);
  }

  /// Number of streams with any interval filter installed.
  std::size_t CountInstalled() const {
    return Count(&FilterConstraint::has_filter);
  }

 private:
  /// Filters whose constraint satisfies `predicate`.
  std::size_t Count(bool (FilterConstraint::*predicate)() const) const {
    std::size_t n = 0;
    for (const Filter& f : filters_) n += (f.constraint().*predicate)();
    return n;
  }

  std::vector<Filter> filters_;
};

}  // namespace asf

#endif  // ASF_FILTER_FILTER_BANK_H_
