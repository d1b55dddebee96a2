#include "filter/filter_bank.h"

#include "filter/filter_arena.h"

namespace asf {

Filter FilterBank::at(StreamId id) const {
  ASF_DCHECK(id < size_);
  if (arena_ == nullptr) return base_[id];
  return arena_->cell(id, column_);
}

void FilterBank::Deploy(StreamId id, const FilterConstraint& constraint,
                        Value current_value) {
  if (arena_ != nullptr) {
    arena_->Deploy(id, column_, constraint, current_value);
    return;
  }
  at(id).Deploy(constraint, current_value);
}

void FilterBank::SyncReference(StreamId id, Value current_value) {
  if (arena_ != nullptr) {
    arena_->SyncReference(id, column_, current_value);
    return;
  }
  at(id).SyncReference(current_value);
}

FilterBank::SilentCounts FilterBank::CountSilentFilters() const {
  SilentCounts counts;
  for (StreamId id = 0; id < size_; ++id) {
    const FilterConstraint constraint = at(id).constraint();
    if (constraint.IsFalsePositiveFilter()) ++counts.false_positive;
    if (constraint.IsFalseNegativeFilter()) ++counts.false_negative;
  }
  return counts;
}

std::size_t FilterBank::CountInstalled() const {
  std::size_t n = 0;
  for (StreamId id = 0; id < size_; ++id) {
    if (at(id).constraint().has_filter()) ++n;
  }
  return n;
}

}  // namespace asf
