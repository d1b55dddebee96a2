#ifndef ASF_GEO_PLANE_FILTER_H_
#define ASF_GEO_PLANE_FILTER_H_

#include <vector>

#include "geo/geometry.h"

/// \file
/// The client-side adaptive filter in the plane — the same crossing
/// semantics as filter/filter.h with a Rect constraint: a source reports
/// iff its position's membership in the constraint rectangle changed since
/// the last report. The silent forms carry over: the all-plane rect is the
/// false-positive filter, the empty rect the false-negative filter.

namespace asf {

/// A rectangle constraint, or no filter at all.
class PlaneConstraint {
 public:
  /// No filter installed: every move is reported.
  PlaneConstraint() : has_filter_(false), rect_(Rect::Empty()) {}
  explicit PlaneConstraint(const Rect& rect)
      : has_filter_(true), rect_(rect) {}

  static PlaneConstraint NoFilter() { return PlaneConstraint(); }
  static PlaneConstraint Range(const Rect& rect) {
    return PlaneConstraint(rect);
  }
  static PlaneConstraint FalsePositive() {
    return PlaneConstraint(Rect::All());
  }
  static PlaneConstraint FalseNegative() {
    return PlaneConstraint(Rect::Empty());
  }

  bool has_filter() const { return has_filter_; }
  const Rect& rect() const { return rect_; }
  bool IsFalsePositiveFilter() const { return has_filter_ && rect_.all(); }
  bool IsFalseNegativeFilter() const { return has_filter_ && rect_.empty(); }
  bool IsSilent() const {
    return IsFalsePositiveFilter() || IsFalseNegativeFilter();
  }

 private:
  bool has_filter_;
  Rect rect_;
};

/// Per-stream plane filter state.
class PlaneFilter {
 public:
  PlaneFilter() = default;

  void Deploy(const PlaneConstraint& constraint, const Point2& current) {
    constraint_ = constraint;
    ref_inside_ =
        constraint_.has_filter() && constraint_.rect().Contains(current);
  }

  /// True when the move must be reported (membership changed).
  bool OnMove(const Point2& p) {
    if (!constraint_.has_filter()) return true;
    const bool inside = constraint_.rect().Contains(p);
    if (inside == ref_inside_) return false;
    ref_inside_ = inside;
    return true;
  }

  /// Re-synchronizes after a server probe.
  void SyncReference(const Point2& current) {
    if (constraint_.has_filter()) {
      ref_inside_ = constraint_.rect().Contains(current);
    }
  }

  const PlaneConstraint& constraint() const { return constraint_; }
  bool reference_inside() const { return ref_inside_; }

 private:
  PlaneConstraint constraint_;
  bool ref_inside_ = false;
};

/// Dense array of plane filters, one per stream.
class PlaneFilterBank {
 public:
  explicit PlaneFilterBank(std::size_t n) : filters_(n) {}

  std::size_t size() const { return filters_.size(); }
  PlaneFilter& at(StreamId id) {
    ASF_DCHECK(id < filters_.size());
    return filters_[id];
  }
  const PlaneFilter& at(StreamId id) const {
    ASF_DCHECK(id < filters_.size());
    return filters_[id];
  }

  /// Installs a constraint on one stream given its current position.
  void Deploy(StreamId id, const PlaneConstraint& constraint,
              const Point2& current) {
    at(id).Deploy(constraint, current);
  }

 private:
  std::vector<PlaneFilter> filters_;
};

}  // namespace asf

#endif  // ASF_GEO_PLANE_FILTER_H_
