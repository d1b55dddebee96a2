#ifndef ASF_GEO_GEOMETRY_H_
#define ASF_GEO_GEOMETRY_H_

#include <cmath>
#include <string>

#include "common/interval.h"
#include "common/types.h"

/// \file
/// Plane geometry for the multi-dimensional extension (paper §7: "The
/// concepts of our protocols can be extended to multiple dimensions").
///
/// Two region shapes cover the paper's query classes in 2-D:
///  * Rect — the 2-D range query predicate and its filter constraint;
///  * Disk — the k-NN bound R around a query point. A disk constraint
///    never needs its own filter implementation: membership in
///    Disk(q, d) is exactly "distance to q ≤ d", so a 2-D rank query
///    reduces to a 1-D query over the derived distance stream
///    (geo/distance_streams.h).

namespace asf {

/// A point in the plane.
struct Point2 {
  double x = 0;
  double y = 0;

  bool operator==(const Point2& other) const {
    return x == other.x && y == other.y;
  }
};

/// Euclidean distance.
inline double Distance(const Point2& a, const Point2& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

/// A closed axis-aligned rectangle [x.lo, x.hi] × [y.lo, y.hi]. The 2-D
/// analogues of the degenerate filter forms come for free: an all-plane
/// rect (both intervals [−∞,∞]) and an empty rect.
class Rect {
 public:
  Rect() : x_(Interval::Never()), y_(Interval::Never()) {}
  Rect(const Interval& x, const Interval& y) : x_(x), y_(y) {}
  Rect(double x_lo, double x_hi, double y_lo, double y_hi)
      : x_(x_lo, x_hi), y_(y_lo, y_hi) {}

  static Rect All() {
    return Rect(Interval::Always(), Interval::Always());
  }
  static Rect Empty() { return Rect(); }

  const Interval& x() const { return x_; }
  const Interval& y() const { return y_; }

  bool empty() const { return x_.empty() || y_.empty(); }
  bool all() const { return x_.all() && y_.all(); }

  bool Contains(const Point2& p) const {
    return x_.Contains(p.x) && y_.Contains(p.y);
  }

  /// Distance from p to the rectangle's boundary (0 on the boundary).
  /// Used by the boundary-nearest placement heuristic exactly like
  /// Interval::DistanceToBoundary in 1-D: inside, it is the distance to
  /// the nearest edge; outside, the distance to the rectangle itself.
  double DistanceToBoundary(const Point2& p) const;

  bool operator==(const Rect& other) const {
    if (empty() && other.empty()) return true;
    return x_ == other.x_ && y_ == other.y_;
  }

  std::string ToString() const {
    if (empty()) return "[empty rect]";
    return x_.ToString() + "x" + y_.ToString();
  }

 private:
  Interval x_;
  Interval y_;
};

/// A closed disk {p : |p − center| ≤ radius}; the 2-D k-NN bound shape.
struct Disk {
  Point2 center;
  double radius = 0;

  bool Contains(const Point2& p) const {
    return Distance(p, center) <= radius;
  }
};

}  // namespace asf

#endif  // ASF_GEO_GEOMETRY_H_
