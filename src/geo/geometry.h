#ifndef ASF_GEO_GEOMETRY_H_
#define ASF_GEO_GEOMETRY_H_

#include <cmath>
#include <string>

#include "common/interval.h"
#include "common/types.h"

/// \file
/// Plane geometry for the multi-dimensional extension (paper §7: "The
/// concepts of our protocols can be extended to multiple dimensions").
/// Both 2-D query classes reduce to a 1-D query over a scalar derived from
/// each position (geo/distance_streams.h) — Distance to the k-NN query
/// point, or Rect::SignedDistance for a rectangle range query — so the
/// plane needs no filters or protocols of its own.

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

/// A closed axis-aligned rectangle [x.lo, x.hi] × [y.lo, y.hi]; empty
/// when either interval is.
class Rect {
 public:
  Rect(double x_lo, double x_hi, double y_lo, double y_hi)
      : x_(x_lo, x_hi), y_(y_lo, y_hi) {}

  bool empty() const { return x_.empty() || y_.empty(); }

  bool Contains(const Point2& p) const {
    return x_.Contains(p.x) && y_.Contains(p.y);
  }

  /// Signed distance from p to the rectangle: inside, minus the distance
  /// to the nearest edge (−0 on an edge); outside, the Euclidean distance
  /// to the rectangle, > 0 even where squaring the offset underflows; +∞
  /// for an empty rectangle. So p lies in the rectangle exactly when the
  /// value is ≤ 0, and the magnitude is the boundary distance the
  /// boundary-nearest heuristic ranks by, as Interval::DistanceToBoundary
  /// is in 1-D.
  double SignedDistance(const Point2& p) const;

  std::string ToString() const {
    if (empty()) return "[empty rect]";
    return x_.ToString() + "x" + y_.ToString();
  }

 private:
  Interval x_;
  Interval y_;
};

}  // namespace asf

#endif  // ASF_GEO_GEOMETRY_H_
