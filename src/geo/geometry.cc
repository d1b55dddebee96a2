#include "geo/geometry.h"

#include <algorithm>

namespace asf {

double Rect::DistanceToBoundary(const Point2& p) const {
  if (empty()) return kInf;
  if (Contains(p)) {
    // Inside: nearest edge in either axis.
    return std::min(x_.DistanceToBoundary(p.x), y_.DistanceToBoundary(p.y));
  }
  // Outside: Euclidean distance to the rectangle (clamp point into the
  // rect, measure the offset).
  const double cx = std::clamp(p.x, x_.lo(), x_.hi());
  const double cy = std::clamp(p.y, y_.lo(), y_.hi());
  return Distance(p, Point2{cx, cy});
}

}  // namespace asf
