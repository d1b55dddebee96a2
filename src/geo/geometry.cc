#include "geo/geometry.h"

#include <algorithm>
#include <cmath>

namespace asf {

double Rect::SignedDistance(const Point2& p) const {
  if (empty()) return kInf;
  if (Contains(p)) {
    return -std::min(x_.DistanceToBoundary(p.x), y_.DistanceToBoundary(p.y));
  }
  const Point2 nearest{std::clamp(p.x, x_.lo(), x_.hi()),
                       std::clamp(p.y, y_.lo(), y_.hi())};
  const double d = Distance(p, nearest);
  // An outside point has a nonzero offset, but its square can underflow
  // to 0; hypot does not.
  return d > 0 ? d : std::hypot(p.x - nearest.x, p.y - nearest.y);
}

}  // namespace asf
