#ifndef ASF_GEO_DISTANCE_STREAMS_H_
#define ASF_GEO_DISTANCE_STREAMS_H_

#include <functional>

#include "geo/plane_walk.h"
#include "stream/stream_set.h"

/// \file
/// The dimensionality reduction for 2-D queries (paper §7): both query
/// classes reduce to a 1-D query over a scalar s_i each source derives
/// from its own position, so the UNCHANGED 1-D protocols serve them with
/// all their tolerance guarantees.
///  * k-NN around a fixed point q: the rank protocols' bound is a score
///    ball, in the plane a disk of some radius d around q, and p_i lies in
///    it exactly when s_i = Distance(p_i, q) ≤ d. RTP, ZT-RP and FT-RP run
///    on s_i with a bottom-k query (smallest distance = best rank).
///  * A rectangle range query: p_i lies in the rectangle exactly when
///    s_i = Rect::SignedDistance(p_i) ≤ 0, and |s_i| is its distance to
///    the boundary. ZT-NRP and FT-NRP run on s_i with the range (−∞, 0];
///    filters, budgets, Fix_Error and boundary-nearest placement are the
///    1-D protocol's own.

namespace asf {

/// Scalar view of a 2-D population: value_i(t) = project(p_i(t)). Borrows
/// the plane streams, which must outlive the adapter. Construction wires
/// the adapter to the plane (replacing any move handler installed on it).
class DistanceStreamSet : public StreamSet {
 public:
  /// k-NN view: value_i = Distance(p_i, query_point). Use with
  /// QuerySpec::BottomK(k) and any rank protocol.
  DistanceStreamSet(PlaneWalkStreams* plane, const Point2& query_point);

  /// Rectangle view: value_i = rect.SignedDistance(p_i), ≤ 0 exactly while
  /// p_i lies in `rect` (non-empty). Use with QuerySpec::Range(-kInf, 0)
  /// and ZT-NRP or FT-NRP.
  DistanceStreamSet(PlaneWalkStreams* plane, const Rect& rect);

  void Start(Scheduler* scheduler, SimTime horizon) override;

 private:
  DistanceStreamSet(PlaneWalkStreams* plane,
                    std::function<Value(const Point2&)> project);

  PlaneWalkStreams* plane_;
  std::function<Value(const Point2&)> project_;
};

}  // namespace asf

#endif  // ASF_GEO_DISTANCE_STREAMS_H_
