#include "geo/distance_streams.h"

namespace asf {

DistanceStreamSet::DistanceStreamSet(
    PlaneWalkStreams* plane, std::function<Value(const Point2&)> project)
    : StreamSet(plane != nullptr ? plane->size() : 0),
      plane_(plane),
      project_(std::move(project)) {
  ASF_CHECK(plane != nullptr);
  for (StreamId id = 0; id < plane_->size(); ++id) {
    SetInitialValue(id, project_(plane_->position(id)));
  }
  plane_->set_move_handler(
      [this](StreamId id, const Point2& p, SimTime t) {
        ApplyUpdate(id, project_(p), t);
      });
}

DistanceStreamSet::DistanceStreamSet(PlaneWalkStreams* plane,
                                     const Point2& query_point)
    : DistanceStreamSet(plane, [query_point](const Point2& p) {
        return Distance(p, query_point);
      }) {}

DistanceStreamSet::DistanceStreamSet(PlaneWalkStreams* plane,
                                     const Rect& rect)
    : DistanceStreamSet(
          plane, [rect](const Point2& p) { return rect.SignedDistance(p); }) {
  ASF_CHECK(!rect.empty());
}

void DistanceStreamSet::Start(Scheduler* scheduler, SimTime horizon) {
  plane_->Start(scheduler, horizon);
}

}  // namespace asf
