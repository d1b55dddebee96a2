#ifndef ASF_GEO_PLANE_WALK_H_
#define ASF_GEO_PLANE_WALK_H_

#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "geo/geometry.h"
#include "sim/scheduler.h"

/// \file
/// 2-D stream sources: independent reflected Gaussian random walks in a
/// rectangle — the natural 2-D analogue of the paper's §6.2 model, used by
/// the multi-dimensional extension (location-monitoring scenarios where
/// each stream is a moving object's position).

namespace asf {

/// Parameters of the plane walk.
struct PlaneWalkConfig {
  std::size_t num_streams = 1000;
  double domain_lo = 0.0;    ///< square domain [lo, hi]²
  double domain_hi = 1000.0;
  double mean_interarrival = 20;
  double sigma = 20;         ///< per-axis step stddev
  std::uint64_t seed = 1;

  Status Validate() const;
};

/// A population of moving points.
class PlaneWalkStreams {
 public:
  using MoveHandler = std::function<void(StreamId, const Point2&, SimTime)>;

  explicit PlaneWalkStreams(const PlaneWalkConfig& config);

  std::size_t size() const { return positions_.size(); }
  const Point2& position(StreamId id) const {
    ASF_DCHECK(id < positions_.size());
    return positions_[id];
  }
  /// True positions of all streams (for oracles; protocols must observe
  /// positions only through messages).
  const std::vector<Point2>& positions() const { return positions_; }

  void set_move_handler(MoveHandler handler) {
    handler_ = std::move(handler);
  }

  /// Schedules the walks on `scheduler` up to `horizon`.
  void Start(Scheduler* scheduler, SimTime horizon);

  std::uint64_t moves_generated() const { return moves_; }

 private:
  /// Moves stream `id` one step and re-arms its event for the next move
  /// (Scheduler::Rearm).
  void StepStream(Scheduler* scheduler, StreamId id, SimTime horizon);
  double Reflect(double v) const;

  PlaneWalkConfig config_;
  Rng rng_;
  std::vector<Point2> positions_;
  MoveHandler handler_;
  std::uint64_t moves_ = 0;
};

}  // namespace asf

#endif  // ASF_GEO_PLANE_WALK_H_
