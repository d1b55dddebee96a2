#include "geo/plane_walk.h"

#include <cmath>
#include <string>

namespace asf {

Status PlaneWalkConfig::Validate() const {
  if (num_streams == 0 || num_streams > kMaxStreams) {
    return Status::InvalidArgument("num_streams must lie in [1, " +
                                   std::to_string(kMaxStreams) + "]");
  }
  // A span that overflows (an infinite bound, or finite bounds further
  // apart than the largest double) draws non-finite positions.
  if (!(domain_lo < domain_hi && std::isfinite(domain_hi - domain_lo))) {
    return Status::InvalidArgument(
        "domain_lo must be < domain_hi, with a finite domain_hi - "
        "domain_lo");
  }
  if (!(mean_interarrival > 0)) {
    return Status::InvalidArgument("mean_interarrival must be > 0");
  }
  if (!(sigma >= 0 && std::isfinite(sigma))) {
    return Status::InvalidArgument("sigma must be finite and >= 0");
  }
  return Status::OK();
}

PlaneWalkStreams::PlaneWalkStreams(const PlaneWalkConfig& config)
    : config_(config), rng_(config.seed) {
  ASF_CHECK_MSG(config.Validate().ok(), "invalid PlaneWalkConfig");
  positions_.resize(config_.num_streams);
  for (Point2& p : positions_) {
    p.x = rng_.Uniform(config_.domain_lo, config_.domain_hi);
    p.y = rng_.Uniform(config_.domain_lo, config_.domain_hi);
  }
}

double PlaneWalkStreams::Reflect(double v) const {
  const double lo = config_.domain_lo;
  const double span = config_.domain_hi - lo;
  double x = std::fmod(v - lo, 2 * span);
  if (x < 0) x += 2 * span;
  if (x > span) x = 2 * span - x;
  return lo + x;
}

void PlaneWalkStreams::StepStream(Scheduler* scheduler, StreamId id,
                                  SimTime horizon) {
  Point2 next = positions_[id];
  next.x = Reflect(next.x + rng_.Normal(0.0, config_.sigma));
  next.y = Reflect(next.y + rng_.Normal(0.0, config_.sigma));
  positions_[id] = next;
  ++moves_;
  if (handler_) handler_(id, next, scheduler->now());
  const SimTime next_time =
      scheduler->now() + rng_.Exponential(config_.mean_interarrival);
  if (next_time <= horizon) scheduler->Rearm(next_time);
}

void PlaneWalkStreams::Start(Scheduler* scheduler, SimTime horizon) {
  ASF_CHECK(scheduler != nullptr);
  for (StreamId id = 0; id < positions_.size(); ++id) {
    const SimTime first =
        scheduler->now() + rng_.Exponential(config_.mean_interarrival);
    if (first <= horizon) {
      scheduler->ScheduleAt(first, [this, scheduler, id, horizon] {
        StepStream(scheduler, id, horizon);
      });
    }
  }
}

}  // namespace asf
