#include "stream/random_walk.h"

#include <cmath>
#include <string>

namespace asf {

Status RandomWalkConfig::Validate() const {
  if (num_streams == 0 || num_streams > kMaxStreams) {
    return Status::InvalidArgument("num_streams must lie in [1, " +
                                   std::to_string(kMaxStreams) + "]");
  }
  // A span that overflows (an infinite bound, or finite bounds further
  // apart than the largest double) draws non-finite initial values.
  if (!(init_lo < init_hi && std::isfinite(init_hi - init_lo))) {
    return Status::InvalidArgument(
        "init_lo must be < init_hi, with a finite init_hi - init_lo");
  }
  if (!(mean_interarrival > 0)) {
    return Status::InvalidArgument("mean_interarrival must be > 0");
  }
  if (!(sigma >= 0 && std::isfinite(sigma))) {
    return Status::InvalidArgument("sigma must be finite and >= 0");
  }
  return Status::OK();
}

RandomWalkStreams::RandomWalkStreams(const RandomWalkConfig& config)
    : StreamSet(config.num_streams), config_(config) {
  ASF_CHECK_MSG(config.Validate().ok(), "invalid RandomWalkConfig");
  rngs_.reserve(config_.num_streams);
  for (StreamId id = 0; id < config_.num_streams; ++id) {
    // The initial value is the substream's first draw, so it too is a
    // function of (seed, id) alone.
    rngs_.emplace_back(MixSeed(config_.seed, id));
    SetInitialValue(id, rngs_.back().Uniform(config_.init_lo, config_.init_hi));
  }
}

Value RandomWalkStreams::Reflect(Value v) const {
  const double lo = config_.init_lo;
  const double hi = config_.init_hi;
  const double span = hi - lo;
  // Fold v into [lo, lo + 2*span) then mirror the upper half. A loop is
  // unnecessary: fmod handles arbitrarily distant excursions.
  double x = std::fmod(v - lo, 2 * span);
  if (x < 0) x += 2 * span;
  if (x > span) x = 2 * span - x;
  return lo + x;
}

void RandomWalkStreams::StepStream(Scheduler* scheduler, StreamId id,
                                   SimTime horizon) {
  Rng& rng = rngs_[id];
  Value next = value(id) + rng.Normal(0.0, config_.sigma);
  if (config_.reflect) next = Reflect(next);
  ApplyUpdate(id, next, scheduler->now());
  const SimTime next_time =
      scheduler->now() + rng.Exponential(config_.mean_interarrival);
  if (next_time <= horizon) scheduler->Rearm(next_time);
}

void RandomWalkStreams::Start(Scheduler* scheduler, SimTime horizon) {
  ASF_CHECK(scheduler != nullptr);
  for (StreamId id = 0; id < config_.num_streams; ++id) {
    const SimTime first =
        scheduler->now() + rngs_[id].Exponential(config_.mean_interarrival);
    if (first <= horizon) {
      scheduler->ScheduleAt(first, [this, scheduler, id, horizon] {
        StepStream(scheduler, id, horizon);
      });
    }
  }
}

}  // namespace asf
