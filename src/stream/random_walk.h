#ifndef ASF_STREAM_RANDOM_WALK_H_
#define ASF_STREAM_RANDOM_WALK_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "stream/stream_set.h"

/// \file
/// The paper's synthetic data model (§6.2): "We assume 5000 data streams,
/// and data values are initially uniformly distributed in the range
/// [0, 1000]. The time between each data item ... follows an exponential
/// distribution with a mean of 20 time units. When a new data value is
/// generated, its difference from the previous value follows a normal
/// distribution with a mean of 0 and standard deviation (σ) of 20."
///
/// The paper does not say what happens at the domain edges; we reflect the
/// walk at [lo, hi] by default so the value distribution stays stationary
/// (uniform) over long runs, which keeps a fixed range query such as
/// [400, 600] populated the way the paper's experiments need. Reflection
/// can be disabled for an unbounded walk.
///
/// Randomness is per stream: stream i draws its initial value, steps, and
/// inter-arrival gaps from its own RNG substream seeded MixSeed(seed, i).
/// A stream's whole (time, value) trajectory is therefore a function of
/// (config, i) alone — independent of how many other streams exist or how
/// their events interleave.

namespace asf {

/// Parameters of the random-walk workload.
struct RandomWalkConfig {
  std::size_t num_streams = 5000;
  double init_lo = 0.0;           ///< initial values ~ U[init_lo, init_hi)
  double init_hi = 1000.0;
  double mean_interarrival = 20;  ///< exponential mean between updates
  double sigma = 20;              ///< stddev of the normal step
  bool reflect = true;            ///< reflect the walk at [init_lo, init_hi]
  std::uint64_t seed = 1;

  Status Validate() const;
};

/// Streams whose values evolve as independent reflected Gaussian random
/// walks with exponential update inter-arrival times.
class RandomWalkStreams : public StreamSet {
 public:
  explicit RandomWalkStreams(const RandomWalkConfig& config);

  void Start(Scheduler* scheduler, SimTime horizon) override;

  const RandomWalkConfig& config() const { return config_; }

 private:
  /// Applies one step to stream `id` and re-arms its event for the next
  /// update (Scheduler::Rearm): each stream is one event for the run.
  void StepStream(Scheduler* scheduler, StreamId id, SimTime horizon);

  /// Reflects `v` into [lo, hi].
  Value Reflect(Value v) const;

  RandomWalkConfig config_;
  /// One RNG substream per stream, indexed by id.
  std::vector<Rng> rngs_;
};

}  // namespace asf

#endif  // ASF_STREAM_RANDOM_WALK_H_
