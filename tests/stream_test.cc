#include "stream/random_walk.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "sim/scheduler.h"
#include "stream/trace_source.h"

namespace asf {
namespace {

// --- RandomWalkStreams (the paper's §6.2 synthetic model) ---

TEST(RandomWalkTest, ConfigValidation) {
  RandomWalkConfig ok;
  EXPECT_TRUE(ok.Validate().ok());
  RandomWalkConfig bad = ok;
  bad.num_streams = 0;
  EXPECT_FALSE(bad.Validate().ok());
  // Stream counts past the stated limit fail here, before the
  // constructor sizes one RNG per stream; Validate itself allocates none.
  for (const std::size_t n :
       {kMaxStreams + 1, std::numeric_limits<std::size_t>::max()}) {
    bad = ok;
    bad.num_streams = n;
    EXPECT_FALSE(bad.Validate().ok()) << n << " streams";
  }
  bad = ok;
  bad.num_streams = kMaxStreams;
  EXPECT_TRUE(bad.Validate().ok());
  bad = ok;
  bad.init_lo = bad.init_hi;
  EXPECT_FALSE(bad.Validate().ok());
  // An infinite bound, or finite bounds whose span overflows, would draw
  // non-finite initial values.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const struct {
    double lo;
    double hi;
  } kSpans[] = {{0, kInf}, {-kInf, 0}, {-1e308, 1e308}};
  for (const auto& span : kSpans) {
    bad = ok;
    bad.init_lo = span.lo;
    bad.init_hi = span.hi;
    EXPECT_FALSE(bad.Validate().ok()) << "[" << span.lo << ", " << span.hi
                                      << ")";
  }
  bad = ok;
  bad.mean_interarrival = 0;
  EXPECT_FALSE(bad.Validate().ok());
  for (const double sigma :
       {-1.0, std::nan(""), std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    bad = ok;
    bad.sigma = sigma;
    EXPECT_FALSE(bad.Validate().ok()) << "sigma " << sigma;
  }
}

TEST(RandomWalkTest, InitialValuesUniformInRange) {
  RandomWalkConfig config;
  config.num_streams = 20000;
  config.seed = 3;
  RandomWalkStreams streams(config);
  OnlineStats stats;
  for (StreamId id = 0; id < streams.size(); ++id) {
    const Value v = streams.value(id);
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1000.0);
    stats.Add(v);
  }
  EXPECT_NEAR(stats.mean(), 500.0, 10.0);
  // Uniform sd = 1000/sqrt(12) ~ 288.7.
  EXPECT_NEAR(stats.stddev(), 288.7, 10.0);
}

TEST(RandomWalkTest, InterarrivalMeanMatchesConfig) {
  RandomWalkConfig config;
  config.num_streams = 200;
  config.mean_interarrival = 20;
  config.seed = 5;
  RandomWalkStreams streams(config);
  Scheduler sched;
  std::uint64_t updates = 0;
  streams.set_update_handler([&](StreamId, Value, SimTime) { ++updates; });
  streams.Start(&sched, 4000);
  sched.RunUntil(4000);
  // Expected updates ~ n * duration / mean = 200 * 4000/20 = 40000.
  EXPECT_NEAR(static_cast<double>(updates), 40000, 1500);
}

TEST(RandomWalkTest, StepSizeMatchesSigma) {
  RandomWalkConfig config;
  config.num_streams = 1;
  config.sigma = 20;
  config.reflect = false;
  config.seed = 11;
  RandomWalkStreams streams(config);
  Scheduler sched;
  OnlineStats steps;
  Value prev = streams.value(0);
  streams.set_update_handler([&](StreamId, Value v, SimTime) {
    steps.Add(v - prev);
    prev = v;
  });
  streams.Start(&sched, 2.0e6);
  sched.RunUntil(2.0e6);
  ASSERT_GT(steps.count(), 50000u);
  EXPECT_NEAR(steps.mean(), 0.0, 0.5);
  EXPECT_NEAR(steps.stddev(), 20.0, 0.5);
}

TEST(RandomWalkTest, ReflectionKeepsValuesInDomain) {
  RandomWalkConfig config;
  config.num_streams = 50;
  config.sigma = 200;  // violent steps to stress the reflection
  config.seed = 13;
  RandomWalkStreams streams(config);
  Scheduler sched;
  std::uint64_t updates = 0;
  streams.set_update_handler([&](StreamId, Value v, SimTime) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1000.0);
    ++updates;
  });
  streams.Start(&sched, 2000);
  sched.RunUntil(2000);
  EXPECT_GT(updates, 1000u);
}

TEST(RandomWalkTest, UnboundedWalkDrifts) {
  RandomWalkConfig config;
  config.num_streams = 100;
  config.sigma = 50;
  config.reflect = false;
  config.seed = 17;
  RandomWalkStreams streams(config);
  Scheduler sched;
  streams.Start(&sched, 20000);
  sched.RunUntil(20000);
  // Without reflection some stream must have escaped [0, 1000].
  bool escaped = false;
  for (StreamId id = 0; id < streams.size(); ++id) {
    if (streams.value(id) < 0 || streams.value(id) > 1000) escaped = true;
  }
  EXPECT_TRUE(escaped);
}

TEST(RandomWalkTest, DeterministicAcrossRuns) {
  RandomWalkConfig config;
  config.num_streams = 30;
  config.seed = 23;
  std::vector<Value> first;
  for (int run = 0; run < 2; ++run) {
    RandomWalkStreams streams(config);
    Scheduler sched;
    streams.Start(&sched, 500);
    sched.RunUntil(500);
    if (run == 0) {
      first = streams.values();
    } else {
      EXPECT_EQ(streams.values(), first);
    }
  }
}

TEST(RandomWalkTest, HandlerSeesMonotoneTimes) {
  RandomWalkConfig config;
  config.num_streams = 20;
  config.seed = 29;
  RandomWalkStreams streams(config);
  Scheduler sched;
  SimTime last = 0;
  streams.set_update_handler([&](StreamId, Value, SimTime t) {
    EXPECT_GE(t, last);
    last = t;
  });
  streams.Start(&sched, 1000);
  sched.RunUntil(1000);
  EXPECT_GT(last, 0.0);
}

// --- TraceStreams ---

std::vector<TraceRecord> SmallRecords() {
  return {{1.0, 0, 15}, {2.0, 1, 25}, {2.0, 2, 35}, {5.0, 0, 5}};
}

TraceData SmallTrace() {
  return TraceData::Make(3, {10, 20, 30}, SmallRecords()).value();
}

TEST(TraceStreamsTest, ValidationCatchesBadTraces) {
  // TraceData::Make is the one check a hand-built trace gets.
  const auto check = [](std::size_t num_streams, std::vector<Value> initial,
                        std::vector<TraceRecord> records) {
    return TraceData::Make(num_streams, std::move(initial),
                           std::move(records))
        .status();
  };
  EXPECT_TRUE(check(3, {10, 20, 30}, SmallRecords()).ok());

  std::vector<TraceRecord> bad = SmallRecords();
  bad[0].stream = 99;
  EXPECT_EQ(check(3, {}, bad).code(), StatusCode::kOutOfRange);

  bad = SmallRecords();
  std::swap(bad[0], bad[3]);  // out of order
  EXPECT_FALSE(check(3, {}, bad).ok());

  EXPECT_FALSE(check(3, {10, 20}, SmallRecords()).ok());
  EXPECT_FALSE(check(0, {}, {}).ok());

  // The stream count is capped before any replay sizes a per-stream array.
  EXPECT_TRUE(check(kMaxStreams, {}, SmallRecords()).ok());
  EXPECT_FALSE(check(kMaxStreams + 1, {}, SmallRecords()).ok());
}

TEST(TraceStreamsTest, InitialValuesApplied) {
  const TraceData trace = SmallTrace();
  TraceStreams streams(&trace);
  EXPECT_EQ(streams.value(0), 10);
  EXPECT_EQ(streams.value(1), 20);
  EXPECT_EQ(streams.value(2), 30);
}

TEST(TraceStreamsTest, ReplaysInOrder) {
  const TraceData trace = SmallTrace();
  TraceStreams streams(&trace);
  Scheduler sched;
  std::vector<std::pair<StreamId, Value>> seen;
  streams.set_update_handler([&](StreamId id, Value v, SimTime) {
    seen.push_back({id, v});
  });
  streams.Start(&sched, 100);
  sched.RunUntil(100);
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], (std::pair<StreamId, Value>{0, 15}));
  EXPECT_EQ(seen[3], (std::pair<StreamId, Value>{0, 5}));
  EXPECT_EQ(streams.value(0), 5);
  EXPECT_EQ(streams.value(1), 25);
}

TEST(TraceStreamsTest, HorizonTruncatesReplay) {
  const TraceData trace = SmallTrace();
  TraceStreams streams(&trace);
  Scheduler sched;
  std::uint64_t updates = 0;
  streams.set_update_handler([&](StreamId, Value, SimTime) { ++updates; });
  streams.Start(&sched, 2.0);  // cut off the t=5 record
  sched.RunUntil(2.0);
  EXPECT_EQ(updates, 3u);
  EXPECT_EQ(streams.value(0), 15);  // t=5 record never applied
}

TEST(TraceStreamsTest, EmptyTraceIsFine) {
  const TraceData trace = TraceData::Make(2, {}, {}).value();
  TraceStreams streams(&trace);
  Scheduler sched;
  std::uint64_t updates = 0;
  streams.set_update_handler([&](StreamId, Value, SimTime) { ++updates; });
  streams.Start(&sched, 100);
  sched.RunUntil(100);
  EXPECT_EQ(updates, 0u);
  EXPECT_EQ(streams.value(0), 0.0);  // default initial value
}

TEST(TraceStreamsTest, DurationReportsLastRecordTime) {
  EXPECT_EQ(SmallTrace().Duration(), 5.0);
  EXPECT_EQ(TraceData::Make(1, {}, {})->Duration(), 0.0);
}

}  // namespace
}  // namespace asf
