#include "net/network_model.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "engine/multi_system.h"
#include "engine/system.h"
#include "result_equality.h"
#include "sim/scheduler.h"

/// \file
/// Delivery-model semantics (DESIGN.md §9): spec parsing, the
/// zero-parameter ≡ instant byte-identity contract across every protocol,
/// per-link FIFO ordering under jitter, deterministic replay under seed,
/// batching coalescence, and staleness accounting validated against a
/// hand-computed two-update scenario.

namespace asf {
namespace {

// ---------------------------------------------------------------- parsing

TEST(NetSpecTest, ParsesEveryModel) {
  auto instant = ParseNetSpec("instant");
  ASSERT_TRUE(instant.ok());
  EXPECT_EQ(instant->kind, NetConfig::Kind::kInstant);
  EXPECT_FALSE(instant->DelaysDelivery());

  auto latency = ParseNetSpec("latency:5");
  ASSERT_TRUE(latency.ok());
  EXPECT_EQ(latency->kind, NetConfig::Kind::kFixedLatency);
  EXPECT_DOUBLE_EQ(latency->latency, 5);
  EXPECT_DOUBLE_EQ(latency->jitter, 0);
  EXPECT_TRUE(latency->DelaysDelivery());
  EXPECT_EQ(latency->ToString(), "latency:5");

  auto jittered = ParseNetSpec("latency:5:2.5");
  ASSERT_TRUE(jittered.ok());
  EXPECT_DOUBLE_EQ(jittered->jitter, 2.5);
  EXPECT_EQ(jittered->ToString(), "latency:5:2.5");

  auto batch = ParseNetSpec("batch:20");
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->kind, NetConfig::Kind::kBatched);
  EXPECT_DOUBLE_EQ(batch->delta, 20);

  auto bw = ParseNetSpec("bw:0.5");
  ASSERT_TRUE(bw.ok());
  EXPECT_EQ(bw->kind, NetConfig::Kind::kBoundedBandwidth);
  EXPECT_DOUBLE_EQ(bw->rate, 0.5);
}

TEST(NetSpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseNetSpec("").ok());
  EXPECT_FALSE(ParseNetSpec("warp").ok());
  EXPECT_FALSE(ParseNetSpec("latency").ok());
  EXPECT_FALSE(ParseNetSpec("latency:abc").ok());
  EXPECT_FALSE(ParseNetSpec("latency:-1").ok());
  EXPECT_FALSE(ParseNetSpec("batch:").ok());
  EXPECT_FALSE(ParseNetSpec("bw:0").ok());
  EXPECT_FALSE(ParseNetSpec("instant:1").ok());
}

// ------------------------------------------- zero-parameter ≡ instant

SystemConfig BaseConfig(ProtocolKind protocol, const QuerySpec& query,
                        double eps, std::size_t rank_r) {
  SystemConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 200;
  walk.seed = 23;
  config.source = SourceSpec::Walk(walk);
  config.query = query;
  config.protocol = protocol;
  config.fraction = {eps, eps};
  config.rank_r = rank_r;
  config.duration = 400;
  config.seed = 23;
  config.oracle.sample_interval = 25;
  return config;
}

struct ProtoCase {
  const char* label;
  ProtocolKind protocol;
  QuerySpec query;
  double eps;
  std::size_t rank_r;
};

const ProtoCase kAllProtocols[] = {
    {"no-filter", ProtocolKind::kNoFilter, QuerySpec::Range(400, 600), 0, 0},
    {"zt-nrp", ProtocolKind::kZtNrp, QuerySpec::Range(400, 600), 0, 0},
    {"ft-nrp", ProtocolKind::kFtNrp, QuerySpec::Range(400, 600), 0.3, 0},
    {"rtp", ProtocolKind::kRtp, QuerySpec::Knn(5, 500), 0, 3},
    {"zt-rp", ProtocolKind::kZtRp, QuerySpec::Knn(5, 500), 0, 0},
    {"ft-rp", ProtocolKind::kFtRp, QuerySpec::Knn(10, 500), 0.3, 0},
};

/// An explicit `instant` spec and the zero-latency / zero-Δ /
/// infinite-rate models must take the inline delivery path and reproduce
/// the default net byte-identically, for every protocol.
TEST(NetEquivalenceTest, ZeroParameterModelsMatchInstant) {
  NetConfig degenerate[4];
  degenerate[0].kind = NetConfig::Kind::kFixedLatency;  // latency:0
  degenerate[1].kind = NetConfig::Kind::kBatched;       // batch:0
  degenerate[2].kind = NetConfig::Kind::kBoundedBandwidth;  // bw:inf
  degenerate[2].rate = kInf;
  auto instant_spec = ParseNetSpec("instant");
  ASSERT_TRUE(instant_spec.ok());
  degenerate[3] = *instant_spec;

  for (const ProtoCase& c : kAllProtocols) {
    SystemConfig config = BaseConfig(c.protocol, c.query, c.eps, c.rank_r);
    auto instant = RunSystem(config);
    ASSERT_TRUE(instant.ok()) << c.label;
    EXPECT_EQ(instant->update_delay.count(), 0u) << c.label;
    EXPECT_EQ(instant->net.in_flight_at_end, 0u) << c.label;
    for (const NetConfig& net : degenerate) {
      ASSERT_FALSE(net.DelaysDelivery());
      config.net = net;
      auto run = RunSystem(config);
      ASSERT_TRUE(run.ok()) << c.label;
      ExpectSameResult(*instant, *run,
                       std::string(c.label) + " " + net.ToString());
    }
  }
}

// ------------------------------------------------ determinism under seed

/// A jittered-latency run is a pure function of (config, seed): replaying
/// it must reproduce every observable.
TEST(NetDeterminismTest, JitteredLatencyReplaysExactly) {
  SystemConfig config =
      BaseConfig(ProtocolKind::kFtNrp, QuerySpec::Range(400, 600), 0.2, 0);
  config.net.kind = NetConfig::Kind::kFixedLatency;
  config.net.latency = 4;
  config.net.jitter = 6;
  auto first = RunSystem(config);
  auto second = RunSystem(config);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectSameResult(*first, *second, "jitter-replay");
  // The jitter actually engaged: staleness spreads beyond the base
  // latency.
  EXPECT_GE(first->update_delay.max(), 4.0);
  EXPECT_GT(first->update_delay.max(), first->update_delay.min());
}

// ------------------------------------------------------- FIFO per link

/// Heavily jittered messages on one link must still arrive in send order:
/// delivery times clamp to the link's last scheduled arrival.
TEST(NetFifoTest, JitterNeverReordersALink) {
  NetConfig config;
  config.kind = NetConfig::Kind::kFixedLatency;
  config.latency = 1;
  config.jitter = 50;  // far larger than the send spacing
  auto net = MakeNetworkModel(config, /*seed=*/99);

  Scheduler scheduler;
  struct Arrival {
    Value value;
    SimTime at;
  };
  std::vector<Arrival> arrivals;
  net->Bind(
      &scheduler,
      [&](StreamId id, const NetworkModel::Payload* payloads,
          std::size_t count, SimTime at) {
        ASSERT_EQ(id, 7u);
        ASSERT_EQ(count, 1u);
        arrivals.push_back({payloads[0].value, at});
      },
      [](std::size_t, StreamId, const FilterConstraint&, SimTime) {});

  const std::vector<std::size_t> slots = {0};
  for (int i = 0; i < 50; ++i) {
    scheduler.RunUntil(static_cast<SimTime>(i));
    net->SendUpdate(/*id=*/7, /*v=*/static_cast<Value>(i), slots,
                    scheduler.now());
  }
  scheduler.RunUntil(1000);
  ASSERT_EQ(arrivals.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(arrivals[i].value, static_cast<Value>(i)) << i;
    if (i > 0) {
      EXPECT_GE(arrivals[i].at, arrivals[i - 1].at) << i;
    }
  }
  EXPECT_EQ(net->stats().update_messages, 50u);
}

// --------------------------------------------- hand-computed staleness

/// Two trace updates under latency:7 and a pass-through (no-filter)
/// query: both cross, both are delivered exactly 7 time units later, so
/// the staleness distribution is {7, 7} and the wire count is 2.
TEST(NetStalenessTest, MatchesHandComputedTwoUpdateScenario) {
  const TraceData trace =
      TraceData::Make(2, {500, 500}, {{10, 0, 450}, {30, 1, 700}}).value();

  SystemConfig config;
  config.source = SourceSpec::Trace(&trace);
  config.query = QuerySpec::Range(0, 1000);
  config.protocol = ProtocolKind::kNoFilter;
  config.duration = 100;
  config.net.kind = NetConfig::Kind::kFixedLatency;
  config.net.latency = 7;

  auto result = RunSystem(config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->updates_generated, 2u);
  EXPECT_EQ(result->updates_reported, 2u);
  EXPECT_EQ(result->net.crossings, 2u);
  EXPECT_EQ(result->net.update_messages, 2u);
  EXPECT_EQ(result->net.in_flight_at_end, 0u);
  ASSERT_EQ(result->update_delay.count(), 2u);
  EXPECT_DOUBLE_EQ(result->update_delay.mean(), 7.0);
  EXPECT_DOUBLE_EQ(result->update_delay.min(), 7.0);
  EXPECT_DOUBLE_EQ(result->update_delay.max(), 7.0);
}

/// Batching coalesces: two crossings of one stream inside a single Δ
/// window arrive as ONE wire message carrying the latest value (staleness
/// measured from the latest crossing), and a crossing whose flush lands
/// past the horizon is counted in flight, never delivered.
TEST(NetStalenessTest, BatchingCoalescesAndCountsInFlight) {
  const TraceData trace =
      TraceData::Make(1, {500}, {{12, 0, 450}, {17, 0, 480}, {95, 0, 520}})
          .value();

  SystemConfig config;
  config.source = SourceSpec::Trace(&trace);
  config.query = QuerySpec::Range(0, 1000);
  config.protocol = ProtocolKind::kNoFilter;
  config.duration = 100;
  config.net.kind = NetConfig::Kind::kBatched;
  config.net.delta = 20;

  auto result = RunSystem(config);
  ASSERT_TRUE(result.ok());
  // Crossings at t=12 and t=17 coalesce into the flush at t=20; the
  // crossing at t=95 flushes at t=100... which is the horizon, so it
  // still delivers (events at exactly the horizon run).
  EXPECT_EQ(result->updates_generated, 3u);
  EXPECT_EQ(result->net.crossings, 3u);
  EXPECT_EQ(result->net.update_messages, 2u);
  EXPECT_EQ(result->updates_reported, 2u);  // one logical update per flush
  EXPECT_DOUBLE_EQ(result->net.MessagesPerFlush(), 1.5);
  ASSERT_EQ(result->update_delay.count(), 2u);
  // First delivery: flush at 20, latest crossing at 17 → staleness 3.
  // Second: flush at 100, crossing at 95 → staleness 5.
  EXPECT_DOUBLE_EQ(result->update_delay.min(), 3.0);
  EXPECT_DOUBLE_EQ(result->update_delay.max(), 5.0);
  EXPECT_EQ(result->net.in_flight_at_end, 0u);
}

/// The batching points of bench/net_delay, pinned exactly: crossings per
/// update message (messages per flush) is simulation currency, so the
/// counts repeat for the seed on any machine. The grid base is 400 walks
/// seeded 17 for 2000 time units, the oracle judging every 20.
TEST(NetStalenessTest, NetDelayBatchingPointsArePinned) {
  const struct {
    const char* label;
    ProtocolKind protocol;
    QuerySpec query;
    double eps;
    std::size_t rank_r;
    const char* net;
    std::uint64_t crossings;
    std::uint64_t update_messages;
  } kCases[] = {
      {"ft-nrp", ProtocolKind::kFtNrp, QuerySpec::Range(400, 600), 0.2, 0,
       "batch:20", 1224, 1065},
      {"ft-nrp", ProtocolKind::kFtNrp, QuerySpec::Range(400, 600), 0.2, 0,
       "batch:80", 1216, 791},
      {"rtp", ProtocolKind::kRtp, QuerySpec::Knn(10, 500), 0, 5, "batch:20",
       1228, 1037},
  };
  for (const auto& c : kCases) {
    SystemConfig config = BaseConfig(c.protocol, c.query, c.eps, c.rank_r);
    RandomWalkConfig walk;
    walk.num_streams = 400;
    walk.seed = 17;
    config.source = SourceSpec::Walk(walk);
    config.duration = 2000;
    config.seed = 17;
    config.oracle.sample_interval = 20;
    auto net = ParseNetSpec(c.net);
    ASSERT_TRUE(net.ok()) << c.net;
    config.net = *net;
    auto result = RunSystem(config);
    ASSERT_TRUE(result.ok()) << c.label << " " << c.net;
    EXPECT_EQ(result->net.crossings, c.crossings) << c.label << " " << c.net;
    EXPECT_EQ(result->net.update_messages, c.update_messages)
        << c.label << " " << c.net;
  }
}

/// Bounded bandwidth queues: three back-to-back crossings on one link at
/// rate 0.1 (service time 10) depart at 10-unit spacings — queueing
/// delay, not propagation, dominates.
TEST(NetStalenessTest, BandwidthQueueingDelaysBursts) {
  const TraceData trace =
      TraceData::Make(1, {500}, {{10, 0, 450}, {11, 0, 480}, {12, 0, 520}})
          .value();

  SystemConfig config;
  config.source = SourceSpec::Trace(&trace);
  config.query = QuerySpec::Range(0, 1000);
  config.protocol = ProtocolKind::kNoFilter;
  config.duration = 100;
  config.net.kind = NetConfig::Kind::kBoundedBandwidth;
  config.net.rate = 0.1;

  auto result = RunSystem(config);
  ASSERT_TRUE(result.ok());
  // Departures: max(10, 0)+10 = 20; max(11, 20)+10 = 30; max(12, 30)+10
  // = 40 → staleness 10, 19, 28.
  ASSERT_EQ(result->update_delay.count(), 3u);
  EXPECT_DOUBLE_EQ(result->update_delay.min(), 10.0);
  EXPECT_DOUBLE_EQ(result->update_delay.max(), 28.0);
  EXPECT_DOUBLE_EQ(result->update_delay.mean(), 19.0);
  EXPECT_EQ(result->net.update_messages, 3u);
  EXPECT_DOUBLE_EQ(result->net.queue_depth.max(), 2.0);
}

/// A query retiring with updates still in flight: the engine drops the
/// late arrivals instead of resurrecting closed books.
TEST(NetLifecycleTest, InFlightMessagesToRetiredQueriesAreDropped) {
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 120;
  walk.seed = 31;
  config.source = SourceSpec::Walk(walk);
  config.duration = 600;
  config.seed = 31;
  config.net.kind = NetConfig::Kind::kFixedLatency;
  config.net.latency = 25;  // long transit: retirement outruns delivery

  QueryDeployment young;
  young.name = "young";
  young.query = QuerySpec::Range(300, 700);
  young.protocol = ProtocolKind::kZtNrp;
  young.start = 0;
  young.end = 200;
  QueryDeployment old;
  old.name = "survivor";
  old.query = QuerySpec::Range(350, 650);
  old.protocol = ProtocolKind::kZtNrp;
  config.queries = {young, old};

  auto result = RunMultiQuerySystem(config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->net.dropped_retired, 0u);
  EXPECT_DOUBLE_EQ(result->queries[0].retired_at, 200.0);
  // The survivor keeps being served after the young query's columns left
  // the arena.
  EXPECT_GT(result->queries[1].updates_reported,
            result->queries[0].updates_reported);
}

}  // namespace
}  // namespace asf
