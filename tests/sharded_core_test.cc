#include "engine/sharded_core.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/churn.h"
#include "engine/multi_system.h"
#include "result_equality.h"

// Sharded-vs-serial equivalence: ShardedSimulationCore must produce
// byte-identical results to the serial SimulationCore for any shard count,
// across every protocol, with mid-run lifecycle (deploy/retire), periodic
// oracle sampling, and churn schedules. These tests are the contract named
// in DESIGN.md §8.

namespace asf {
namespace {

/// A mixed three-query deployment of one protocol: one static query, one
/// late arrival, one that retires mid-run — so the equivalence covers
/// lifecycle barriers, not just the static batch.
MultiQueryConfig ProtocolConfig(ProtocolKind protocol) {
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 90;
  walk.seed = 11;
  config.source = SourceSpec::Walk(walk);
  config.duration = 600;
  config.seed = 23;
  config.oracle.sample_interval = 85;

  const bool rank = protocol == ProtocolKind::kRtp ||
                    protocol == ProtocolKind::kZtRp ||
                    protocol == ProtocolKind::kFtRp;
  for (int i = 0; i < 3; ++i) {
    QueryDeployment dep;
    dep.name = "q" + std::to_string(i);
    if (rank) {
      dep.query = QuerySpec::Knn(4 + i, 300.0 + 150.0 * i);
    } else {
      dep.query = QuerySpec::Range(250.0 + 100.0 * i, 470.0 + 100.0 * i);
    }
    dep.protocol = protocol;
    dep.rank_r = 2;
    dep.fraction.eps_plus = 0.25;
    dep.fraction.eps_minus = 0.25;
    if (i == 1) dep.start = 123.5;               // late arrival
    if (i == 2) dep.end = 431.25;                // mid-run retirement
    config.queries.push_back(dep);
  }
  return config;
}

/// Drives ShardedSimulationCore directly (the public entry point routes
/// shards == 1 to the serial engine, and the epoch machinery must hold for
/// one shard too). `replay_workers` forces the replay executor count —
/// essential on small CI hosts, where the 0 = auto default resolves to the
/// core count and would never exercise the parallel fan-out.
MultiQueryResult RunShardedDirect(const MultiQueryConfig& config,
                                  std::size_t shards,
                                  std::size_t replay_workers = 0,
                                  bool pin_threads = false) {
  ShardedSimulationCore::Options options;
  options.base.source = config.source;
  options.base.duration = config.duration;
  options.base.query_start = config.query_start;
  options.base.seed = config.seed;
  options.base.oracle = config.oracle;
  options.base.net = config.net;
  options.base.dispatch = config.dispatch;
  options.shards = shards;
  options.epoch = config.shard_epoch;
  options.replay_workers = replay_workers;
  options.pin_threads = pin_threads;
  ShardedSimulationCore core(options);
  for (const QueryDeployment& dep : config.queries) core.AddQuery(dep);
  core.Run();

  MultiQueryResult r;
  r.queries.resize(config.queries.size());
  for (std::size_t i = 0; i < config.queries.size(); ++i) {
    const QueryRunStats& s = core.query_stats(i);
    auto& q = r.queries[i];
    q.name = s.name;
    q.messages = s.messages;
    q.updates_reported = s.updates_reported;
    q.reinits = s.reinits;
    q.answer_size = s.answer_size;
    q.oracle_checks = s.oracle_checks;
    q.oracle_violations = s.oracle_violations;
    q.max_f_plus = s.max_f_plus;
    q.max_f_minus = s.max_f_minus;
    q.max_worst_rank = s.max_worst_rank;
    q.deployed_at = s.deployed_at;
    q.retired_at = s.retired_at;
  }
  r.updates_generated = core.updates_generated();
  r.physical_updates = core.physical_updates();
  r.peak_live_queries = core.peak_live_queries();
  return r;
}

TEST(ShardedCoreTest, ByteIdenticalToSerialAcrossProtocolsAndShardCounts) {
  const ProtocolKind protocols[] = {
      ProtocolKind::kNoFilter, ProtocolKind::kZtNrp, ProtocolKind::kFtNrp,
      ProtocolKind::kRtp,      ProtocolKind::kZtRp,  ProtocolKind::kFtRp};
  for (ProtocolKind protocol : protocols) {
    MultiQueryConfig config = ProtocolConfig(protocol);
    auto serial = RunMultiQuerySystem(config);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (std::size_t shards : {1u, 2u, 4u}) {
      const MultiQueryResult sharded = RunShardedDirect(config, shards);
      ExpectSameResult(*serial, sharded,
                       std::string(ProtocolKindName(protocol)) + " shards=" +
                           std::to_string(shards));
    }
  }
}

TEST(ShardedCoreTest, ByteIdenticalOnChurnSchedule) {
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 70;
  walk.seed = 5;
  config.source = SourceSpec::Walk(walk);
  config.duration = 900;
  config.seed = 7;
  config.oracle.sample_interval = 120;

  ChurnSpec spec;
  spec.arrival_rate = 0.05;
  spec.mean_lifetime = 220;
  spec.seed = 31;
  auto deployments = ExpandChurn(spec, config.duration);
  ASSERT_TRUE(deployments.ok());
  config.queries = std::move(deployments).value();
  ASSERT_GE(config.queries.size(), 10u);

  auto serial = RunMultiQuerySystem(config);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (std::size_t shards : {2u, 4u}) {
    MultiQueryConfig sharded_config = config;
    sharded_config.shards = shards;
    auto sharded = RunMultiQuerySystem(sharded_config);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ExpectSameResult(*serial, *sharded,
                     "churn shards=" + std::to_string(shards));
  }
}

TEST(ShardedCoreTest, ByteIdenticalWithPerUpdateOracle) {
  MultiQueryConfig config = ProtocolConfig(ProtocolKind::kFtNrp);
  config.duration = 200;
  config.oracle.check_every_update = true;
  config.oracle.sample_interval = 0;

  auto serial = RunMultiQuerySystem(config);
  ASSERT_TRUE(serial.ok());
  MultiQueryConfig sharded_config = config;
  sharded_config.shards = 3;
  auto sharded = RunMultiQuerySystem(sharded_config);
  ASSERT_TRUE(sharded.ok());
  ExpectSameResult(*serial, *sharded, "per-update oracle shards=3");
}

TEST(ShardedCoreTest, ByteIdenticalOnTraceSource) {
  // Integer-timed trace records exercise the trace partition path (each
  // shard replays its sub-trace) — stream ids all distinct per timestamp
  // so the merge order is unambiguous.
  TraceData trace;
  trace.num_streams = 12;
  for (int t = 1; t <= 400; ++t) {
    TraceRecord rec;
    rec.time = t;
    rec.stream = static_cast<StreamId>((t * 7) % 12);
    rec.value = 100.0 + ((t * 37) % 900);
    trace.records.push_back(rec);
  }
  MultiQueryConfig config;
  config.source = SourceSpec::Trace(&trace);
  config.duration = 420;
  config.seed = 3;
  QueryDeployment dep;
  dep.name = "q0";
  dep.query = QuerySpec::Range(300, 650);
  dep.protocol = ProtocolKind::kZtNrp;
  config.queries.push_back(dep);

  auto serial = RunMultiQuerySystem(config);
  ASSERT_TRUE(serial.ok());
  MultiQueryConfig sharded_config = config;
  sharded_config.shards = 4;
  auto sharded = RunMultiQuerySystem(sharded_config);
  ASSERT_TRUE(sharded.ok());
  ExpectSameResult(*serial, *sharded, "trace shards=4");
}

// --- Dispatch-policy equivalence (DESIGN.md §10) ---
//
// The scan / index / auto dispatch policies are a pure performance trade:
// every observable result must be byte-identical, serial and sharded, for
// every protocol, under churn, and under delayed (batched) delivery.

TEST(ShardedCoreTest, DispatchPoliciesByteIdenticalAcrossProtocols) {
  const ProtocolKind protocols[] = {
      ProtocolKind::kNoFilter, ProtocolKind::kZtNrp, ProtocolKind::kFtNrp,
      ProtocolKind::kRtp,      ProtocolKind::kZtRp,  ProtocolKind::kFtRp};
  const DispatchPolicy policies[] = {DispatchPolicy::kIndex,
                                     DispatchPolicy::kAuto};
  for (ProtocolKind protocol : protocols) {
    MultiQueryConfig config = ProtocolConfig(protocol);
    config.dispatch = DispatchPolicy::kScan;
    auto scan = RunMultiQuerySystem(config);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    for (DispatchPolicy policy : policies) {
      config.dispatch = policy;
      const std::string label = std::string(ProtocolKindName(protocol)) +
                                " dispatch=" +
                                std::string(DispatchPolicyName(policy));
      config.shards = 1;
      auto serial = RunMultiQuerySystem(config);
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      ExpectSameResult(*scan, *serial, label + " serial");
      if (policy == DispatchPolicy::kIndex) {
        // An explicit index config wins outright (no env override) and
        // serves every generated update through the index path.
        EXPECT_EQ(serial->dispatch_policy, DispatchPolicy::kIndex);
        EXPECT_EQ(serial->dispatch.scan_dispatches, 0u);
        EXPECT_EQ(serial->dispatch.index_dispatches,
                  serial->updates_generated);
      }
      for (std::size_t shards : {2u, 4u}) {
        config.shards = shards;
        auto sharded = RunMultiQuerySystem(config);
        ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
        ExpectSameResult(*scan, *sharded,
                         label + " shards=" + std::to_string(shards));
      }
      config.shards = 1;
    }
  }
}

TEST(ShardedCoreTest, IndexDispatchByteIdenticalOnChurnSchedule) {
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 70;
  walk.seed = 5;
  config.source = SourceSpec::Walk(walk);
  config.duration = 900;
  config.seed = 7;
  config.oracle.sample_interval = 120;

  ChurnSpec spec;
  spec.arrival_rate = 0.05;
  spec.mean_lifetime = 220;
  spec.seed = 31;
  auto deployments = ExpandChurn(spec, config.duration);
  ASSERT_TRUE(deployments.ok());
  config.queries = std::move(deployments).value();

  config.dispatch = DispatchPolicy::kScan;
  auto scan = RunMultiQuerySystem(config);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  config.dispatch = DispatchPolicy::kIndex;
  auto index = RunMultiQuerySystem(config);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ExpectSameResult(*scan, *index, "churn index serial");
  // The churn schedule's acquire/release/deploy mix must actually hit the
  // incremental maintenance paths, not rebuild every dispatch.
  EXPECT_GT(index->dispatch.index_dispatches, 0u);
  EXPECT_GT(index->dispatch.index_rebuilds, 0u);
  EXPECT_LT(index->dispatch.index_rebuilds, index->dispatch.index_dispatches);

  config.shards = 3;
  auto sharded = RunMultiQuerySystem(config);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ExpectSameResult(*scan, *sharded, "churn index shards=3");
}

TEST(ShardedCoreTest, IndexDispatchByteIdenticalUnderBatchedDelivery) {
  MultiQueryConfig config = ProtocolConfig(ProtocolKind::kFtNrp);
  config.net.kind = NetConfig::Kind::kBatched;
  config.net.delta = 7.5;

  config.dispatch = DispatchPolicy::kScan;
  auto scan = RunMultiQuerySystem(config);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  config.dispatch = DispatchPolicy::kIndex;
  for (std::size_t shards : {1u, 2u}) {
    config.shards = shards;
    auto index = RunMultiQuerySystem(config);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    ExpectSameResult(*scan, *index,
                     "batched index shards=" + std::to_string(shards));
  }
}

// --- Parallel replay (DESIGN.md §12) ---
//
// With replay_workers > 1 the coordinator fans per-query reactions of a
// multi-payload wire message out across the worker pool, journaling shared
// side effects and committing them in payload order. Every observable must
// stay byte-identical to the serial engine for every (shards, workers)
// combination; these tests force worker counts explicitly so the fan-out
// runs even on single-core hosts.

/// Six heavily-overlapping queries over one walk population, with a late
/// arrival and a mid-run retirement: most crossings fan out to >= 4 query
/// slots, which is the engine's parallel-replay payload threshold.
MultiQueryConfig OverlapConfig(ProtocolKind protocol) {
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 80;
  walk.seed = 13;
  config.source = SourceSpec::Walk(walk);
  config.duration = 500;
  config.seed = 29;
  config.oracle.sample_interval = 90;

  const bool rank = protocol == ProtocolKind::kRtp ||
                    protocol == ProtocolKind::kZtRp ||
                    protocol == ProtocolKind::kFtRp;
  for (int i = 0; i < 6; ++i) {
    QueryDeployment dep;
    dep.name = "q" + std::to_string(i);
    if (rank) {
      dep.query = QuerySpec::Knn(4 + i, 470.0 + 12.0 * i);
    } else {
      dep.query = QuerySpec::Range(200.0 + 15.0 * i, 690.0 + 12.0 * i);
    }
    dep.protocol = protocol;
    dep.rank_r = 2;
    dep.fraction.eps_plus = 0.25;
    dep.fraction.eps_minus = 0.25;
    if (i == 4) dep.start = 140.5;   // late arrival
    if (i == 5) dep.end = 380.25;    // mid-run retirement
    config.queries.push_back(dep);
  }
  return config;
}

TEST(ParallelReplayTest, ByteIdenticalAcrossProtocolsShardsAndWorkers) {
  const ProtocolKind protocols[] = {
      ProtocolKind::kNoFilter, ProtocolKind::kZtNrp, ProtocolKind::kFtNrp,
      ProtocolKind::kRtp,      ProtocolKind::kZtRp,  ProtocolKind::kFtRp};
  for (ProtocolKind protocol : protocols) {
    MultiQueryConfig config = OverlapConfig(protocol);
    auto serial = RunMultiQuerySystem(config);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (std::size_t shards : {1u, 2u, 4u, 8u}) {
      for (std::size_t workers : {2u, 4u}) {
        const MultiQueryResult sharded =
            RunShardedDirect(config, shards, workers);
        ExpectSameResult(*serial, sharded,
                         std::string(ProtocolKindName(protocol)) + " shards=" +
                             std::to_string(shards) + " workers=" +
                             std::to_string(workers));
      }
    }
  }
}

TEST(ParallelReplayTest, RepeatedRunsAndOddWorkerCountsReplayExactly) {
  MultiQueryConfig config = OverlapConfig(ProtocolKind::kFtNrp);
  const MultiQueryResult first = RunShardedDirect(config, 4, 4);
  const MultiQueryResult second = RunShardedDirect(config, 4, 4);
  ExpectSameResult(first, second, "repeat workers=4");
  const MultiQueryResult odd = RunShardedDirect(config, 4, 3);
  ExpectSameResult(first, odd, "workers=3");
  const MultiQueryResult one = RunShardedDirect(config, 4, 1);
  ExpectSameResult(first, one, "workers=1");
}

TEST(ParallelReplayTest, ByteIdenticalOnChurnSchedule) {
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 70;
  walk.seed = 5;
  config.source = SourceSpec::Walk(walk);
  config.duration = 900;
  config.seed = 7;
  config.oracle.sample_interval = 120;

  ChurnSpec spec;
  spec.arrival_rate = 0.05;
  spec.mean_lifetime = 220;
  spec.seed = 31;
  auto deployments = ExpandChurn(spec, config.duration);
  ASSERT_TRUE(deployments.ok());
  config.queries = std::move(deployments).value();

  auto serial = RunMultiQuerySystem(config);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (std::size_t shards : {2u, 4u, 8u}) {
    for (std::size_t workers : {2u, 4u}) {
      MultiQueryConfig sharded_config = config;
      sharded_config.shards = shards;
      sharded_config.replay_workers = workers;
      auto sharded = RunMultiQuerySystem(sharded_config);
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      ExpectSameResult(*serial, *sharded,
                       "churn shards=" + std::to_string(shards) +
                           " workers=" + std::to_string(workers));
      // The explicit worker request survives resolution (clamped to the
      // shard count, never to the host's core count).
      EXPECT_EQ(sharded->replay_workers, std::min(workers, shards));
    }
  }
}

TEST(ParallelReplayTest, ByteIdenticalUnderDelayedNets) {
  const char* kSpecs[] = {"batch:7.5", "latency:3:2"};
  for (const char* spec : kSpecs) {
    auto net = ParseNetSpec(spec);
    ASSERT_TRUE(net.ok()) << spec;
    MultiQueryConfig config = OverlapConfig(ProtocolKind::kFtNrp);
    config.net = *net;
    auto serial = RunMultiQuerySystem(config);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (std::size_t shards : {2u, 8u}) {
      const MultiQueryResult sharded = RunShardedDirect(config, shards, 4);
      ExpectSameResult(*serial, sharded,
                       std::string(spec) + " shards=" +
                           std::to_string(shards));
    }
  }
}

TEST(ParallelReplayTest, FaultyNetsForceSerialReplayAndStayIdentical) {
  // Fault stages branch protocol reactions on probe failover results, so
  // the engine must resolve any worker request down to serial replay —
  // and still match the serial engine exactly.
  auto net = ParseNetSpec("latency:2+loss:0.06:2");
  ASSERT_TRUE(net.ok());
  MultiQueryConfig config = OverlapConfig(ProtocolKind::kFtNrp);
  config.net = *net;
  auto serial = RunMultiQuerySystem(config);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (std::size_t shards : {2u, 4u}) {
    MultiQueryConfig sharded_config = config;
    sharded_config.shards = shards;
    sharded_config.replay_workers = 4;
    auto sharded = RunMultiQuerySystem(sharded_config);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ExpectSameResult(*serial, *sharded,
                     "faulty shards=" + std::to_string(shards));
    EXPECT_EQ(sharded->replay_workers, 1u);
    EXPECT_EQ(serial->net.delivered_crossings,
              sharded->net.delivered_crossings);
    EXPECT_EQ(serial->net.deploy_retransmits, sharded->net.deploy_retransmits);
    EXPECT_EQ(serial->net.dropped_loss, sharded->net.dropped_loss);
  }
}

TEST(ParallelReplayTest, PinnedRunsStayByteIdentical) {
  MultiQueryConfig config = OverlapConfig(ProtocolKind::kZtNrp);
  auto serial = RunMultiQuerySystem(config);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  MultiQueryConfig sharded_config = config;
  sharded_config.shards = 4;
  sharded_config.replay_workers = 4;
  sharded_config.pin_threads = true;
  auto pinned = RunMultiQuerySystem(sharded_config);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  ExpectSameResult(*serial, *pinned, "pinned shards=4");
#if defined(__linux__)
  EXPECT_TRUE(pinned->pinned);
#endif
}

TEST(ShardedCoreTest, RejectsCrossShardTraceTimestampTies) {
  // Two records at the same instant on streams of different shards: the
  // sharded merge would order them by stream id while the serial engine
  // replays trace order, so validation must refuse rather than silently
  // break the byte-identical contract.
  TraceData trace;
  trace.num_streams = 4;
  trace.records = {{1.0, 0, 10.0}, {2.0, 1, 20.0}, {2.0, 2, 30.0}};
  MultiQueryConfig config;
  config.source = SourceSpec::Trace(&trace);
  config.duration = 10;
  QueryDeployment dep;
  dep.name = "q0";
  dep.query = QuerySpec::Range(0, 100);
  dep.protocol = ProtocolKind::kZtNrp;
  config.queries.push_back(dep);

  config.shards = 1;
  EXPECT_TRUE(config.Validate().ok());  // serial replay order is exact
  config.shards = 2;
  EXPECT_FALSE(config.Validate().ok());  // streams 1 and 2 tie across shards

  // Same-shard ties keep their trace order in the shard log: fine.
  trace.records = {{1.0, 0, 10.0}, {2.0, 1, 20.0}, {2.0, 3, 30.0}};
  EXPECT_TRUE(config.Validate().ok());  // 1 and 3 are both shard 1 of 2
}

TEST(ShardedCoreTest, RejectsCustomSourceAndZeroShards) {
  MultiQueryConfig config = ProtocolConfig(ProtocolKind::kZtNrp);
  config.shards = 0;
  EXPECT_FALSE(config.Validate().ok());

  RandomWalkStreams custom(RandomWalkConfig{.num_streams = 8});
  MultiQueryConfig custom_config = ProtocolConfig(ProtocolKind::kZtNrp);
  custom_config.source = SourceSpec::Custom(&custom);
  custom_config.shards = 2;
  EXPECT_FALSE(custom_config.Validate().ok());
}

}  // namespace
}  // namespace asf
