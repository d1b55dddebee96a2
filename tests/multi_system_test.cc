#include "engine/multi_system.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "engine/system.h"
#include "result_equality.h"
#include "trace/tcp_synth.h"

namespace asf {
namespace {

MultiQueryConfig BaseConfig(std::uint64_t seed = 7) {
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 300;
  walk.seed = seed;
  config.source = SourceSpec::Walk(walk);
  config.duration = 600;
  config.seed = seed;
  return config;
}

QueryDeployment RangeDep(std::string name, double lo, double hi, double eps) {
  QueryDeployment dep;
  dep.name = std::move(name);
  dep.query = QuerySpec::Range(lo, hi);
  dep.protocol = eps > 0 ? ProtocolKind::kFtNrp : ProtocolKind::kZtNrp;
  dep.fraction = {eps, eps};
  return dep;
}

QueryDeployment RtpDep(std::string name, std::size_t k, std::size_t r,
                       double q) {
  QueryDeployment dep;
  dep.name = std::move(name);
  dep.query = QuerySpec::Knn(k, q);
  dep.protocol = ProtocolKind::kRtp;
  dep.rank_r = r;
  return dep;
}

// --- Validation ---

TEST(MultiQueryConfigTest, RejectsEmptyQueryList) {
  MultiQueryConfig config = BaseConfig();
  EXPECT_FALSE(RunMultiQuerySystem(config).ok());
}

TEST(MultiQueryConfigTest, RejectsDuplicateNames) {
  MultiQueryConfig config = BaseConfig();
  config.queries.push_back(RangeDep("q", 400, 600, 0));
  config.queries.push_back(RangeDep("q", 100, 200, 0));
  EXPECT_FALSE(RunMultiQuerySystem(config).ok());
}

TEST(MultiQueryConfigTest, RejectsUnnamedQuery) {
  MultiQueryConfig config = BaseConfig();
  config.queries.push_back(RangeDep("", 400, 600, 0));
  EXPECT_FALSE(RunMultiQuerySystem(config).ok());
}

TEST(MultiQueryConfigTest, RejectsMismatchedProtocol) {
  MultiQueryConfig config = BaseConfig();
  QueryDeployment bad = RtpDep("knn", 5, 2, 500);
  bad.protocol = ProtocolKind::kFtNrp;  // range protocol, rank query
  config.queries.push_back(bad);
  EXPECT_FALSE(RunMultiQuerySystem(config).ok());
}

TEST(MultiQueryConfigTest, RejectsLifecycleWindowOutsideRun) {
  MultiQueryConfig config = BaseConfig();
  QueryDeployment late = RangeDep("late", 400, 600, 0);
  late.start = config.duration;  // deploy at/after the horizon
  config.queries.push_back(late);
  EXPECT_FALSE(RunMultiQuerySystem(config).ok());
}

TEST(MultiQueryConfigTest, RejectsEmptyLiveWindow) {
  MultiQueryConfig config = BaseConfig();
  QueryDeployment backwards = RangeDep("backwards", 400, 600, 0);
  backwards.start = 100;
  backwards.end = 100;  // retires the instant it deploys
  config.queries.push_back(backwards);
  EXPECT_FALSE(RunMultiQuerySystem(config).ok());

  // A default start resolves to query_start; an end before that is just
  // as empty.
  MultiQueryConfig config2 = BaseConfig();
  config2.query_start = 50;
  QueryDeployment gone = RangeDep("gone", 400, 600, 0);
  gone.end = 10;
  config2.queries.push_back(gone);
  EXPECT_FALSE(RunMultiQuerySystem(config2).ok());
}

TEST(MultiQueryConfigTest, AcceptsEndBeyondHorizon) {
  MultiQueryConfig config = BaseConfig();
  QueryDeployment open = RangeDep("open", 400, 600, 0);
  open.start = 100;
  open.end = config.duration * 10;  // never retires in practice
  config.queries.push_back(open);
  auto result = RunMultiQuerySystem(config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->queries[0].deployed_at, 100.0);
  EXPECT_EQ(result->queries[0].retired_at, config.duration);
}

TEST(MultiQueryConfigTest, RejectsNanLifecycleTimes) {
  MultiQueryConfig config = BaseConfig();
  QueryDeployment bad = RangeDep("nan-end", 400, 600, 0);
  bad.end = std::numeric_limits<double>::quiet_NaN();
  config.queries.push_back(bad);
  EXPECT_FALSE(RunMultiQuerySystem(config).ok());

  MultiQueryConfig config2 = BaseConfig();
  QueryDeployment bad2 = RangeDep("nan-start", 400, 600, 0);
  bad2.start = std::numeric_limits<double>::quiet_NaN();
  config2.queries.push_back(bad2);
  EXPECT_FALSE(RunMultiQuerySystem(config2).ok());
}

/// No message-cost cliff at the horizon: a query whose end coincides with
/// the run's end is the same observable run as one that never retires —
/// in particular it is NOT charged an uninstall broadcast at the instant
/// the simulation stops.
TEST(MultiSystemTest, EndAtHorizonCostsTheSameAsNeverRetiring) {
  MultiQueryConfig at_horizon = BaseConfig();
  QueryDeployment dep = RangeDep("q", 400, 600, 0);
  dep.end = at_horizon.duration;
  at_horizon.queries.push_back(dep);
  auto a = RunMultiQuerySystem(at_horizon);
  ASSERT_TRUE(a.ok());

  MultiQueryConfig never = BaseConfig();
  never.queries.push_back(RangeDep("q", 400, 600, 0));
  auto b = RunMultiQuerySystem(never);
  ASSERT_TRUE(b.ok());

  EXPECT_EQ(a->queries[0].messages.MaintenanceTotal(),
            b->queries[0].messages.MaintenanceTotal());
  EXPECT_EQ(a->queries[0].retired_at, b->queries[0].retired_at);
  EXPECT_EQ(a->updates_generated, b->updates_generated);
}

// --- Behaviour ---

TEST(MultiSystemTest, SingleQueryMatchesSingleSystem) {
  // A multi-query run with one query must reproduce RunSystem exactly.
  MultiQueryConfig multi = BaseConfig();
  multi.queries.push_back(RangeDep("range", 400, 600, 0.3));
  auto multi_result = RunMultiQuerySystem(multi);
  ASSERT_TRUE(multi_result.ok());

  SystemConfig single;
  single.source = multi.source;
  single.query = QuerySpec::Range(400, 600);
  single.protocol = ProtocolKind::kFtNrp;
  single.fraction = {0.3, 0.3};
  single.duration = multi.duration;
  single.seed = multi.seed;
  auto single_result = RunSystem(single);
  ASSERT_TRUE(single_result.ok());

  ASSERT_EQ(multi_result->queries.size(), 1u);
  EXPECT_EQ(multi_result->queries[0].messages.MaintenanceTotal(),
            single_result->messages.MaintenanceTotal());
  EXPECT_EQ(multi_result->queries[0].updates_reported,
            single_result->updates_reported);
  EXPECT_EQ(multi_result->physical_updates, single_result->updates_reported);
}

TEST(MultiSystemTest, SharedUpdatesSaveMessages) {
  // Two heavily overlapping range queries: most crossings violate both
  // filters, so physical updates ~ half the logical ones.
  MultiQueryConfig config = BaseConfig();
  config.queries.push_back(RangeDep("a", 400, 600, 0));
  config.queries.push_back(RangeDep("b", 400, 600, 0));  // identical range
  auto result = RunMultiQuerySystem(config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->queries[0].updates_reported,
            result->queries[1].updates_reported);
  EXPECT_EQ(result->physical_updates, result->queries[0].updates_reported);
  EXPECT_EQ(result->LogicalUpdates(), 2 * result->physical_updates);
  EXPECT_LT(result->PhysicalMaintenanceTotal(),
            result->LogicalMaintenanceTotal());
}

TEST(MultiSystemTest, DisjointQueriesShareLittle) {
  MultiQueryConfig config = BaseConfig();
  config.queries.push_back(RangeDep("low", 100, 200, 0));
  config.queries.push_back(RangeDep("high", 800, 900, 0));
  auto result = RunMultiQuerySystem(config);
  ASSERT_TRUE(result.ok());
  // A crossing of [100,200] is never simultaneously a crossing of
  // [800,900] (one value change can't cross both disjoint ranges from a
  // single previous value... it can cross one boundary of each with a big
  // jump, so allow a small overlap).
  const std::uint64_t logical = result->LogicalUpdates();
  EXPECT_GE(logical, result->physical_updates);
  EXPECT_LT(logical - result->physical_updates, logical / 10);
}

TEST(MultiSystemTest, MixedClassesRunTogether) {
  MultiQueryConfig config = BaseConfig();
  config.oracle.check_every_update = true;
  config.queries.push_back(RangeDep("range", 400, 600, 0.3));
  config.queries.push_back(RtpDep("knn", 5, 3, 500));
  QueryDeployment ftrp;
  ftrp.name = "ftrp";
  ftrp.query = QuerySpec::Knn(10, 250);
  ftrp.protocol = ProtocolKind::kFtRp;
  ftrp.fraction = {0.3, 0.3};
  config.queries.push_back(ftrp);

  auto result = RunMultiQuerySystem(config);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->queries.size(), 3u);
  for (const auto& q : result->queries) {
    EXPECT_GT(q.oracle_checks, 0u) << q.name;
    EXPECT_EQ(q.oracle_violations, 0u) << q.name;
  }
  // RTP's answers always have exactly k members.
  EXPECT_DOUBLE_EQ(result->queries[1].answer_size.min(), 5.0);
  EXPECT_DOUBLE_EQ(result->queries[1].answer_size.max(), 5.0);
}

TEST(MultiSystemTest, PerQueryIsolationOfFilters) {
  // A probe or deploy from one query's protocol must not disturb another
  // query's filter reference state: run an aggressive re-initializer
  // (ZT-RP) next to a quiet range query and check the range query still
  // sees exactly its own crossings.
  MultiQueryConfig config = BaseConfig();
  config.oracle.check_every_update = true;
  config.queries.push_back(RangeDep("range", 400, 600, 0));
  QueryDeployment ztrp;
  ztrp.name = "ztrp";
  ztrp.query = QuerySpec::Knn(5, 500);
  ztrp.protocol = ProtocolKind::kZtRp;
  config.queries.push_back(ztrp);
  auto result = RunMultiQuerySystem(config);
  ASSERT_TRUE(result.ok());
  for (const auto& q : result->queries) {
    EXPECT_EQ(q.oracle_violations, 0u) << q.name;
  }
}

TEST(MultiSystemTest, Deterministic) {
  MultiQueryConfig config = BaseConfig();
  config.queries.push_back(RangeDep("a", 300, 500, 0.2));
  config.queries.push_back(RtpDep("b", 8, 4, 700));
  auto x = RunMultiQuerySystem(config);
  auto y = RunMultiQuerySystem(config);
  ASSERT_TRUE(x.ok());
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(x->physical_updates, y->physical_updates);
  EXPECT_EQ(x->LogicalMaintenanceTotal(), y->LogicalMaintenanceTotal());
}

TEST(MultiSystemTest, RunsOnTraceSource) {
  TcpSynthConfig synth;
  synth.num_subnets = 80;
  synth.total_connections = 4000;
  synth.duration = 800;
  auto trace = GenerateTcpTrace(synth);
  ASSERT_TRUE(trace.ok());

  MultiQueryConfig config;
  config.source = SourceSpec::Trace(&trace.value());
  config.duration = 800;
  config.oracle.sample_interval = 40;
  config.queries.push_back(RangeDep("band", 400, 600, 0.3));
  QueryDeployment topk;
  topk.name = "top5";
  topk.query = QuerySpec::TopK(5);
  topk.protocol = ProtocolKind::kRtp;
  topk.rank_r = 3;
  config.queries.push_back(topk);

  auto result = RunMultiQuerySystem(config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->updates_generated, 4000u);
  for (const auto& q : result->queries) {
    EXPECT_EQ(q.oracle_violations, 0u) << q.name;
    EXPECT_GT(q.oracle_checks, 0u) << q.name;
  }
}

TEST(MultiSystemTest, TenQueriesScale) {
  MultiQueryConfig config = BaseConfig();
  for (int i = 0; i < 10; ++i) {
    config.queries.push_back(
        RangeDep("q" + std::to_string(i), 100.0 * i, 100.0 * i + 150, 0.2));
  }
  auto result = RunMultiQuerySystem(config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->queries.size(), 10u);
  EXPECT_GT(result->physical_updates, 0u);
  EXPECT_LE(result->physical_updates, result->LogicalUpdates());
  EXPECT_LE(result->physical_updates, result->updates_generated);
}

TEST(MultiSystemTest, DispatchPoliciesAgreeAcrossAutoCrossover) {
  // 400 overlapping FT-NRP ranges (ε = 0.2) over 100 walks. 200 are live
  // from the start; a wave of 120 arrives and 80 of it retire again, then
  // a second wave of 80 arrives. The live population climbs past auto's
  // 256-column crossover, falls back below it and climbs again, so the
  // second index stretch starts from snapshots whose fingers the scan
  // stretch left behind. Arrivals, retirements and Fix_Error redeploys
  // keep dirtying the index overlay throughout. Scan, index and auto must
  // agree field by field.
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 100;
  walk.seed = 19;
  config.source = SourceSpec::Walk(walk);
  config.duration = 1500;
  config.seed = 19;
  config.oracle.sample_interval = 150;
  for (int i = 0; i < 400; ++i) {
    const double lo = 100.0 + 1.2 * i;
    QueryDeployment dep =
        RangeDep("q" + std::to_string(i), lo, lo + 300.0, 0.2);
    if (i >= 320) {
      dep.start = 1000.0 + 2.0 * (i - 320);
    } else if (i >= 200) {
      dep.start = 100.0 + 2.0 * (i - 200);
      if (i % 3 != 0) dep.end = 600.0 + 2.0 * (i - 200);
    }
    config.queries.push_back(dep);
  }

  config.dispatch = DispatchPolicy::kScan;
  auto scan = RunMultiQuerySystem(config);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->peak_live_queries, 320u);  // 200 + 120, then 240 + 80
  std::uint64_t maintenance_probes = 0;
  for (const auto& q : scan->queries) {
    EXPECT_EQ(q.oracle_violations, 0u) << q.name;
    maintenance_probes += q.messages.count(MessagePhase::kMaintenance,
                                           MessageType::kProbeRequest);
  }
  EXPECT_GT(maintenance_probes, 0u);  // Fix_Error ran and redeployed

  for (const DispatchPolicy policy :
       {DispatchPolicy::kIndex, DispatchPolicy::kAuto}) {
    config.dispatch = policy;
    auto run = RunMultiQuerySystem(config);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ExpectSameResult(*scan, *run,
                     "dispatch=" + std::string(DispatchPolicyName(policy)));
    if (run->dispatch_policy == DispatchPolicy::kAuto) {
      // Unless ASF_DISPATCH overrides auto, both paths served updates.
      EXPECT_GT(run->dispatch.scan_dispatches, 0u);
      EXPECT_GT(run->dispatch.index_dispatches, 0u);
    }
    if (policy == DispatchPolicy::kIndex) {
      EXPECT_GT(run->dispatch.index_rebuilds, 0u);
      EXPECT_LT(run->dispatch.index_rebuilds, run->dispatch.index_dispatches);
    }
  }
}

}  // namespace
}  // namespace asf
