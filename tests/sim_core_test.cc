#include "engine/sim_core.h"

#include <gtest/gtest.h>

#include "engine/multi_system.h"
#include "engine/system.h"
#include "result_equality.h"

namespace asf {
namespace {

SystemConfig SingleConfig(ProtocolKind protocol, const QuerySpec& query,
                          double eps, std::size_t rank_r) {
  SystemConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 250;
  walk.seed = 11;
  config.source = SourceSpec::Walk(walk);
  config.query = query;
  config.protocol = protocol;
  config.fraction = {eps, eps};
  config.rank_r = rank_r;
  config.duration = 400;
  config.seed = 11;
  config.oracle.sample_interval = 20;
  return config;
}

/// RunSystem runs the deployment SystemConfig::Deployment() builds. A
/// hand-built deployment of the same query must produce byte-identical
/// per-query accounting, for every protocol family: this pins what
/// Deployment() carries over from the config.
TEST(SimCoreEquivalenceTest, SingleAndMultiAdaptersAgreePerProtocol) {
  struct Case {
    const char* label;
    ProtocolKind protocol;
    QuerySpec query;
    double eps;
    std::size_t rank_r;
  };
  const Case cases[] = {
      {"no-filter", ProtocolKind::kNoFilter, QuerySpec::Range(400, 600), 0, 0},
      {"zt-nrp", ProtocolKind::kZtNrp, QuerySpec::Range(400, 600), 0, 0},
      {"ft-nrp", ProtocolKind::kFtNrp, QuerySpec::Range(400, 600), 0.3, 0},
      {"rtp", ProtocolKind::kRtp, QuerySpec::Knn(5, 500), 0, 3},
      {"zt-rp", ProtocolKind::kZtRp, QuerySpec::Knn(5, 500), 0, 0},
      {"ft-rp", ProtocolKind::kFtRp, QuerySpec::Knn(10, 500), 0.3, 0},
  };

  for (const Case& c : cases) {
    const SystemConfig single_config =
        SingleConfig(c.protocol, c.query, c.eps, c.rank_r);
    auto single = RunSystem(single_config);
    ASSERT_TRUE(single.ok()) << c.label;

    MultiQueryConfig multi_config;
    static_cast<RunOptions&>(multi_config) = single_config;
    QueryDeployment dep;
    dep.name = std::string(ProtocolKindName(c.protocol));
    dep.query = c.query;
    dep.protocol = c.protocol;
    dep.fraction = {c.eps, c.eps};
    dep.rank_r = c.rank_r;
    multi_config.queries.push_back(dep);
    auto multi = RunMultiQuerySystem(multi_config);
    ASSERT_TRUE(multi.ok()) << c.label;
    ASSERT_EQ(multi->queries.size(), 1u);

    // Every field of the per-query record, bit for bit.
    ExpectSameResult(static_cast<const QueryRunStats&>(*single),
                     multi->queries[0], c.label);
    EXPECT_EQ(multi->updates_generated, single->updates_generated) << c.label;
    EXPECT_EQ(multi->physical_updates, single->updates_reported) << c.label;
  }
}

// --- Direct SimulationCore API ---

SimulationCore::Options WalkOptions(std::size_t n = 200,
                                    std::uint64_t seed = 5) {
  SimulationCore::Options options;
  RandomWalkConfig walk;
  walk.num_streams = n;
  walk.seed = seed;
  options.source = SourceSpec::Walk(walk);
  options.duration = 300;
  options.seed = seed;
  return options;
}

QueryDeployment RangeDeployment(double lo, double hi, double eps) {
  QueryDeployment dep;
  dep.query = QuerySpec::Range(lo, hi);
  dep.protocol = eps > 0 ? ProtocolKind::kFtNrp : ProtocolKind::kZtNrp;
  dep.fraction = {eps, eps};
  return dep;
}

TEST(SimCoreTest, SlotIndicesAreSequential) {
  SimulationCore core(WalkOptions());
  EXPECT_EQ(core.AddQuery(RangeDeployment(400, 600, 0)), 0u);
  EXPECT_EQ(core.AddQuery(RangeDeployment(100, 200, 0.2)), 1u);
  EXPECT_EQ(core.num_queries(), 2u);
}

TEST(SimCoreTest, RunAccumulatesPerQueryStats) {
  SimulationCore core(WalkOptions());
  core.AddQuery(RangeDeployment(400, 600, 0));
  core.AddQuery(RangeDeployment(400, 600, 0));  // identical twin
  core.Run();

  const QueryRunStats& a = core.query_stats(0);
  const QueryRunStats& b = core.query_stats(1);
  EXPECT_GT(core.updates_generated(), 0u);
  EXPECT_GT(a.updates_reported, 0u);
  // Identical deployments see identical crossings...
  EXPECT_EQ(a.updates_reported, b.updates_reported);
  EXPECT_EQ(a.messages.MaintenanceTotal(), b.messages.MaintenanceTotal());
  // ...and share every physical update message.
  EXPECT_EQ(core.physical_updates(), a.updates_reported);
  EXPECT_GT(core.wall_seconds(), 0.0);
}

// --- Query lifecycle (deploy/retire mid-run) ---

/// The lifecycle refactor's load-bearing guarantee: a deployment carrying
/// the explicit degenerate window (start = query_start, end = never) is
/// the same run as the default static batch.
TEST(SimCoreLifecycleTest, ExplicitDegenerateWindowEqualsStaticBatch) {
  SimulationCore static_core(WalkOptions());
  static_core.AddQuery(RangeDeployment(400, 600, 0.2));
  static_core.Run();

  SimulationCore explicit_core(WalkOptions());
  QueryDeployment dep = RangeDeployment(400, 600, 0.2);
  dep.start = 0;  // == WalkOptions().query_start
  dep.end = kNeverRetire;
  explicit_core.AddQuery(dep);
  explicit_core.Run();

  EXPECT_EQ(static_core.updates_generated(),
            explicit_core.updates_generated());
  EXPECT_EQ(static_core.physical_updates(), explicit_core.physical_updates());
  ExpectSameResult(static_core.query_stats(0), explicit_core.query_stats(0),
                   "degenerate-window");
}

/// Per-query isolation across the lifecycle: a co-query churning in and
/// out — including the arena compaction its retirement triggers — must not
/// perturb a survivor's results at all. The churning query is registered
/// first so its column is 0 and the survivor's column physically moves.
TEST(SimCoreLifecycleTest, RetiringCoQueryDoesNotPerturbSurvivor) {
  // The survivor sits at different slot indices in the two runs, so its
  // protocol RNG seed differs — harmless here because boundary-nearest
  // FT-NRP never consumes it.
  SimulationCore alone(WalkOptions());
  alone.AddQuery(RangeDeployment(400, 600, 0.2));
  alone.Run();

  SimulationCore shared(WalkOptions());
  QueryDeployment churner = RangeDeployment(100, 300, 0.3);
  churner.name = "churner";
  churner.start = 40;
  churner.end = 170;
  shared.AddQuery(churner);                         // slot 0, column 0
  shared.AddQuery(RangeDeployment(400, 600, 0.2));  // slot 1, column 1
  shared.Run();

  // The survivor's column moved 1 -> 0 when the churner retired; its
  // filter states, messages and answers must be exactly the single-run's.
  ExpectSameResult(alone.query_stats(0), shared.query_stats(1), "survivor");
  EXPECT_EQ(shared.query_stats(0).retired_at, 170.0);
  EXPECT_EQ(shared.query_stats(0).deployed_at, 40.0);
}

/// Satellite regression: an oracle tick landing after a query retires must
/// neither judge the dead query nor crash.
TEST(SimCoreLifecycleTest, OracleTickAfterRetireSkipsDeadQuery) {
  SimulationCore::Options options = WalkOptions();
  options.oracle.sample_interval = 25;  // ticks at 25, 50, ..., 300
  SimulationCore core(options);

  QueryDeployment doomed = RangeDeployment(400, 600, 0.2);
  doomed.name = "doomed";
  doomed.end = 150;
  const std::size_t doomed_slot = core.AddQuery(doomed);
  QueryDeployment survivor = RangeDeployment(300, 500, 0);
  survivor.name = "survivor";
  const std::size_t survivor_slot = core.AddQuery(survivor);
  core.Run();

  const QueryRunStats& dead = core.query_stats(doomed_slot);
  const QueryRunStats& alive = core.query_stats(survivor_slot);
  // Retirements run before same-time ticks, so the doomed query is judged
  // at 25..125 only (5 ticks); the survivor sees all 12.
  EXPECT_EQ(dead.oracle_checks, 5u);
  EXPECT_EQ(alive.oracle_checks, 12u);
  EXPECT_EQ(dead.retired_at, 150.0);
  EXPECT_EQ(alive.retired_at, options.duration);
}

/// Retirement uninstalls the query's filters: one pass-through deploy per
/// stream, charged as maintenance kFilterDeploy — and nothing reaches the
/// protocol afterwards.
TEST(SimCoreLifecycleTest, RetireUninstallsFiltersAndFreezesAccounting) {
  const std::size_t n = 200;
  SimulationCore core(WalkOptions(n));
  QueryDeployment dep;  // kNoFilter: never deploys filters on its own
  dep.query = QuerySpec::Range(400, 600);
  dep.protocol = ProtocolKind::kNoFilter;
  dep.end = 150;
  const std::size_t slot = core.AddQuery(dep);
  // A long-lived companion keeps updates flowing after the retirement.
  core.AddQuery(RangeDeployment(300, 500, 0));
  core.Run();

  const QueryRunStats& stats = core.query_stats(slot);
  // The only kFilterDeploy traffic of a no-filter query is the retirement
  // uninstall: exactly one per stream, in the maintenance phase.
  EXPECT_EQ(stats.messages.count(MessagePhase::kMaintenance,
                                 MessageType::kFilterDeploy),
            n);
  EXPECT_EQ(stats.messages.count(MessagePhase::kInit,
                                 MessageType::kFilterDeploy),
            0u);
  // Its sample stream covers only its live window.
  EXPECT_EQ(stats.answer_size.count(), stats.updates_reported);
  EXPECT_LT(stats.answer_size.count(), core.updates_generated());
  EXPECT_EQ(stats.retired_at, 150.0);
}

/// A dynamic schedule is fully deterministic under a fixed seed.
TEST(SimCoreLifecycleTest, DynamicScheduleIsDeterministic) {
  auto run_once = [](std::vector<QueryRunStats>* stats_out) {
    SimulationCore::Options options = WalkOptions(150, 13);
    options.oracle.sample_interval = 30;
    SimulationCore core(options);
    for (int i = 0; i < 8; ++i) {
      QueryDeployment dep =
          RangeDeployment(100.0 * i, 100.0 * i + 250, i % 2 ? 0.2 : 0.0);
      dep.name = "q";
      dep.name += std::to_string(i);
      dep.start = 10.0 * i;
      if (i % 3 != 0) dep.end = 60.0 + 35.0 * i;
      core.AddQuery(dep);
    }
    core.Run();
    for (std::size_t i = 0; i < core.num_queries(); ++i) {
      stats_out->push_back(core.query_stats(i));
    }
    return std::make_pair(core.updates_generated(), core.physical_updates());
  };
  std::vector<QueryRunStats> first_stats, second_stats;
  const auto first = run_once(&first_stats);
  const auto second = run_once(&second_stats);
  EXPECT_EQ(first, second);
  ASSERT_EQ(first_stats.size(), second_stats.size());
  for (std::size_t i = 0; i < first_stats.size(); ++i) {
    ExpectSameResult(first_stats[i], second_stats[i], "determinism");
  }
}

TEST(SimCoreTest, PerQueryBroadcastModelsCoexist) {
  // The broadcast cost model is per-deployment: the same run can charge
  // one query per-recipient and another per-broadcast.
  SimulationCore core(WalkOptions());
  QueryDeployment per_recipient = RangeDeployment(400, 600, 0);
  QueryDeployment broadcast = RangeDeployment(400, 600, 0);
  broadcast.broadcast = BroadcastCostModel::kSingleMessage;
  core.AddQuery(per_recipient);
  core.AddQuery(broadcast);
  core.Run();

  // ZT-NRP init probes all n streams then deploys to all n: per-recipient
  // that is n requests + n responses + n deploys; under broadcast the
  // request and deploy sides cost one message each.
  const std::uint64_t n = 200;
  EXPECT_EQ(core.query_stats(0).messages.InitTotal(), 3 * n);
  EXPECT_EQ(core.query_stats(1).messages.InitTotal(), n + 2);
}

}  // namespace
}  // namespace asf
