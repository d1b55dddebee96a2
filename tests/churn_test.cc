#include "engine/churn.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "engine/multi_system.h"
#include "engine/query_slot.h"
#include "engine/sim_core.h"
#include "net/network_model.h"

namespace asf {

/// Which of a finished run's slots still hold a runtime: a protocol,
/// server context, protocol RNG, arena column, sequence floor or
/// deployment.
struct SimulationCoreTestPeer {
  struct Census {
    std::size_t live = 0;
    std::size_t retired = 0;
    std::size_t live_with_runtime = 0;
    std::size_t live_with_seq_floor = 0;
    std::size_t retired_with_runtime = 0;
  };

  static Census Take(const SimulationCore& core) {
    Census census;
    for (const auto& slot : core.slots_) {
      const bool runtime = slot->protocol || slot->ctx || slot->rng ||
                           slot->column != FilterArena::kNoColumn ||
                           slot->update_seq_floor.capacity() > 0 ||
                           !slot->deployment.name.empty();
      if (slot->live) {
        ++census.live;
        census.live_with_runtime += runtime;
        census.live_with_seq_floor += !slot->update_seq_floor.empty();
      } else {
        ++census.retired;
        census.retired_with_runtime += runtime;
      }
    }
    return census;
  }
};

namespace {

ChurnSpec BaseSpec() {
  ChurnSpec spec;
  spec.arrival_rate = 0.2;
  spec.mean_lifetime = 150;
  spec.seed = 42;
  return spec;
}

TEST(ChurnSpecTest, ValidationRejectsBadParameters) {
  ChurnSpec spec = BaseSpec();
  spec.arrival_rate = 0;
  EXPECT_FALSE(spec.Validate().ok());

  spec = BaseSpec();
  spec.mean_lifetime = -1;
  EXPECT_FALSE(spec.Validate().ok());

  spec = BaseSpec();
  spec.window_start = 10;
  EXPECT_TRUE(spec.Validate().ok());
  spec.window_start = -1;
  EXPECT_FALSE(spec.Validate().ok());

  spec = BaseSpec();
  ChurnMixEntry negative;
  negative.weight = -1;
  spec.mix.push_back(negative);
  EXPECT_FALSE(spec.Validate().ok());
}

TEST(ChurnSpecTest, RejectsNonFiniteParameters) {
  // NaN/inf pass the ordinary range checks (NaN compares false to
  // everything) and would spin the expansion loop forever.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    ChurnSpec spec = BaseSpec();
    spec.arrival_rate = bad;
    EXPECT_FALSE(spec.Validate().ok());

    spec = BaseSpec();
    spec.mean_lifetime = bad;
    EXPECT_FALSE(spec.Validate().ok());

    spec = BaseSpec();
    spec.window_start = bad;
    EXPECT_FALSE(spec.Validate().ok());
  }
  ChurnSpec spec = BaseSpec();
  ChurnMixEntry nan_weight;
  nan_weight.weight = std::numeric_limits<double>::quiet_NaN();
  spec.mix.push_back(nan_weight);
  EXPECT_FALSE(spec.Validate().ok());

  // The run horizon bounds the arrival loop the same way.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_FALSE(ExpandChurn(BaseSpec(), bad).ok()) << bad;
  }
}

TEST(ChurnExpansionTest, DeterministicUnderSeed) {
  const auto a = ExpandChurn(BaseSpec(), 2000);
  const auto b = ExpandChurn(BaseSpec(), 2000);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_FALSE(a->empty());
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].name, (*b)[i].name);
    EXPECT_EQ((*a)[i].start, (*b)[i].start);
    EXPECT_EQ((*a)[i].end, (*b)[i].end);
    EXPECT_EQ((*a)[i].query.range_lo, (*b)[i].query.range_lo);
    EXPECT_EQ((*a)[i].query.range_hi, (*b)[i].query.range_hi);
  }

  ChurnSpec other = BaseSpec();
  other.seed = 43;
  const auto c = ExpandChurn(other, 2000);
  ASSERT_TRUE(c.ok());
  bool any_difference = c->size() != a->size();
  for (std::size_t i = 0; !any_difference && i < a->size(); ++i) {
    any_difference = (*a)[i].start != (*c)[i].start;
  }
  EXPECT_TRUE(any_difference);
}

TEST(ChurnExpansionTest, SchedulesRespectWindowAndLifetimes) {
  ChurnSpec spec = BaseSpec();
  spec.window_start = 100;
  const SimTime duration = 1000;
  const auto deployments = ExpandChurn(spec, duration);
  ASSERT_TRUE(deployments.ok());
  ASSERT_FALSE(deployments->empty());
  SimTime previous = 0;
  for (const QueryDeployment& dep : *deployments) {
    EXPECT_GE(dep.start, spec.window_start);
    EXPECT_LT(dep.start, duration);
    EXPECT_GE(dep.start, previous);  // arrival order
    previous = dep.start;
    if (dep.end != kNeverRetire) {
      EXPECT_GT(dep.end, dep.start);
      EXPECT_LT(dep.end, duration);
    }
    EXPECT_FALSE(dep.name.empty());
  }
}

TEST(ChurnExpansionTest, RankMixPreservesFlavorAndAsymmetricTolerance) {
  ChurnSpec spec = BaseSpec();
  ChurnMixEntry entry;
  entry.deployment.protocol = ProtocolKind::kFtRp;
  entry.deployment.query = QuerySpec::TopK(20);  // top-k, not k-NN
  entry.deployment.fraction = {0.1, 0.4};
  spec.mix.push_back(entry);
  const auto deployments = ExpandChurn(spec, 2000);
  ASSERT_TRUE(deployments.ok());
  ASSERT_FALSE(deployments->empty());
  for (const QueryDeployment& dep : *deployments) {
    EXPECT_EQ(dep.query.type, QuerySpec::Type::kRank);
    EXPECT_EQ(dep.query.rank_kind, RankKind::kMax);
    EXPECT_EQ(dep.query.k, 20u);
    EXPECT_EQ(dep.fraction.eps_plus, 0.1);
    EXPECT_EQ(dep.fraction.eps_minus, 0.4);
  }
}

TEST(ChurnExpansionTest, RejectsRankQueryWithRangeProtocol) {
  ChurnSpec spec = BaseSpec();
  ChurnMixEntry entry;
  entry.deployment.protocol = ProtocolKind::kFtNrp;  // range protocol
  entry.deployment.query.type = QuerySpec::Type::kRank;
  spec.mix.push_back(entry);
  EXPECT_FALSE(ExpandChurn(spec, 2000).ok());

  // ...and symmetrically, a range query with a rank-only protocol.
  ChurnSpec spec2 = BaseSpec();
  ChurnMixEntry entry2;
  entry2.deployment.protocol = ProtocolKind::kRtp;
  entry2.deployment.query.type = QuerySpec::Type::kRange;
  spec2.mix.push_back(entry2);
  EXPECT_FALSE(ExpandChurn(spec2, 2000).ok());
}

TEST(ChurnSpecTest, MixPairingIsValidatedRegardlessOfDraws) {
  // An invalid entry must fail validation even when its weight makes it
  // (nearly) never drawn — rejection cannot depend on the seed.
  ChurnSpec spec = BaseSpec();
  spec.mix.push_back(ChurnMixEntry{});  // valid range/FT-NRP, weight 1
  ChurnMixEntry bad;
  bad.weight = 1e-12;
  bad.deployment.protocol = ProtocolKind::kZtNrp;
  bad.deployment.query.type = QuerySpec::Type::kRank;
  spec.mix.push_back(bad);
  EXPECT_FALSE(spec.Validate().ok());
  EXPECT_FALSE(ExpandChurn(spec, 2000).ok());
}

TEST(ChurnExpansionTest, FixedShapeEntryPinsEveryArrival) {
  ChurnSpec spec = BaseSpec();
  ChurnMixEntry entry;
  entry.deployment.protocol = ProtocolKind::kFtNrp;
  entry.deployment.query = QuerySpec::Range(123, 456);
  entry.fixed_shape = true;
  spec.mix.push_back(entry);
  const auto deployments = ExpandChurn(spec, 2000);
  ASSERT_TRUE(deployments.ok());
  ASSERT_FALSE(deployments->empty());
  for (const QueryDeployment& dep : *deployments) {
    EXPECT_EQ(dep.query.type, QuerySpec::Type::kRange);
    EXPECT_EQ(dep.query.range_lo, 123.0);
    EXPECT_EQ(dep.query.range_hi, 456.0);
  }
}

TEST(ChurnExpansionTest, MaxQueriesCapsArrivals) {
  ChurnSpec spec = BaseSpec();
  spec.arrival_rate = 1.0;
  spec.max_queries = 7;
  const auto deployments = ExpandChurn(spec, 5000);
  ASSERT_TRUE(deployments.ok());
  EXPECT_EQ(deployments->size(), 7u);
}

/// About 10^10 expected arrivals (`asf_run --churn --churn-rate=1e7
/// --duration=1000`) fail by the limit before any is drawn, uncapped or
/// under a cap past the limit; a cap inside the limit still truncates.
TEST(ChurnExpansionTest, ArrivalsPastTheLimitFailBeforeDrawing) {
  ChurnSpec spec = BaseSpec();
  spec.arrival_rate = 1e7;
  for (const std::size_t cap : {std::size_t{0}, kMaxChurnArrivals + 1}) {
    spec.max_queries = cap;
    const auto deployments = ExpandChurn(spec, 1000);
    ASSERT_FALSE(deployments.ok()) << "cap " << cap;
    EXPECT_EQ(deployments.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(deployments.status().message().find(
                  std::to_string(kMaxChurnArrivals)),
              std::string::npos)
        << deployments.status().ToString();
  }
  spec.max_queries = 5;
  const auto capped = ExpandChurn(spec, 1000);
  ASSERT_TRUE(capped.ok()) << capped.status().ToString();
  EXPECT_EQ(capped->size(), 5u);
  // The limit bounds the expected count, not the rate: the same rate over
  // a window of 10^-5 expects about 100 arrivals.
  spec.max_queries = 0;
  spec.window_start = 1000 - 1e-5;
  const auto short_window = ExpandChurn(spec, 1000);
  ASSERT_TRUE(short_window.ok()) << short_window.status().ToString();
  EXPECT_GT(short_window->size(), 0u);
}

TEST(ChurnExpansionTest, ExpandedScheduleValidatesAndRuns) {
  ChurnSpec spec = BaseSpec();
  spec.arrival_rate = 0.1;
  spec.mean_lifetime = 120;
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 120;
  walk.seed = 3;
  config.source = SourceSpec::Walk(walk);
  config.duration = 600;
  config.seed = 3;
  auto deployments = ExpandChurn(spec, config.duration);
  ASSERT_TRUE(deployments.ok());
  ASSERT_FALSE(deployments->empty());
  config.queries = std::move(deployments).value();
  ASSERT_TRUE(config.Validate().ok());

  auto result = RunMultiQuerySystem(config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->queries.size(), config.queries.size());
  EXPECT_EQ(result->peak_live_queries,
            PeakConcurrency(config.queries, config.query_start,
                            config.duration));
  for (std::size_t i = 0; i < config.queries.size(); ++i) {
    const QueryRunStats& q = result->queries[i];
    EXPECT_EQ(q.deployed_at, config.queries[i].start);
    if (config.queries[i].end != kNeverRetire) {
      EXPECT_EQ(q.retired_at, config.queries[i].end);
    } else {
      EXPECT_EQ(q.retired_at, config.duration);
    }
  }
}

/// A retired query keeps only its closed record, spilling or not: its
/// retirement frees the runtime its deployment built. A reordering net
/// makes the queries grow sequence floors, which must go too.
TEST(ChurnRuntimeTest, RetiredSlotsHoldNoRuntime) {
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 200;
  walk.seed = 7;
  config.source = SourceSpec::Walk(walk);
  config.duration = 800;
  config.seed = 7;
  config.net = ParseNetSpec("latency:2+reorder:2").value();
  ChurnSpec spec = BaseSpec();
  spec.mean_lifetime = 100;
  auto deployments = ExpandChurn(spec, config.duration);
  ASSERT_TRUE(deployments.ok());
  config.queries = std::move(deployments).value();
  ASSERT_TRUE(config.Validate().ok());

  SimulationCore core(config);
  for (const QueryDeployment& dep : config.queries) core.AddQuery(dep);
  core.Run();
  const SimulationCoreTestPeer::Census census =
      SimulationCoreTestPeer::Take(core);
  EXPECT_GT(census.retired, 10u);
  EXPECT_GT(census.live, 0u);
  EXPECT_EQ(census.live_with_runtime, census.live);
  EXPECT_GT(census.live_with_seq_floor, 0u);
  EXPECT_EQ(census.retired_with_runtime, 0u);
}

TEST(ChurnPeakConcurrencyTest, CountsOverlapsWithDeployBeforeRetire) {
  std::vector<QueryDeployment> deployments(3);
  deployments[0].start = 0;
  deployments[0].end = 10;
  deployments[1].start = 5;
  deployments[1].end = 20;
  // Back-to-back at t=10: the new deploy counts before the retirement, so
  // the instantaneous population peaks at 3 — matching the engine's
  // deploys-before-retirements event order.
  deployments[2].start = 10;
  deployments[2].end = kNeverRetire;
  EXPECT_EQ(PeakConcurrency(deployments, 0, 100), 3u);
}

}  // namespace
}  // namespace asf
