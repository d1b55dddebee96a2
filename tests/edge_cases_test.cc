#include <gtest/gtest.h>

#include "engine/multi_system.h"
#include "engine/system.h"
#include "protocol/ft_nrp.h"
#include "protocol/zt_rp.h"
#include "sim/scheduler.h"
#include "test_harness.h"
#include "tolerance/oracle.h"

/// \file
/// Cross-module edge cases that none of the per-module suites pin down.

namespace asf {
namespace {

// --- Scheduler corner cases ---

TEST(SchedulerEdgeTest, CancelFromInsideCallback) {
  Scheduler s;
  int ran = 0;
  EventId victim = 0;
  s.ScheduleAt(1.0, [&] { s.Cancel(victim); });
  victim = s.ScheduleAt(2.0, [&] { ++ran; });
  s.ScheduleAt(3.0, [&] { ++ran; });
  s.RunUntil(3.0);
  EXPECT_EQ(ran, 1);  // only the t=3 event survives
}

TEST(SchedulerEdgeTest, EventExactlyAtHorizonRuns) {
  Scheduler s;
  int ran = 0;
  s.ScheduleAt(10.0, [&] { ++ran; });
  s.RunUntil(10.0);  // inclusive boundary
  EXPECT_EQ(ran, 1);
}

TEST(SchedulerEdgeTest, ManySameTimeEventsKeepFifoUnderChurn) {
  Scheduler s;
  std::vector<int> order;
  // Interleave scheduling from inside callbacks at the same timestamp.
  s.ScheduleAt(1.0, [&] {
    order.push_back(0);
    s.ScheduleAt(1.0, [&] { order.push_back(2); });
  });
  s.ScheduleAt(1.0, [&] { order.push_back(1); });
  s.RunUntil(1.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// --- Numerical stability ---

TEST(StatsEdgeTest, WelfordStableWithLargeOffset) {
  // Naive sum-of-squares variance catastrophically cancels here.
  OnlineStats stats;
  const double offset = 1e9;
  for (double x : {4.0, 7.0, 13.0, 16.0}) stats.Add(offset + x);
  EXPECT_NEAR(stats.mean(), offset + 10.0, 1e-3);
  EXPECT_NEAR(stats.variance(), 30.0, 1e-3);
}

// --- Oracle degenerate answers ---

TEST(OracleEdgeTest, EmptyAnswerWithSatisfiersIsTotalMiss) {
  const std::vector<Value> truth{450, 500};
  const auto check =
      Oracle::CheckRangeFraction(truth, RangeQuery(400, 600), AnswerSet{},
                                 FractionTolerance{0.5, 0.5});
  EXPECT_DOUBLE_EQ(check.f_minus, 1.0);
  EXPECT_FALSE(check.ok);
}

TEST(OracleEdgeTest, RankFractionWithEmptyAnswer) {
  const std::vector<Value> truth{1, 2, 3};
  const auto check = Oracle::CheckRankFraction(
      truth, RankQuery::TopK(2), AnswerSet{}, FractionTolerance{0.5, 0.5});
  EXPECT_DOUBLE_EQ(check.f_minus, 1.0);
  EXPECT_EQ(check.f_plus, 0.0);
  EXPECT_FALSE(check.ok);
}

// --- FT-NRP asymmetric budgets ---

TEST(FtNrpEdgeTest, OnlyFalseNegativeBudget) {
  // eps+ = 0 funds no FP filters; eps- = 0.5 funds FN filters. Fix_Error
  // must go straight to step 2.
  TestSystem sys({410, 450, 500, 550, 590, 130, 390, 610, 810, 900});
  FtOptions opts;
  FtNrp proto(sys.ctx(), RangeQuery(400, 600), FractionTolerance{0.0, 0.5},
              opts, nullptr);
  sys.Initialize(&proto);
  EXPECT_EQ(proto.core().n_plus(), 0u);
  // n- = floor(5 * 0.5 * 1.0 / 0.5) = 5, clamped to the 5 outsiders.
  EXPECT_EQ(proto.core().n_minus(), 5u);
  // A removal at count==0 consults an FN stream directly.
  sys.SetValue(&proto, 2, 700);
  EXPECT_EQ(proto.core().fix_error_runs(), 1u);
  EXPECT_EQ(proto.core().n_minus(), 4u);
  const auto check = Oracle::CheckRangeFraction(
      sys.values(), RangeQuery(400, 600), proto.answer(),
      FractionTolerance{0.0, 0.5});
  EXPECT_TRUE(check.ok);
}

TEST(FtNrpEdgeTest, OnlyFalsePositiveBudget) {
  TestSystem sys({410, 450, 500, 550, 590, 130, 390, 610, 810, 900});
  FtOptions opts;
  FtNrp proto(sys.ctx(), RangeQuery(400, 600), FractionTolerance{0.5, 0.0},
              opts, nullptr);
  sys.Initialize(&proto);
  EXPECT_EQ(proto.core().n_plus(), 2u);  // floor(5*0.5)
  EXPECT_EQ(proto.core().n_minus(), 0u);
  sys.SetValue(&proto, 2, 700);
  const auto check = Oracle::CheckRangeFraction(
      sys.values(), RangeQuery(400, 600), proto.answer(),
      FractionTolerance{0.5, 0.0});
  EXPECT_TRUE(check.ok) << "F+=" << check.f_plus << " F-=" << check.f_minus;
}

TEST(FtNrpEdgeTest, EmptyInitialAnswerDegeneratesGracefully) {
  TestSystem sys({100, 200, 900});
  FtNrp proto(sys.ctx(), RangeQuery(400, 600), FractionTolerance{0.5, 0.5},
              FtOptions{}, nullptr);
  sys.Initialize(&proto);
  EXPECT_TRUE(proto.answer().empty());
  EXPECT_TRUE(proto.core().Exhausted());  // |A|=0 funds nothing
  // Streams can still enter and leave correctly.
  sys.SetValue(&proto, 0, 500);
  EXPECT_TRUE(proto.answer().Contains(0));
}

// --- ZT-RP with k = 1 ---

TEST(ZtRpEdgeTest, SingleNearestNeighbor) {
  TestSystem sys({495, 520, 700});
  const RankQuery query = RankQuery::NearestNeighbors(1, 500);
  ZtRp proto(sys.ctx(), query);
  sys.Initialize(&proto);
  EXPECT_EQ(proto.answer().ToSortedVector(), (std::vector<StreamId>{0}));
  // Bound halfway between d=5 and d=20: [487.5, 512.5].
  EXPECT_EQ(proto.bound(), Interval(487.5, 512.5));
  sys.SetValue(&proto, 1, 501);  // new nearest enters
  EXPECT_EQ(proto.answer().ToSortedVector(), (std::vector<StreamId>{1}));
}

// --- Engine timing edges ---

TEST(EngineEdgeTest, QueryStartJustBeforeEndStillInitializes) {
  SystemConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 50;
  config.source = SourceSpec::Walk(walk);
  config.query = QuerySpec::Range(400, 600);
  config.protocol = ProtocolKind::kZtNrp;
  config.duration = 100;
  config.query_start = 99.9;
  auto result = RunSystem(config);
  ASSERT_TRUE(result.ok());
  // Initialization always happens (probe-all + deploy-all).
  EXPECT_EQ(result->messages.InitTotal(), 150u);
  EXPECT_LE(result->updates_generated, 5u);  // barely any live time
}

TEST(EngineEdgeTest, ZeroUpdateRunIsClean) {
  // A trace with no records: initialization only, no maintenance at all.
  const TraceData trace =
      TraceData::Make(10, {450, 450, 450, 450, 450, 700, 700, 700, 700, 700},
                      {})
          .value();
  SystemConfig config;
  config.source = SourceSpec::Trace(&trace);
  config.query = QuerySpec::Range(400, 600);
  config.protocol = ProtocolKind::kFtNrp;
  config.fraction = {0.4, 0.4};
  config.duration = 100;
  config.oracle.sample_interval = 10;
  auto result = RunSystem(config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->updates_generated, 0u);
  EXPECT_EQ(result->MaintenanceMessages(), 0u);
  EXPECT_EQ(result->oracle_violations, 0u);
  EXPECT_GT(result->oracle_checks, 5u);
}

// --- Multi-query accounting identity ---

TEST(MultiQueryEdgeTest, PhysicalAccountingIdentity) {
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 200;
  walk.seed = 97;
  config.source = SourceSpec::Walk(walk);
  config.duration = 400;
  for (int i = 0; i < 3; ++i) {
    QueryDeployment dep;
    dep.name = "q";
    dep.name += std::to_string(i);
    dep.query = QuerySpec::Range(300 + 50 * i, 600 + 50 * i);
    dep.protocol = ProtocolKind::kFtNrp;
    dep.fraction = {0.3, 0.3};
    config.queries.push_back(dep);
  }
  auto result = RunMultiQuerySystem(config);
  ASSERT_TRUE(result.ok());
  // physical total == physical updates + per-query non-update traffic.
  std::uint64_t non_update = 0;
  for (const auto& q : result->queries) {
    non_update += q.messages.MaintenanceTotal() -
                  q.messages.count(MessagePhase::kMaintenance,
                                   MessageType::kValueUpdate);
  }
  EXPECT_EQ(result->PhysicalMaintenanceTotal(),
            result->physical_updates + non_update);
  // And the logical view is never cheaper than the physical one.
  EXPECT_GE(result->LogicalMaintenanceTotal(),
            result->PhysicalMaintenanceTotal());
}

}  // namespace
}  // namespace asf
