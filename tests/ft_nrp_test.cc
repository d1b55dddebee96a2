#include "protocol/ft_nrp.h"

#include <gtest/gtest.h>

#include "test_harness.h"
#include "tolerance/oracle.h"

namespace asf {
namespace {

FtOptions BoundaryNearest() {
  FtOptions opts;
  opts.heuristic = SelectionHeuristic::kBoundaryNearest;
  return opts;
}

// Ten streams, five inside [400, 600] (ids 0-4), five outside (ids 5-9).
std::vector<Value> TenStreams() {
  return {410, 450, 500, 550, 590, 130, 390, 610, 810, 900};
}

TEST(FtNrpTest, BudgetsFollowEquations3And4) {
  TestSystem sys(TenStreams());
  // eps+ = 0.4: n+ = floor(5 * 0.4) = 2.
  // eps- = 0.4: n- = floor(5 * 0.4 * 0.6 / 0.6) = 2.
  FtNrp proto(sys.ctx(), RangeQuery(400, 600), FractionTolerance{0.4, 0.4},
              BoundaryNearest(), nullptr);
  sys.Initialize(&proto);
  EXPECT_EQ(proto.core().n_plus(), 2u);
  EXPECT_EQ(proto.core().n_minus(), 2u);
  EXPECT_EQ(sys.CountFalsePositiveFilters(), 2u);
  EXPECT_EQ(sys.CountFalseNegativeFilters(), 2u);
  EXPECT_EQ(sys.CountInstalled(), 10u);
  // Initial answer is the true in-range set.
  EXPECT_EQ(proto.answer().ToSortedVector(),
            (std::vector<StreamId>{0, 1, 2, 3, 4}));
}

TEST(FtNrpTest, BoundaryNearestSilencesBoundaryProneStreams) {
  TestSystem sys(TenStreams());
  FtNrp proto(sys.ctx(), RangeQuery(400, 600), FractionTolerance{0.4, 0.4},
              BoundaryNearest(), nullptr);
  sys.Initialize(&proto);
  // Inside candidates by boundary distance: 0 (10), 4 (10), 1 (50), ...
  EXPECT_TRUE(sys.filter(0).constraint().IsFalsePositiveFilter());
  EXPECT_TRUE(sys.filter(4).constraint().IsFalsePositiveFilter());
  // Outside candidates: 6 (dist 10), 7 (10), then 8/5 far.
  EXPECT_TRUE(sys.filter(6).constraint().IsFalseNegativeFilter());
  EXPECT_TRUE(sys.filter(7).constraint().IsFalseNegativeFilter());
  // The far streams keep the plain range filter.
  EXPECT_FALSE(sys.filter(2).constraint().IsSilent());
  EXPECT_FALSE(sys.filter(9).constraint().IsSilent());
}

TEST(FtNrpTest, SilencedStreamsNeverReport) {
  TestSystem sys(TenStreams());
  FtNrp proto(sys.ctx(), RangeQuery(400, 600), FractionTolerance{0.4, 0.4},
              BoundaryNearest(), nullptr);
  sys.Initialize(&proto);
  // FP-filtered stream 0 wanders far outside: silent, stays in the answer.
  EXPECT_FALSE(sys.SetValue(&proto, 0, 5000));
  EXPECT_TRUE(proto.answer().Contains(0));
  // FN-filtered stream 6 wanders into range: silent, stays out.
  EXPECT_FALSE(sys.SetValue(&proto, 6, 500));
  EXPECT_FALSE(proto.answer().Contains(6));
  EXPECT_EQ(sys.stats().MaintenanceTotal(), 0u);
  // And the tolerance still holds (1 FP of 5 answers, 1 FN of 5 true).
  const auto check =
      Oracle::CheckRangeFraction(sys.values(), RangeQuery(400, 600),
                                 proto.answer(), FractionTolerance{0.4, 0.4});
  EXPECT_TRUE(check.ok);
}

TEST(FtNrpTest, InsertionsBumpCount) {
  TestSystem sys(TenStreams());
  FtNrp proto(sys.ctx(), RangeQuery(400, 600), FractionTolerance{0.4, 0.4},
              BoundaryNearest(), nullptr);
  sys.Initialize(&proto);
  EXPECT_EQ(proto.core().count(), 0u);
  EXPECT_TRUE(sys.SetValue(&proto, 9, 500));  // enters
  EXPECT_EQ(proto.core().count(), 1u);
  EXPECT_TRUE(proto.answer().Contains(9));
  // A removal while count > 0 just decrements; no Fix_Error probes.
  EXPECT_TRUE(sys.SetValue(&proto, 9, 700));
  EXPECT_EQ(proto.core().count(), 0u);
  EXPECT_EQ(proto.core().fix_error_runs(), 0u);
  // update + update = 2 messages only.
  EXPECT_EQ(sys.stats().MaintenanceTotal(), 2u);
}

TEST(FtNrpTest, FixErrorConvertsInRangeFalsePositive) {
  TestSystem sys(TenStreams());
  FtNrp proto(sys.ctx(), RangeQuery(400, 600), FractionTolerance{0.4, 0.4},
              BoundaryNearest(), nullptr);
  sys.Initialize(&proto);
  const std::size_t n_plus_before = proto.core().n_plus();
  // Removal at count == 0 triggers Fix_Error. The consulted FP stream
  // (still in range) is converted to a range filter and kept in the answer.
  EXPECT_TRUE(sys.SetValue(&proto, 2, 700));
  EXPECT_EQ(proto.core().fix_error_runs(), 1u);
  EXPECT_EQ(proto.core().n_plus(), n_plus_before - 1);
  EXPECT_FALSE(proto.answer().Contains(2));
  // Cost: update + probe pair + deploy = 4.
  EXPECT_EQ(sys.stats().MaintenanceTotal(), 4u);
  const auto check =
      Oracle::CheckRangeFraction(sys.values(), RangeQuery(400, 600),
                                 proto.answer(), FractionTolerance{0.4, 0.4});
  EXPECT_TRUE(check.ok);
}

TEST(FtNrpTest, FixErrorRecruitsFalseNegativeWhenFpIsStale) {
  TestSystem sys(TenStreams());
  FtNrp proto(sys.ctx(), RangeQuery(400, 600), FractionTolerance{0.4, 0.4},
              BoundaryNearest(), nullptr);
  sys.Initialize(&proto);
  // Both FP holders (0, 4) drift out silently; FN holder 7 drifts in (the
  // FN list [6, 7] is consumed back-to-front, so 7 is consulted first).
  sys.SetValueSilently(0, 5000);
  sys.SetValueSilently(4, -100);
  sys.SetValueSilently(7, 500);
  // Now a range-filtered answer leaves at count == 0: Fix_Error probes an
  // FP holder, finds it out of range, drops it, and consults an FN holder,
  // which is in range and joins the answer.
  EXPECT_TRUE(sys.SetValue(&proto, 2, 700));
  EXPECT_EQ(proto.core().fix_error_runs(), 1u);
  EXPECT_FALSE(proto.answer().Contains(2));
  EXPECT_TRUE(proto.answer().Contains(7));
  const auto check =
      Oracle::CheckRangeFraction(sys.values(), RangeQuery(400, 600),
                                 proto.answer(), FractionTolerance{0.4, 0.4});
  EXPECT_TRUE(check.ok) << "F+=" << check.f_plus << " F-=" << check.f_minus;
}

TEST(FtNrpTest, ZeroToleranceDegeneratesToZtNrp) {
  TestSystem sys(TenStreams());
  FtNrp proto(sys.ctx(), RangeQuery(400, 600), FractionTolerance{0, 0},
              BoundaryNearest(), nullptr);
  sys.Initialize(&proto);
  EXPECT_EQ(proto.core().n_plus(), 0u);
  EXPECT_EQ(proto.core().n_minus(), 0u);
  EXPECT_TRUE(proto.core().Exhausted());
  EXPECT_EQ(sys.CountFalsePositiveFilters(), 0u);
  // Every crossing is reported and the answer stays exact.
  sys.SetValue(&proto, 0, 700);
  const auto check =
      Oracle::CheckRangeFraction(sys.values(), RangeQuery(400, 600),
                                 proto.answer(), FractionTolerance{0, 0});
  EXPECT_TRUE(check.ok);
}

TEST(FtNrpTest, SmallAnswerGetsNoBudget) {
  // |A| * eps < 1 -> floors to zero filters; protocol must not crash or
  // over-silence.
  TestSystem sys({500, 100, 200, 300});
  FtNrp proto(sys.ctx(), RangeQuery(400, 600), FractionTolerance{0.3, 0.3},
              BoundaryNearest(), nullptr);
  sys.Initialize(&proto);
  EXPECT_EQ(proto.core().n_plus(), 0u);
  EXPECT_EQ(proto.core().n_minus(), 0u);
}

TEST(FtNrpTest, RandomHeuristicSelectsBudgetedCounts) {
  TestSystem sys(TenStreams());
  Rng rng(42);
  FtOptions opts;
  opts.heuristic = SelectionHeuristic::kRandom;
  FtNrp proto(sys.ctx(), RangeQuery(400, 600), FractionTolerance{0.4, 0.4},
              opts, &rng);
  sys.Initialize(&proto);
  EXPECT_EQ(sys.CountFalsePositiveFilters(), 2u);
  EXPECT_EQ(sys.CountFalseNegativeFilters(), 2u);
}

TEST(FtNrpTest, ReinitWhenExhaustedRestoresBudgets) {
  TestSystem sys(TenStreams());
  FtOptions opts = BoundaryNearest();
  opts.reinit = ReinitPolicy::kWhenExhausted;
  // eps = 0.2 over 5 answers: n+ = 1, n- = 1.
  FtNrp proto(sys.ctx(), RangeQuery(400, 600), FractionTolerance{0.2, 0.2},
              opts, nullptr);
  sys.Initialize(&proto);
  EXPECT_EQ(proto.core().n_plus(), 1u);
  EXPECT_EQ(proto.core().n_minus(), 1u);
  // Two removals at count==0 burn both budgets; the second burn triggers
  // re-initialization, which probes everyone and re-installs filters.
  sys.SetValue(&proto, 2, 700);
  EXPECT_EQ(proto.core().n_plus(), 0u);
  sys.SetValue(&proto, 3, 700);
  EXPECT_EQ(proto.reinit_count(), 1u);
  // Fresh budgets derived from the new (3-member) answer: floor(3*0.2)=0...
  // so budgets may legitimately be zero; what matters is that exactly one
  // reinit happened and the protocol did not loop.
  sys.SetValue(&proto, 1, 700);
  EXPECT_EQ(proto.reinit_count(), 1u);
}

TEST(FtNrpTest, NeverReinitByDefault) {
  TestSystem sys(TenStreams());
  FtNrp proto(sys.ctx(), RangeQuery(400, 600), FractionTolerance{0.2, 0.2},
              BoundaryNearest(), nullptr);
  sys.Initialize(&proto);
  for (StreamId id : {2u, 3u, 1u}) sys.SetValue(&proto, id, 700);
  EXPECT_EQ(proto.reinit_count(), 0u);
  EXPECT_TRUE(proto.core().Exhausted());
}

TEST(FtNrpTest, ToleranceHoldsThroughScriptedChurn) {
  TestSystem sys(TenStreams());
  const FractionTolerance tol{0.4, 0.4};
  FtNrp proto(sys.ctx(), RangeQuery(400, 600), tol, BoundaryNearest(),
              nullptr);
  sys.Initialize(&proto);
  const RangeQuery query(400, 600);
  const std::vector<std::pair<StreamId, Value>> script{
      {5, 450}, {2, 650}, {3, 350}, {5, 90},  {8, 500},
      {1, 601}, {8, 601}, {9, 599}, {9, 601}, {2, 500},
  };
  for (const auto& [id, v] : script) {
    sys.SetValue(&proto, id, v);
    const auto check =
        Oracle::CheckRangeFraction(sys.values(), query, proto.answer(), tol);
    EXPECT_TRUE(check.ok) << "after setting " << id << " to " << v
                          << ": F+=" << check.f_plus
                          << " F-=" << check.f_minus;
  }
}

}  // namespace
}  // namespace asf
