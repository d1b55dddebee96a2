#include "protocol/ft_rp.h"

#include <gtest/gtest.h>

#include "test_harness.h"
#include "tolerance/oracle.h"

namespace asf {
namespace {

FtOptions Defaults() { return FtOptions{}; }

// Ten streams around q = 500; distances 2,4,6,8,10,40,60,80,100,120.
std::vector<Value> TenAround500() {
  return {502, 496, 506, 492, 510, 540, 440, 580, 400, 620};
}

TEST(FtRpTest, InitializationDerivesRhoAndBand) {
  TestSystem sys(TenAround500());
  const RankQuery query = RankQuery::NearestNeighbors(5, 500);
  const FractionTolerance tol{0.4, 0.4};
  FtRp proto(sys.ctx(), query, tol, Defaults(), nullptr);
  sys.Initialize(&proto);

  // rho (balanced): m = min(0.6*0.4, 0.4) = 0.24; rho = 0.24*0.6/1.6 = 0.09.
  EXPECT_NEAR(proto.rho().rho_plus, 0.09, 1e-12);
  EXPECT_NEAR(proto.rho().rho_minus, 0.09, 1e-12);
  // Band: 5*0.6 = 3 <= |A| <= 5/0.6 = 8.33.
  EXPECT_DOUBLE_EQ(proto.answer_bounds().lo, 3.0);
  EXPECT_NEAR(proto.answer_bounds().hi, 5.0 / 0.6, 1e-12);
  // R between the 5th (d=10) and 6th (d=40) objects: [475, 525].
  EXPECT_EQ(proto.bound(), Interval(475, 525));
  EXPECT_EQ(proto.answer().ToSortedVector(),
            (std::vector<StreamId>{0, 1, 2, 3, 4}));
  // floor(5 * 0.09) = 0 silent filters at this k; no silent filters, but
  // the band still saves recomputation (checked below).
  EXPECT_EQ(proto.core().n_plus(), 0u);
  EXPECT_EQ(proto.core().n_minus(), 0u);
}

TEST(FtRpTest, LargerKGetsSilentFilters) {
  // 30 streams packed around q; k = 20 with eps = 0.4 funds floor(20*0.09)
  // = 1 FP and 1 FN filter.
  std::vector<Value> values;
  for (int i = 0; i < 30; ++i) {
    values.push_back(500 + (i % 2 == 0 ? 1 : -1) * (2 + 3 * i));
  }
  TestSystem sys(values);
  const RankQuery query = RankQuery::NearestNeighbors(20, 500);
  FtRp proto(sys.ctx(), query, FractionTolerance{0.4, 0.4}, Defaults(),
             nullptr);
  sys.Initialize(&proto);
  EXPECT_EQ(proto.core().n_plus(), 1u);
  EXPECT_EQ(proto.core().n_minus(), 1u);
  EXPECT_EQ(sys.CountFalsePositiveFilters(), 1u);
  EXPECT_EQ(sys.CountFalseNegativeFilters(), 1u);
  EXPECT_EQ(proto.answer().size(), 20u);
}

TEST(FtRpTest, CrossingsInsideBandAreCheap) {
  TestSystem sys(TenAround500());
  const RankQuery query = RankQuery::NearestNeighbors(5, 500);
  const FractionTolerance tol{0.4, 0.4};
  FtRp proto(sys.ctx(), query, tol, Defaults(), nullptr);
  sys.Initialize(&proto);
  // One stream leaves R (|A| 5 -> 4, band is [3, 8.33]): only the update
  // message — R is NOT recomputed (the whole point vs ZT-RP).
  EXPECT_TRUE(sys.SetValue(&proto, 4, 530));
  EXPECT_EQ(sys.stats().MaintenanceTotal(), 1u);
  EXPECT_EQ(proto.reinit_count(), 0u);
  EXPECT_EQ(proto.answer().size(), 4u);
  // The answer is still fraction-correct wrt the true 5-NN.
  const auto check = Oracle::CheckRankFraction(sys.values(), query,
                                               proto.answer(), tol);
  EXPECT_TRUE(check.ok) << "F+=" << check.f_plus << " F-=" << check.f_minus;
  // One stream enters (back to 5): again one message.
  EXPECT_TRUE(sys.SetValue(&proto, 5, 510));
  EXPECT_EQ(sys.stats().MaintenanceTotal(), 2u);
  EXPECT_EQ(proto.reinit_count(), 0u);
}

TEST(FtRpTest, AnswerShrinkingBelowBandRecomputesR) {
  TestSystem sys(TenAround500());
  const RankQuery query = RankQuery::NearestNeighbors(5, 500);
  const FractionTolerance tol{0.4, 0.4};
  FtRp proto(sys.ctx(), query, tol, Defaults(), nullptr);
  sys.Initialize(&proto);
  // Band lower edge: 3. Three leaves take |A| to 2 -> refresh.
  sys.SetValue(&proto, 0, 530);
  sys.SetValue(&proto, 1, 530);
  EXPECT_EQ(proto.reinit_count(), 0u);
  sys.SetValue(&proto, 2, 530);
  EXPECT_EQ(proto.reinit_count(), 1u);
  // After refresh the answer is the fresh 5-NN set.
  EXPECT_EQ(proto.answer().size(), 5u);
  const auto check = Oracle::CheckRankFraction(sys.values(), query,
                                               proto.answer(), tol);
  EXPECT_TRUE(check.ok);
}

TEST(FtRpTest, AnswerGrowingAboveBandRecomputesR) {
  TestSystem sys(TenAround500());
  const RankQuery query = RankQuery::NearestNeighbors(5, 500);
  const FractionTolerance tol{0.4, 0.4};
  FtRp proto(sys.ctx(), query, tol, Defaults(), nullptr);
  sys.Initialize(&proto);
  // Band upper edge: 8.33, so the 9th member triggers the refresh.
  StreamId outsiders[] = {5, 6, 7, 8};
  for (StreamId id : outsiders) {
    sys.SetValue(&proto, id, 500);
  }
  EXPECT_EQ(proto.reinit_count(), 1u);  // fired at |A| = 9
  const auto check = Oracle::CheckRankFraction(sys.values(), query,
                                               proto.answer(), tol);
  EXPECT_TRUE(check.ok);
}

TEST(FtRpTest, ZeroToleranceBehavesLikeZtRp) {
  TestSystem sys(TenAround500());
  const RankQuery query = RankQuery::NearestNeighbors(5, 500);
  FtRp proto(sys.ctx(), query, FractionTolerance{0, 0}, Defaults(), nullptr);
  sys.Initialize(&proto);
  EXPECT_EQ(proto.rho().rho_plus, 0.0);
  // Band collapses to exactly k: any crossing forces a refresh.
  sys.SetValue(&proto, 0, 560);
  EXPECT_EQ(proto.reinit_count(), 1u);
  const auto check = Oracle::CheckRankFraction(
      sys.values(), query, proto.answer(), FractionTolerance{0, 0});
  EXPECT_TRUE(check.ok);
}

TEST(FtRpTest, SilentFiltersSuppressReports) {
  std::vector<Value> values;
  for (int i = 0; i < 30; ++i) {
    values.push_back(500 + (i % 2 == 0 ? 1 : -1) * (2 + 3 * i));
  }
  TestSystem sys(values);
  const RankQuery query = RankQuery::NearestNeighbors(20, 500);
  const FractionTolerance tol{0.4, 0.4};
  FtRp proto(sys.ctx(), query, tol, Defaults(), nullptr);
  sys.Initialize(&proto);
  // Find the FP-filtered stream and push it far out: no message, and the
  // fraction guarantee still holds (1 wrong of 20 <= 0.4).
  StreamId fp = kInvalidStream;
  for (StreamId id = 0; id < sys.values().size(); ++id) {
    if (sys.filter(id).constraint().IsFalsePositiveFilter()) fp = id;
  }
  ASSERT_NE(fp, kInvalidStream);
  EXPECT_FALSE(sys.SetValue(&proto, fp, 5000));
  EXPECT_TRUE(proto.answer().Contains(fp));
  const auto check = Oracle::CheckRankFraction(sys.values(), query,
                                               proto.answer(), tol);
  EXPECT_TRUE(check.ok) << "F+=" << check.f_plus;
}

TEST(FtRpTest, RhoPolicyAblationStillCorrect) {
  for (RhoPolicy policy : {RhoPolicy::kBalanced, RhoPolicy::kFavorPositive,
                           RhoPolicy::kFavorNegative}) {
    TestSystem sys(TenAround500());
    const RankQuery query = RankQuery::NearestNeighbors(5, 500);
    const FractionTolerance tol{0.4, 0.4};
    FtOptions opts;
    opts.rho = policy;
    FtRp proto(sys.ctx(), query, tol, opts, nullptr);
    sys.Initialize(&proto);
    EXPECT_GE(proto.rho().Eq15Slack(tol), -1e-12);
      for (const auto& [id, v] :
         std::vector<std::pair<StreamId, Value>>{
             {0, 560}, {5, 505}, {4, 620}, {6, 498}}) {
      sys.SetValue(&proto, id, v);
      const auto check = Oracle::CheckRankFraction(sys.values(), query,
                                                   proto.answer(), tol);
      EXPECT_TRUE(check.ok) << "policy " << static_cast<int>(policy);
    }
  }
}

}  // namespace
}  // namespace asf
