#include "protocol/rtp.h"

#include <gtest/gtest.h>

#include "test_harness.h"
#include "tolerance/oracle.h"

namespace asf {
namespace {

/// Asserts the paper's Definition 1 against the true values.
void ExpectRankCorrect(const TestSystem& sys, const Rtp& proto,
                       const RankQuery& query, std::size_t r,
                       const char* context) {
  const auto check = Oracle::CheckRankTolerance(
      sys.values(), query, proto.answer(), RankTolerance{query.k(), r});
  EXPECT_TRUE(check.ok) << context << ": |A|=" << check.answer_size
                        << " worst_rank=" << check.worst_rank;
}

// Six streams around q=500; distances 5, 10, 20, 30, 70, 100.
std::vector<Value> SixStreams() { return {495, 510, 480, 530, 570, 400}; }

TEST(RtpTest, InitializationBuildsAXAndBound) {
  TestSystem sys(SixStreams());
  const RankQuery query = RankQuery::NearestNeighbors(2, 500);
  Rtp proto(sys.ctx(), query, /*r=*/2);
  sys.Initialize(&proto);

  EXPECT_EQ(proto.answer().ToSortedVector(), (std::vector<StreamId>{0, 1}));
  EXPECT_EQ(proto.inside_set().size(), 4u);  // eps = k + r = 4
  EXPECT_TRUE(proto.inside_set().Contains(2));
  EXPECT_TRUE(proto.inside_set().Contains(3));
  // R halfway between the 4th (d=30) and 5th (d=70) objects: [450, 550].
  EXPECT_EQ(proto.bound(), Interval(450, 550));
  // probe-all (12) + deploy-all (6).
  EXPECT_EQ(sys.stats().InitTotal(), 18u);
  EXPECT_EQ(proto.max_rank(), 4u);
}

TEST(RtpTest, MovementInsideBoundIsFree) {
  TestSystem sys(SixStreams());
  const RankQuery query = RankQuery::NearestNeighbors(2, 500);
  Rtp proto(sys.ctx(), query, 2);
  sys.Initialize(&proto);
  // Rank order flips inside R (stream 3 becomes the nearest) with no
  // messages at all — this is exactly the tolerance being exploited.
  EXPECT_FALSE(sys.SetValue(&proto, 3, 501, 1.0));
  EXPECT_FALSE(sys.SetValue(&proto, 0, 549, 2.0));
  EXPECT_EQ(sys.stats().MaintenanceTotal(), 0u);
  // The stale answer {0,1} is still rank-correct: everyone in R ranks <= 4.
  ExpectRankCorrect(sys, proto, query, 2, "in-bound churn");
}

TEST(RtpTest, Case1SpareLeavesShrinksX) {
  TestSystem sys(SixStreams());
  const RankQuery query = RankQuery::NearestNeighbors(2, 500);
  Rtp proto(sys.ctx(), query, 2);
  sys.Initialize(&proto);
  EXPECT_TRUE(sys.SetValue(&proto, 2, 600, 1.0));  // X-A member leaves
  EXPECT_EQ(proto.inside_set().size(), 3u);
  EXPECT_FALSE(proto.inside_set().Contains(2));
  EXPECT_EQ(proto.answer().ToSortedVector(), (std::vector<StreamId>{0, 1}));
  EXPECT_EQ(sys.stats().MaintenanceTotal(), 1u);  // the update only
  ExpectRankCorrect(sys, proto, query, 2, "case 1");
}

TEST(RtpTest, Case3EntrantAbsorbedWhileXBelowCapacity) {
  TestSystem sys(SixStreams());
  const RankQuery query = RankQuery::NearestNeighbors(2, 500);
  Rtp proto(sys.ctx(), query, 2);
  sys.Initialize(&proto);
  sys.SetValue(&proto, 2, 600, 1.0);               // make room: |X| = 3
  EXPECT_TRUE(sys.SetValue(&proto, 4, 540, 2.0));  // enters R
  EXPECT_EQ(proto.inside_set().size(), 4u);
  EXPECT_TRUE(proto.inside_set().Contains(4));
  EXPECT_EQ(sys.stats().MaintenanceTotal(), 2u);  // two updates, no deploys
  ExpectRankCorrect(sys, proto, query, 2, "case 3 absorb");
}

TEST(RtpTest, Case3FullXShrinksBoundWithLocalProbesOnly) {
  TestSystem sys(SixStreams());
  const RankQuery query = RankQuery::NearestNeighbors(2, 500);
  Rtp proto(sys.ctx(), query, 2);
  sys.Initialize(&proto);
  // X is full ({0,1,2,3}); stream 5 enters at distance 45.
  EXPECT_TRUE(sys.SetValue(&proto, 5, 455, 1.0));
  // Step 7: probe the 4 X members (8 msgs), redeploy everywhere (6 msgs);
  // plus the triggering update = 15.
  EXPECT_EQ(sys.stats().MaintenanceTotal(), 15u);
  // New ranking: 0(5) 1(10) 2(20) 3(30) 5(45); eps-th=30, next=45.
  EXPECT_EQ(proto.bound(), Interval(500 - 37.5, 500 + 37.5));
  EXPECT_EQ(proto.inside_set().size(), 4u);
  EXPECT_FALSE(proto.inside_set().Contains(5));  // squeezed back out
  EXPECT_EQ(proto.answer().ToSortedVector(), (std::vector<StreamId>{0, 1}));
  ExpectRankCorrect(sys, proto, query, 2, "case 3 reevaluate");
}

TEST(RtpTest, Case2AnswerLeaverPromotesBestSpare) {
  TestSystem sys(SixStreams());
  const RankQuery query = RankQuery::NearestNeighbors(2, 500);
  Rtp proto(sys.ctx(), query, 2);
  sys.Initialize(&proto);
  EXPECT_TRUE(sys.SetValue(&proto, 0, 560, 1.0));  // answer member leaves
  // Replaced by the best cached spare in X - A: stream 2 (d=20).
  EXPECT_EQ(proto.answer().ToSortedVector(), (std::vector<StreamId>{1, 2}));
  EXPECT_EQ(proto.inside_set().size(), 3u);
  EXPECT_EQ(sys.stats().MaintenanceTotal(), 1u);  // promotion is free
  ExpectRankCorrect(sys, proto, query, 2, "case 2 promote");
}

TEST(RtpTest, Case2ExpansionRecruitsByRegionProbing) {
  TestSystem sys(SixStreams());
  const RankQuery query = RankQuery::NearestNeighbors(2, 500);
  Rtp proto(sys.ctx(), query, 2);
  sys.Initialize(&proto);
  // Empty X - A: 2 and 3 leave (case 1), then 0 leaves (case 2, promote 1
  // remains), leaving X == A == {1, ...}. Build the exact state:
  sys.SetValue(&proto, 2, 600, 1.0);   // X = {0,1,3}
  sys.SetValue(&proto, 3, 640, 2.0);   // X = {0,1}
  EXPECT_EQ(proto.inside_set().size(), 2u);
  sys.stats().Reset();
  sys.stats().set_phase(MessagePhase::kMaintenance);
  // Stream 0 (answer) leaves; no spare exists -> search-region expansion.
  EXPECT_TRUE(sys.SetValue(&proto, 0, 560, 3.0));
  EXPECT_EQ(proto.expansions(), 1u);
  EXPECT_EQ(proto.reinit_count(), 0u);  // expansion succeeded
  // Stale ranking from init: scores 5,10,20,30,70,100; eps=4 so the first
  // region uses d'=70 -> [430, 570]. Candidates: 0 (560,d60) and 5
  // (400,d100? no). Actually 5 is at 400 (d100): outside. 2 at 600 (d100):
  // outside. 3 at 640: outside. 4 at 570 (d70): responds. 0 responds.
  EXPECT_EQ(proto.answer().size(), 2u);
  EXPECT_TRUE(proto.answer().Contains(1));
  ExpectRankCorrect(sys, proto, query, 2, "case 2 expansion");
  // Messages: update(1) + region probes to {0,2,3,4,5} (5) + responses
  // from {0,4} (2) + deploy-all (6) = 14.
  EXPECT_EQ(sys.stats().MaintenanceTotal(), 14u);
}

TEST(RtpTest, Case2ExpansionFailureFallsBackToFullRefresh) {
  // k=2, r=0 over 4 streams: X == A always.
  TestSystem sys({500, 510, 900, 100});
  const RankQuery query = RankQuery::NearestNeighbors(2, 500);
  Rtp proto(sys.ctx(), query, 0);
  sys.Initialize(&proto);
  // Bound: d between 10 and 400 -> [295, 705]. Outsiders drift far away
  // silently (they stay outside the bound).
  sys.SetValueSilently(2, 2000);
  sys.SetValueSilently(3, -1000);
  // Answer member 0 leaves beyond every stale region (max stale d' = 400).
  EXPECT_TRUE(sys.SetValue(&proto, 0, 1200, 1.0));
  EXPECT_EQ(proto.expansions(), 1u);
  EXPECT_EQ(proto.reinit_count(), 1u);  // fell back to re-initialization
  EXPECT_EQ(proto.answer().size(), 2u);
  ExpectRankCorrect(sys, proto, query, 0, "expansion failure");
  EXPECT_EQ(proto.answer().ToSortedVector(), (std::vector<StreamId>{0, 1}));
}

TEST(RtpTest, SmallPopulationSilencesEveryone) {
  // n <= k + r: every size-k answer is trivially within tolerance, so the
  // bound is [-inf, inf] and no stream ever reports.
  TestSystem sys({10, 20, 30});
  const RankQuery query = RankQuery::NearestNeighbors(2, 25);
  Rtp proto(sys.ctx(), query, 2);
  sys.Initialize(&proto);
  EXPECT_TRUE(proto.bound().all());
  EXPECT_FALSE(sys.SetValue(&proto, 0, 1e6, 1.0));
  EXPECT_FALSE(sys.SetValue(&proto, 2, -1e6, 2.0));
  EXPECT_EQ(sys.stats().MaintenanceTotal(), 0u);
  ExpectRankCorrect(sys, proto, query, 2, "small population");
}

TEST(RtpTest, TopKQueryUsesUpperRayBound) {
  TestSystem sys({100, 90, 80, 70, 60, 50});
  const RankQuery query = RankQuery::TopK(2);
  Rtp proto(sys.ctx(), query, 1);  // eps = 3
  sys.Initialize(&proto);
  EXPECT_EQ(proto.answer().ToSortedVector(), (std::vector<StreamId>{0, 1}));
  // Bound between the 3rd (80) and 4th (70) values: [75, inf).
  EXPECT_EQ(proto.bound(), Interval(75, kInf));
  // 2 drops below 75: leaves X.
  EXPECT_TRUE(sys.SetValue(&proto, 2, 60, 1.0));
  EXPECT_EQ(proto.inside_set().size(), 2u);
  ExpectRankCorrect(sys, proto, query, 1, "top-k");
}

TEST(RtpTest, ZeroSlackStillWorks) {
  TestSystem sys(SixStreams());
  const RankQuery query = RankQuery::NearestNeighbors(2, 500);
  Rtp proto(sys.ctx(), query, 0);  // eps = k: X == A
  sys.Initialize(&proto);
  EXPECT_EQ(proto.bound(), Interval(485, 515));  // between d=10 and d=20
  ExpectRankCorrect(sys, proto, query, 0, "r=0 init");
  // The second-nearest leaves: expansion or refresh must restore A.
  sys.SetValue(&proto, 1, 700, 1.0);
  EXPECT_EQ(proto.answer().size(), 2u);
  ExpectRankCorrect(sys, proto, query, 0, "r=0 after leave");
}

TEST(RtpTest, ExpansionWalksOutwardThroughStaleRegions) {
  // The first stale region R'_(eps+1) holds only one candidate; the search
  // must widen to the next region before it can rebuild A (Figure 5 step
  // 4(I), loop over j).
  TestSystem sys({500, 510, 480, 530, 400});
  const RankQuery query = RankQuery::NearestNeighbors(2, 500);
  Rtp proto(sys.ctx(), query, 0);  // eps = 2, X == A
  sys.Initialize(&proto);
  EXPECT_EQ(proto.bound(), Interval(485, 515));
  sys.stats().Reset();
  sys.stats().set_phase(MessagePhase::kMaintenance);

  EXPECT_TRUE(sys.SetValue(&proto, 1, 700, 1.0));
  EXPECT_EQ(proto.expansions(), 1u);
  EXPECT_EQ(proto.reinit_count(), 0u);
  EXPECT_EQ(proto.answer().ToSortedVector(), (std::vector<StreamId>{0, 2}));
  // Midway between the kept candidate (d=20) and the next (d=30),
  // clamped inside R' (d'=30): radius 25.
  EXPECT_EQ(proto.bound(), Interval(475, 525));
  // update(1) + region probes to {1,2,3,4} then {1,3,4} (7) + responses
  // from 2 and 3 (2) + deploy-all (5) = 15.
  EXPECT_EQ(sys.stats().MaintenanceTotal(), 15u);
  ExpectRankCorrect(sys, proto, query, 0, "two-region expansion");
}

TEST(RtpTest, BottomKUsesLowerRayBound) {
  TestSystem sys({10, 20, 30, 40, 50});
  const RankQuery query = RankQuery::BottomK(2);
  Rtp proto(sys.ctx(), query, 1);  // eps = 3
  sys.Initialize(&proto);
  EXPECT_EQ(proto.answer().ToSortedVector(), (std::vector<StreamId>{0, 1}));
  // Bound between the 3rd (30) and 4th (40) smallest: (-inf, 35].
  EXPECT_EQ(proto.bound(), Interval(-kInf, 35));
  // Stream 4 dives to the bottom: enters X (|X| = 3 -> full handling).
  EXPECT_TRUE(sys.SetValue(&proto, 4, 5, 1.0));
  ExpectRankCorrect(sys, proto, query, 1, "bottom-k entry");
}

TEST(RtpTest, MaintenanceReinitsAreAccountedAsMaintenance) {
  TestSystem sys({500, 510, 900, 100});
  const RankQuery query = RankQuery::NearestNeighbors(2, 500);
  Rtp proto(sys.ctx(), query, 0);
  sys.Initialize(&proto);
  const auto init_total = sys.stats().InitTotal();
  sys.SetValueSilently(2, 2000);
  sys.SetValueSilently(3, -1000);
  sys.SetValue(&proto, 0, 1200, 1.0);  // forces full refresh
  EXPECT_EQ(proto.reinit_count(), 1u);
  // The refresh's probes/deploys all land in the maintenance phase.
  EXPECT_EQ(sys.stats().InitTotal(), init_total);
  EXPECT_GT(sys.stats().count(MessagePhase::kMaintenance,
                              MessageType::kProbeRequest),
            0u);
  EXPECT_GT(sys.stats().count(MessagePhase::kMaintenance,
                              MessageType::kFilterDeploy),
            0u);
}

TEST(RtpTest, ScriptedChurnNeverViolatesDefinition1) {
  TestSystem sys(SixStreams());
  const RankQuery query = RankQuery::NearestNeighbors(2, 500);
  Rtp proto(sys.ctx(), query, 2);
  sys.Initialize(&proto);
  const std::vector<std::pair<StreamId, Value>> script{
      {0, 560}, {4, 540}, {1, 400}, {2, 505}, {5, 501},
      {3, 620}, {4, 500}, {0, 495}, {2, 800}, {1, 502},
  };
  int step = 0;
  for (const auto& [id, v] : script) {
    sys.SetValue(&proto, id, v, ++step);
    ExpectRankCorrect(sys, proto, query, 2,
                      ("script step " + std::to_string(step)).c_str());
  }
}

}  // namespace
}  // namespace asf
