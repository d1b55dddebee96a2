#include "protocol/no_filter.h"

#include <gtest/gtest.h>

#include "test_harness.h"

namespace asf {
namespace {

TEST(NoFilterTest, RangeInitializationProbesEveryone) {
  TestSystem sys({450, 700, 500, 100});
  NoFilterProtocol proto(sys.ctx(), RangeQuery(400, 600));
  sys.Initialize(&proto);
  EXPECT_EQ(sys.stats().InitTotal(), 8u);  // probe-all only, no deploys
  EXPECT_EQ(proto.answer().ToSortedVector(), (std::vector<StreamId>{0, 2}));
  EXPECT_EQ(sys.CountInstalled(), 0u);  // no filters at all
}

TEST(NoFilterTest, RangeTracksEveryChangeExactly) {
  TestSystem sys({450, 700});
  NoFilterProtocol proto(sys.ctx(), RangeQuery(400, 600));
  sys.Initialize(&proto);
  // Every change is reported, even ones far from the boundary.
  EXPECT_TRUE(sys.SetValue(&proto, 1, 710));
  EXPECT_EQ(proto.answer().size(), 1u);
  EXPECT_TRUE(sys.SetValue(&proto, 1, 550));
  EXPECT_EQ(proto.answer().ToSortedVector(), (std::vector<StreamId>{0, 1}));
  EXPECT_TRUE(sys.SetValue(&proto, 0, 300));
  EXPECT_EQ(proto.answer().ToSortedVector(), (std::vector<StreamId>{1}));
  // 3 maintenance messages = 3 updates (the paper's baseline accounting).
  EXPECT_EQ(sys.stats().MaintenanceTotal(), 3u);
}

TEST(NoFilterTest, TopKExactMaintenance) {
  TestSystem sys({10, 50, 30, 40});
  NoFilterProtocol proto(sys.ctx(), RankQuery::TopK(2));
  sys.Initialize(&proto);
  EXPECT_EQ(proto.answer().ToSortedVector(), (std::vector<StreamId>{1, 3}));
  // Stream 0 surges to the top.
  sys.SetValue(&proto, 0, 60);
  EXPECT_EQ(proto.answer().ToSortedVector(), (std::vector<StreamId>{0, 1}));
  // Stream 1 collapses.
  sys.SetValue(&proto, 1, 5);
  EXPECT_EQ(proto.answer().ToSortedVector(), (std::vector<StreamId>{0, 3}));
}

TEST(NoFilterTest, KnnExactMaintenance) {
  TestSystem sys({495, 460, 700, 530});
  NoFilterProtocol proto(sys.ctx(), RankQuery::NearestNeighbors(2, 500));
  sys.Initialize(&proto);
  EXPECT_EQ(proto.answer().ToSortedVector(), (std::vector<StreamId>{0, 3}));
  sys.SetValue(&proto, 2, 501);  // now the nearest
  EXPECT_EQ(proto.answer().ToSortedVector(), (std::vector<StreamId>{0, 2}));
}

TEST(NoFilterTest, SameScoreUpdateKeepsAnswerStable) {
  TestSystem sys({10, 50, 30});
  NoFilterProtocol proto(sys.ctx(), RankQuery::TopK(1));
  sys.Initialize(&proto);
  sys.SetValue(&proto, 1, 50);  // unchanged value, still reported
  EXPECT_EQ(proto.answer().ToSortedVector(), (std::vector<StreamId>{1}));
}

TEST(NoFilterTest, BottomKQuery) {
  TestSystem sys({10, 50, 30, 5});
  NoFilterProtocol proto(sys.ctx(), RankQuery::BottomK(2));
  sys.Initialize(&proto);
  EXPECT_EQ(proto.answer().ToSortedVector(), (std::vector<StreamId>{0, 3}));
}

TEST(NoFilterTest, NameAndReinits) {
  TestSystem sys({1});
  NoFilterProtocol proto(sys.ctx(), RangeQuery(0, 10));
  EXPECT_EQ(proto.name(), "NoFilter");
  sys.Initialize(&proto);
  EXPECT_EQ(proto.reinit_count(), 0u);
}

}  // namespace
}  // namespace asf
