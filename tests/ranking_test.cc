#include "query/ranking.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace asf {
namespace {

TEST(RankingTest, RankAllSortsByScoreThenId) {
  const RankQuery q = RankQuery::NearestNeighbors(2, 100);
  const std::vector<Value> values{90, 100, 110, 95};  // scores 10,0,10,5
  const auto ranked = RankAll(q, values);
  ASSERT_EQ(ranked.size(), 4u);
  EXPECT_EQ(ranked[0].id, 1u);
  EXPECT_EQ(ranked[1].id, 3u);
  // Tie at score 10: id 0 before id 2.
  EXPECT_EQ(ranked[2].id, 0u);
  EXPECT_EQ(ranked[3].id, 2u);
}

TEST(RankingTest, RankSubset) {
  const RankQuery q = RankQuery::TopK(1);
  const std::vector<Value> values{5, 50, 10, 40};
  const auto ranked = RankSubset(q, values, {0, 2, 3});
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].id, 3u);  // 40 is largest among subset
  EXPECT_EQ(ranked[1].id, 2u);
  EXPECT_EQ(ranked[2].id, 0u);
}

TEST(RankingTest, TopKIds) {
  const RankQuery q = RankQuery::TopK(2);
  const std::vector<Value> values{5, 50, 10, 40};
  EXPECT_EQ(TopKIds(q, values, 2), (std::vector<StreamId>{1, 3}));
}

TEST(RankingTest, TopKLargerThanPopulationReturnsAll) {
  const RankQuery q = RankQuery::TopK(1);
  const std::vector<Value> values{5, 50};
  EXPECT_EQ(TopKIds(q, values, 10).size(), 2u);
}

TEST(RankingTest, RankOfSharesBestRankOnTies) {
  const RankQuery q = RankQuery::NearestNeighbors(1, 0);
  const std::vector<Value> values{1, -1, 2, 1};  // scores 1,1,2,1
  // Three streams tie at score 1: all rank 1.
  EXPECT_EQ(RankOf(q, values, 0), 1u);
  EXPECT_EQ(RankOf(q, values, 1), 1u);
  EXPECT_EQ(RankOf(q, values, 3), 1u);
  // The score-2 stream has 3 strictly better: rank 4.
  EXPECT_EQ(RankOf(q, values, 2), 4u);
}

TEST(RankingTest, RankOfDistinctValues) {
  const RankQuery q = RankQuery::BottomK(1);
  const std::vector<Value> values{30, 10, 20};
  EXPECT_EQ(RankOf(q, values, 1), 1u);
  EXPECT_EQ(RankOf(q, values, 2), 2u);
  EXPECT_EQ(RankOf(q, values, 0), 3u);
}

TEST(RankingTest, ScoredStreamOrdering) {
  EXPECT_LT((ScoredStream{1.0, 5}), (ScoredStream{2.0, 1}));
  EXPECT_LT((ScoredStream{1.0, 1}), (ScoredStream{1.0, 2}));  // tie by id
  EXPECT_EQ((ScoredStream{1.0, 1}), (ScoredStream{1.0, 1}));
}

TEST(RankingTest, KthAndNextScoresMatchRankAll) {
  // Integer values in a narrow band around the query point: equal values
  // and mirror images about 500 tie on score all over the ranking, so the
  // selection must reproduce RankAll's (score, id) order, not just a
  // score order.
  Rng rng(20261017);
  const std::size_t n = 101;
  std::vector<Value> values(n);
  for (Value& v : values) v = static_cast<Value>(rng.UniformInt(490, 510));
  std::vector<ScoredStream> scratch;  // shared by every call below
  const RankQuery queries[] = {RankQuery::NearestNeighbors(1, 500),
                               RankQuery::TopK(1), RankQuery::BottomK(1)};
  for (const RankQuery& q : queries) {
    const auto ranked = RankAll(q, values);
    std::size_t tied = 0;
    for (std::size_t i = 1; i < n; ++i) {
      tied += ranked[i].score == ranked[i - 1].score;
    }
    EXPECT_GT(tied, n / 2);
    for (const std::size_t k : {std::size_t{1}, n / 2, n - 1}) {
      const KthScores scores = KthAndNextScores(q, values, k, &scratch);
      EXPECT_EQ(scores.kth, ranked[k - 1].score) << "k=" << k;
      EXPECT_EQ(scores.next, ranked[k].score) << "k=" << k;
    }
  }
}

TEST(RankingTest, KnnRanksAroundQueryPoint) {
  // The paper's running example geometry: streams on a line around q.
  const RankQuery q = RankQuery::NearestNeighbors(2, 500);
  const std::vector<Value> values{460, 530, 700, 495, 10};
  const auto ranked = RankAll(q, values);
  EXPECT_EQ(ranked[0].id, 3u);  // |495-500| = 5
  EXPECT_EQ(ranked[1].id, 1u);  // 30
  EXPECT_EQ(ranked[2].id, 0u);  // 40
  EXPECT_EQ(ranked[3].id, 2u);  // 200
  EXPECT_EQ(ranked[4].id, 4u);  // 490
}

}  // namespace
}  // namespace asf
