#include "query/query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/rng.h"
#include "query/answer_set.h"

namespace asf {
namespace {

// --- RangeQuery ---

TEST(RangeQueryTest, ClosedMembership) {
  RangeQuery q(400, 600);
  EXPECT_TRUE(q.Matches(400));
  EXPECT_TRUE(q.Matches(600));
  EXPECT_FALSE(q.Matches(399));
  EXPECT_FALSE(q.Matches(601));
  EXPECT_EQ(q.range(), Interval(400, 600));
}

TEST(RangeQueryTest, ToString) {
  EXPECT_EQ(RangeQuery(400, 600).ToString(), "range [400, 600]");
}

// --- RankQuery: k-NN score geometry ---

TEST(RankQueryTest, KnnScoreIsDistance) {
  RankQuery q = RankQuery::NearestNeighbors(3, 500);
  EXPECT_EQ(q.k(), 3u);
  EXPECT_EQ(q.kind(), RankKind::kNearest);
  EXPECT_EQ(q.Score(500), 0);
  EXPECT_EQ(q.Score(520), 20);
  EXPECT_EQ(q.Score(480), 20);  // symmetric
}

TEST(RankQueryTest, KnnScoreBallIsCenteredInterval) {
  RankQuery q = RankQuery::NearestNeighbors(3, 500);
  EXPECT_EQ(q.ScoreBall(50), Interval(450, 550));
  EXPECT_EQ(q.ScoreBall(0), Interval(500, 500));
  EXPECT_TRUE(q.ScoreBall(-1).empty());
  EXPECT_TRUE(q.ScoreBall(kInf).all());
}

TEST(RankQueryTest, ScoreBallContainsExactlyLowScores) {
  RankQuery q = RankQuery::NearestNeighbors(1, 100);
  const Interval ball = q.ScoreBall(25);
  for (double v : {75.0, 100.0, 125.0}) {
    EXPECT_TRUE(ball.Contains(v)) << v;
    EXPECT_LE(q.Score(v), 25);
  }
  for (double v : {74.9, 125.1, -10.0}) {
    EXPECT_FALSE(ball.Contains(v)) << v;
    EXPECT_GT(q.Score(v), 25);
  }
}

// --- RankQuery: top-k (q = +inf) transformation ---

TEST(RankQueryTest, TopKScoreOrdersDescendingValues) {
  // Paper §3.2: a k-NN query becomes a k-maximum query with q = +inf; our
  // geometry uses score = -v so the largest value has the smallest score.
  RankQuery q = RankQuery::TopK(5);
  EXPECT_EQ(q.kind(), RankKind::kMax);
  EXPECT_LT(q.Score(1000), q.Score(999));
  EXPECT_LT(q.Score(-5), q.Score(-10));
}

TEST(RankQueryTest, TopKScoreBallIsUpperRay) {
  RankQuery q = RankQuery::TopK(5);
  // {v : -v <= 100} = [-100, inf).
  const Interval ball = q.ScoreBall(100);
  EXPECT_EQ(ball, Interval(-100, kInf));
  EXPECT_TRUE(ball.Contains(-100));
  EXPECT_TRUE(ball.Contains(1e12));
  EXPECT_FALSE(ball.Contains(-101));
}

TEST(RankQueryTest, BottomKScoreBallIsLowerRay) {
  RankQuery q = RankQuery::BottomK(2);
  EXPECT_EQ(q.kind(), RankKind::kMin);
  EXPECT_LT(q.Score(1), q.Score(2));
  EXPECT_EQ(q.ScoreBall(7), Interval(-kInf, 7));
}

TEST(RankQueryTest, ToString) {
  EXPECT_EQ(RankQuery::NearestNeighbors(3, 500).ToString(), "3-NN at q=500");
  EXPECT_EQ(RankQuery::TopK(10).ToString(), "top-10");
  EXPECT_EQ(RankQuery::BottomK(2).ToString(), "bottom-2");
}

// --- Score / ScoreBall consistency (property-style, all query kinds) ---

struct GeometryCase {
  RankKind kind;
  double threshold;
};

class ScoreBallProperty : public ::testing::TestWithParam<GeometryCase> {};

TEST_P(ScoreBallProperty, BallMembershipEqualsScoreComparison) {
  // The defining property of the geometry: for every value v,
  //   ScoreBall(d).Contains(v)  <=>  Score(v) <= d.
  // This is what lets a 1-D interval filter implement a rank bound.
  const auto [kind, threshold] = GetParam();
  RankQuery query = (kind == RankKind::kNearest)
                        ? RankQuery::NearestNeighbors(3, 500)
                        : (kind == RankKind::kMax ? RankQuery::TopK(3)
                                                  : RankQuery::BottomK(3));
  const Interval ball = query.ScoreBall(threshold);
  Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    const Value v = rng.Uniform(-2000, 2000);
    EXPECT_EQ(ball.Contains(v), query.Score(v) <= threshold)
        << "v=" << v << " threshold=" << threshold;
  }
  // And at the exact boundary values, when finite.
  if (threshold == threshold && std::abs(threshold) < kInf) {
    if (kind == RankKind::kNearest && threshold >= 0) {
      EXPECT_TRUE(ball.Contains(500 + threshold));
      EXPECT_TRUE(ball.Contains(500 - threshold));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndThresholds, ScoreBallProperty,
    ::testing::Values(GeometryCase{RankKind::kNearest, 0.0},
                      GeometryCase{RankKind::kNearest, 123.5},
                      GeometryCase{RankKind::kNearest, 1e6},
                      GeometryCase{RankKind::kMax, -750.0},
                      GeometryCase{RankKind::kMax, 0.0},
                      GeometryCase{RankKind::kMax, 750.0},
                      GeometryCase{RankKind::kMin, -750.0},
                      GeometryCase{RankKind::kMin, 0.0},
                      GeometryCase{RankKind::kMin, 750.0}));

// --- AnswerSet ---

TEST(AnswerSetTest, InsertEraseContains) {
  AnswerSet a;
  EXPECT_TRUE(a.empty());
  EXPECT_TRUE(a.Insert(3));
  EXPECT_FALSE(a.Insert(3));  // duplicate
  EXPECT_TRUE(a.Contains(3));
  EXPECT_EQ(a.size(), 1u);
  EXPECT_TRUE(a.Erase(3));
  EXPECT_FALSE(a.Erase(3));
  EXPECT_TRUE(a.empty());
}

TEST(AnswerSetTest, SortedVector) {
  AnswerSet a;
  a.Insert(5);
  a.Insert(1);
  a.Insert(9);
  EXPECT_EQ(a.ToSortedVector(), (std::vector<StreamId>{1, 5, 9}));
}

TEST(AnswerSetTest, EqualityIgnoresInsertionOrder) {
  AnswerSet a;
  a.Insert(1);
  a.Insert(2);
  AnswerSet b;
  b.Insert(2);
  b.Insert(1);
  EXPECT_EQ(a, b);
  b.Insert(3);
  EXPECT_FALSE(a == b);
}

TEST(AnswerSetTest, Clear) {
  AnswerSet a;
  a.Insert(1);
  a.Clear();
  EXPECT_TRUE(a.empty());
}

TEST(AnswerSetTest, MatchesOrderedSetReference) {
  // Seeded random Insert/Erase/Clear over ids 0..1500, so the set grows
  // well past its first word; after every step the bitset must agree with
  // a std::set on return values, membership, size and ascending order.
  Rng rng(0xA5E7);
  AnswerSet a;
  std::set<StreamId> ref;
  std::size_t clears = 0;
  std::size_t max_size = 0;
  for (int step = 0; step < 6000; ++step) {
    const StreamId id = static_cast<StreamId>(rng.UniformInt(0, 1500));
    const std::int64_t op = rng.UniformInt(0, 499);
    if (op < 275) {
      ASSERT_EQ(a.Insert(id), ref.insert(id).second) << "step " << step;
    } else if (op < 498) {
      ASSERT_EQ(a.Erase(id), ref.erase(id) > 0) << "step " << step;
    } else {
      a.Clear();
      ref.clear();
      ++clears;
    }
    max_size = std::max(max_size, a.size());
    ASSERT_EQ(a.Contains(id), ref.contains(id)) << "step " << step;
    ASSERT_EQ(a.size(), ref.size()) << "step " << step;
    ASSERT_EQ(a.empty(), ref.empty()) << "step " << step;
    const std::vector<StreamId> iterated(a.begin(), a.end());
    ASSERT_EQ(iterated, std::vector<StreamId>(ref.begin(), ref.end()))
        << "step " << step;
    ASSERT_EQ(a.ToSortedVector(), iterated) << "step " << step;
  }
  EXPECT_GT(clears, 0u);
  EXPECT_GT(max_size, 64u);  // more members than one word holds
}

TEST(AnswerSetTest, EqualityIgnoresHistory) {
  AnswerSet forward;
  AnswerSet backward;
  for (StreamId id = 0; id <= 1200; id += 7) forward.Insert(id);
  for (StreamId id = 1200 + 1; id-- > 0;) {
    if (id % 7 == 0) backward.Insert(id);
  }
  EXPECT_EQ(forward, backward);

  // Grown to 1000 then emptied (its words stay allocated) versus fresh;
  // and a wide set versus a narrow one holding the same members.
  AnswerSet grown;
  grown.Insert(1000);
  grown.Erase(1000);
  const AnswerSet fresh;
  EXPECT_EQ(grown, fresh);
  EXPECT_EQ(fresh, grown);
  grown.Insert(3);
  AnswerSet narrow;
  narrow.Insert(3);
  EXPECT_EQ(grown, narrow);
  EXPECT_EQ(narrow, grown);
  // Equal common words, but a member past the narrow set's last word.
  grown.Insert(900);
  EXPECT_FALSE(grown == narrow);
  EXPECT_FALSE(narrow == grown);

  AnswerSet cleared = forward;
  cleared.Clear();
  EXPECT_EQ(cleared, fresh);
  EXPECT_TRUE(cleared.begin() == cleared.end());
}

}  // namespace
}  // namespace asf
