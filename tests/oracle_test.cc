#include "tolerance/oracle.h"

#include <gtest/gtest.h>

namespace asf {
namespace {

AnswerSet Answer(std::initializer_list<StreamId> ids) {
  AnswerSet a;
  for (StreamId id : ids) a.Insert(id);
  return a;
}

// --- Range-query fraction checks ---

TEST(OracleRangeTest, ExactAnswerPasses) {
  const std::vector<Value> truth{450, 700, 500, 100, 600};
  const RangeQuery q(400, 600);
  const auto check = Oracle::CheckRangeFraction(truth, q, Answer({0, 2, 4}),
                                                FractionTolerance{0, 0});
  EXPECT_TRUE(check.ok);
  EXPECT_EQ(check.f_plus, 0.0);
  EXPECT_EQ(check.f_minus, 0.0);
  EXPECT_EQ(check.satisfying, 3u);
  EXPECT_EQ(check.answer_size, 3u);
}

TEST(OracleRangeTest, FalsePositiveDetected) {
  const std::vector<Value> truth{450, 700, 500};
  const RangeQuery q(400, 600);
  // Stream 1 (700) is returned but does not satisfy.
  const auto check = Oracle::CheckRangeFraction(truth, q, Answer({0, 1, 2}),
                                                FractionTolerance{0, 0});
  EXPECT_FALSE(check.ok);
  EXPECT_DOUBLE_EQ(check.f_plus, 1.0 / 3.0);
  EXPECT_EQ(check.f_minus, 0.0);
}

TEST(OracleRangeTest, FalseNegativeDetected) {
  const std::vector<Value> truth{450, 500, 550, 100};
  const RangeQuery q(400, 600);
  // Stream 2 satisfies but is missing: F- = 1/3.
  const auto check = Oracle::CheckRangeFraction(truth, q, Answer({0, 1}),
                                                FractionTolerance{0, 0});
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.f_plus, 0.0);
  EXPECT_DOUBLE_EQ(check.f_minus, 1.0 / 3.0);
}

TEST(OracleRangeTest, WithinToleranceIsOk) {
  const std::vector<Value> truth{450, 700, 500, 550, 560};
  const RangeQuery q(400, 600);
  // Answer {0,1,2,3}: E+ = 1 (stream 1), |A| = 4, F+ = 0.25.
  // Satisfying = {0,2,3,4}; E- = 1 (stream 4), F- = 1/4.
  const auto check = Oracle::CheckRangeFraction(truth, q, Answer({0, 1, 2, 3}),
                                                FractionTolerance{0.25, 0.25});
  EXPECT_TRUE(check.ok);
  EXPECT_DOUBLE_EQ(check.f_plus, 0.25);
  EXPECT_DOUBLE_EQ(check.f_minus, 0.25);
}

TEST(OracleRangeTest, MixedErrorsComputeBothFractions) {
  const std::vector<Value> truth{500, 100, 510, 520, 900};
  const RangeQuery q(400, 600);
  // Answer {0,1}: E+ = {1}, so F+ = 1/2. Satisfying = {0,2,3};
  // answered-correct = 1, E- = 2, F- = 2/3.
  const auto check = Oracle::CheckRangeFraction(truth, q, Answer({0, 1}),
                                                FractionTolerance{0.5, 0.5});
  EXPECT_DOUBLE_EQ(check.f_plus, 0.5);
  EXPECT_DOUBLE_EQ(check.f_minus, 2.0 / 3.0);
  EXPECT_FALSE(check.ok);  // F- exceeds 0.5
}

TEST(OracleRangeTest, EmptyAnswerEmptyRange) {
  const std::vector<Value> truth{100, 200};
  const RangeQuery q(400, 600);
  const auto check = Oracle::CheckRangeFraction(truth, q, Answer({}),
                                                FractionTolerance{0, 0});
  EXPECT_TRUE(check.ok);
  EXPECT_EQ(check.satisfying, 0u);
}

// --- Rank tolerance checks (Definition 1) ---

TEST(OracleRankTest, ExactTopKPasses) {
  const std::vector<Value> truth{10, 50, 30, 40};
  const RankQuery q = RankQuery::TopK(2);
  const auto check = Oracle::CheckRankTolerance(truth, q, Answer({1, 3}),
                                                RankTolerance{2, 0});
  EXPECT_TRUE(check.ok);
  EXPECT_EQ(check.worst_rank, 2u);
}

TEST(OracleRankTest, WrongSizeFails) {
  const std::vector<Value> truth{10, 50, 30};
  const RankQuery q = RankQuery::TopK(2);
  // Definition 1 requires |A| == k exactly.
  EXPECT_FALSE(Oracle::CheckRankTolerance(truth, q, Answer({1}),
                                          RankTolerance{2, 5})
                   .ok);
  EXPECT_FALSE(Oracle::CheckRankTolerance(truth, q, Answer({0, 1, 2}),
                                          RankTolerance{2, 5})
                   .ok);
}

TEST(OracleRankTest, SlackAllowsLowerRankedAnswers) {
  const std::vector<Value> truth{10, 50, 30, 40, 20};
  const RankQuery q = RankQuery::TopK(2);
  // Answer {1, 4}: stream 4 (value 20) has rank 4. r=2 allows rank <= 4.
  EXPECT_TRUE(Oracle::CheckRankTolerance(truth, q, Answer({1, 4}),
                                         RankTolerance{2, 2})
                  .ok);
  // r=1 allows only rank <= 3.
  EXPECT_FALSE(Oracle::CheckRankTolerance(truth, q, Answer({1, 4}),
                                          RankTolerance{2, 1})
                   .ok);
}

TEST(OracleRankTest, PaperExampleK3R2) {
  // Definition 1 example: k=3, r=2 -> answers must rank 5th or above.
  const std::vector<Value> truth{70, 60, 50, 40, 30, 20, 10};
  const RankQuery q = RankQuery::TopK(3);
  EXPECT_TRUE(Oracle::CheckRankTolerance(truth, q, Answer({0, 3, 4}),
                                         RankTolerance{3, 2})
                  .ok);
  // Stream 5 ranks 6th: fails.
  EXPECT_FALSE(Oracle::CheckRankTolerance(truth, q, Answer({0, 1, 5}),
                                          RankTolerance{3, 2})
                   .ok);
}

TEST(OracleRankTest, TiesShareBestRank) {
  const std::vector<Value> truth{50, 50, 50, 10};
  const RankQuery q = RankQuery::TopK(1);
  // All three 50s rank 1; any singleton of them passes with r=0.
  for (StreamId id : {0u, 1u, 2u}) {
    EXPECT_TRUE(Oracle::CheckRankTolerance(truth, q, Answer({id}),
                                           RankTolerance{1, 0})
                    .ok);
  }
  EXPECT_FALSE(Oracle::CheckRankTolerance(truth, q, Answer({3}),
                                          RankTolerance{1, 0})
                   .ok);
}

TEST(OracleRankTest, KnnRanksByDistance) {
  const std::vector<Value> truth{495, 460, 700, 530};
  const RankQuery q = RankQuery::NearestNeighbors(2, 500);
  // Distances: 5, 40, 200, 30. Top-2 = {0, 3}.
  EXPECT_TRUE(Oracle::CheckRankTolerance(truth, q, Answer({0, 3}),
                                         RankTolerance{2, 0})
                  .ok);
  // {0, 1} includes rank 3 -> needs r >= 1.
  EXPECT_FALSE(Oracle::CheckRankTolerance(truth, q, Answer({0, 1}),
                                          RankTolerance{2, 0})
                   .ok);
  EXPECT_TRUE(Oracle::CheckRankTolerance(truth, q, Answer({0, 1}),
                                         RankTolerance{2, 1})
                  .ok);
}

// --- Rank-query fraction checks (k-NN with fraction tolerance) ---

TEST(OracleRankFractionTest, ExactKnnPasses) {
  const std::vector<Value> truth{495, 460, 700, 530};
  const RankQuery q = RankQuery::NearestNeighbors(2, 500);
  const auto check = Oracle::CheckRankFraction(truth, q, Answer({0, 3}),
                                               FractionTolerance{0, 0});
  EXPECT_TRUE(check.ok);
  EXPECT_EQ(check.satisfying, 2u);
}

TEST(OracleRankFractionTest, OversizedAnswerCountsExtrasAsFalsePositives) {
  const std::vector<Value> truth{495, 460, 700, 530};
  const RankQuery q = RankQuery::NearestNeighbors(2, 500);
  // Answer of size 3 for k=2: the rank-3 member is a false positive.
  const auto check = Oracle::CheckRankFraction(truth, q, Answer({0, 3, 1}),
                                               FractionTolerance{0.34, 0.0});
  EXPECT_TRUE(check.ok);
  EXPECT_DOUBLE_EQ(check.f_plus, 1.0 / 3.0);
  EXPECT_EQ(check.f_minus, 0.0);
}

TEST(OracleRankFractionTest, MissingNeighborIsFalseNegative) {
  const std::vector<Value> truth{495, 460, 700, 530};
  const RankQuery q = RankQuery::NearestNeighbors(2, 500);
  // {0, 1}: stream 1 ranks 3rd (false positive), stream 3 (rank 2) missing.
  const auto check = Oracle::CheckRankFraction(truth, q, Answer({0, 1}),
                                               FractionTolerance{0.5, 0.5});
  EXPECT_DOUBLE_EQ(check.f_plus, 0.5);
  EXPECT_DOUBLE_EQ(check.f_minus, 0.5);
  EXPECT_TRUE(check.ok);  // inclusive bounds
}

}  // namespace
}  // namespace asf
