#include "protocol/heuristics.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace asf {
namespace {

TEST(HeuristicsTest, BoundaryNearestPicksSmallestPriority) {
  const std::vector<StreamId> candidates{0, 1, 2, 3, 4};
  const std::vector<double> distance{50, 5, 30, 1, 40};
  const auto picked = SelectFilterHolders(
      candidates, 2, SelectionHeuristic::kBoundaryNearest,
      [&distance](StreamId id) { return distance[id]; }, nullptr);
  EXPECT_EQ(picked, (std::vector<StreamId>{3, 1}));
}

TEST(HeuristicsTest, BoundaryNearestBreaksTiesById) {
  const std::vector<StreamId> candidates{4, 2, 0};
  const auto picked = SelectFilterHolders(
      candidates, 3, SelectionHeuristic::kBoundaryNearest,
      [](StreamId) { return 1.0; }, nullptr);
  EXPECT_EQ(picked, (std::vector<StreamId>{0, 2, 4}));
}

TEST(HeuristicsTest, CountLargerThanCandidatesTakesAll) {
  const std::vector<StreamId> candidates{7, 8};
  Rng rng(1);
  auto picked = SelectFilterHolders(candidates, 10, SelectionHeuristic::kRandom,
                                    nullptr, &rng);
  std::sort(picked.begin(), picked.end());
  EXPECT_EQ(picked, candidates);
}

TEST(HeuristicsTest, ZeroCountPicksNothing) {
  Rng rng(1);
  EXPECT_TRUE(SelectFilterHolders({1, 2, 3}, 0, SelectionHeuristic::kRandom,
                                  nullptr, &rng)
                  .empty());
  EXPECT_TRUE(SelectFilterHolders({1, 2, 3}, 0,
                                  SelectionHeuristic::kBoundaryNearest,
                                  [](StreamId) { return 0.0; }, nullptr)
                  .empty());
}

TEST(HeuristicsTest, RandomIsSubsetOfCandidates) {
  const std::vector<StreamId> candidates{10, 20, 30, 40, 50};
  Rng rng(3);
  const auto picked = SelectFilterHolders(candidates, 3,
                                          SelectionHeuristic::kRandom,
                                          nullptr, &rng);
  EXPECT_EQ(picked.size(), 3u);
  for (StreamId id : picked) {
    EXPECT_NE(std::find(candidates.begin(), candidates.end(), id),
              candidates.end());
  }
  // No duplicates.
  std::vector<StreamId> dedup = picked;
  std::sort(dedup.begin(), dedup.end());
  EXPECT_EQ(std::unique(dedup.begin(), dedup.end()), dedup.end());
}

TEST(HeuristicsTest, RandomCoversAllCandidatesOverTrials) {
  const std::vector<StreamId> candidates{0, 1, 2, 3};
  Rng rng(11);
  std::vector<int> seen(4, 0);
  for (int trial = 0; trial < 200; ++trial) {
    for (StreamId id : SelectFilterHolders(candidates, 1,
                                           SelectionHeuristic::kRandom,
                                           nullptr, &rng)) {
      ++seen[id];
    }
  }
  for (int count : seen) EXPECT_GT(count, 10);
}

TEST(HeuristicsTest, EmptyCandidates) {
  Rng rng(1);
  EXPECT_TRUE(SelectFilterHolders({}, 5, SelectionHeuristic::kRandom, nullptr,
                                  &rng)
                  .empty());
}

// Boundary-nearest selection on random candidate sets with many tied
// priorities equals, element by element, the first `take` of a full sort
// under (priority, id), for every take from empty to beyond the set.
TEST(HeuristicsTest, BoundaryNearestMatchesFullSortReference) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n =
        static_cast<std::size_t>(rng.UniformInt(0, 60));
    std::vector<StreamId> candidates;
    for (StreamId id = 0; id < 2 * n; ++id) candidates.push_back(id);
    rng.Shuffle(&candidates);
    candidates.resize(n);
    // Few distinct priorities, so most comparisons are ties.
    std::vector<double> priority(2 * n + 1);
    for (double& p : priority) p = static_cast<double>(rng.UniformInt(0, 3));
    const auto key = [&priority](StreamId id) { return priority[id]; };

    std::vector<StreamId> reference = candidates;
    std::sort(reference.begin(), reference.end(),
              [&key](StreamId a, StreamId b) {
                if (key(a) != key(b)) return key(a) < key(b);
                return a < b;
              });
    for (const std::size_t take : {std::size_t{0}, std::size_t{1}, n / 2, n,
                                   n + 5}) {
      const std::vector<StreamId> expect(
          reference.begin(),
          reference.begin() + static_cast<std::ptrdiff_t>(std::min(take, n)));
      EXPECT_EQ(SelectFilterHolders(candidates, take,
                                    SelectionHeuristic::kBoundaryNearest, key,
                                    nullptr),
                expect)
          << "trial " << trial << " take " << take;
    }
  }
}

// The random heuristic shuffles the whole candidate list whatever the take,
// so it draws the RNG exactly like a plain Shuffle and returns its prefix.
TEST(HeuristicsTest, RandomConsumesTheRngLikeAFullShuffle) {
  const std::vector<StreamId> candidates{3, 1, 4, 15, 9, 26, 5, 35};
  for (const std::size_t take : {0, 1, 4, 8, 13}) {
    Rng picked_rng(99);
    Rng reference_rng(99);
    const auto picked = SelectFilterHolders(
        candidates, take, SelectionHeuristic::kRandom, nullptr, &picked_rng);
    std::vector<StreamId> reference = candidates;
    reference_rng.Shuffle(&reference);
    reference.resize(std::min(take, reference.size()));
    EXPECT_EQ(picked, reference) << "take " << take;
    EXPECT_EQ(picked_rng.NextSeed(), reference_rng.NextSeed())
        << "take " << take;
  }
}

TEST(HeuristicsTest, Names) {
  EXPECT_EQ(SelectionHeuristicName(SelectionHeuristic::kRandom), "random");
  EXPECT_EQ(SelectionHeuristicName(SelectionHeuristic::kBoundaryNearest),
            "boundary-nearest");
  EXPECT_EQ(ReinitPolicyName(ReinitPolicy::kNever), "never");
  EXPECT_EQ(ReinitPolicyName(ReinitPolicy::kWhenExhausted), "when-exhausted");
}

}  // namespace
}  // namespace asf
