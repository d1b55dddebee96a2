#include "common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace asf {
namespace {

TEST(OnlineStatsTest, EmptyDefaults) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(OnlineStatsTest, SingleValue) {
  OnlineStats s;
  s.Add(7);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 7.0);
  EXPECT_EQ(s.variance(), 0.0);  // n-1 denominator needs 2 samples
  EXPECT_EQ(s.min(), 7.0);
  EXPECT_EQ(s.max(), 7.0);
  EXPECT_EQ(s.sum(), 7.0);
}

TEST(OnlineStatsTest, KnownMoments) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1: sum sq dev = 32, n-1 = 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.sum(), 40.0);
}

TEST(OnlineStatsTest, NegativeValuesTrackMinMax) {
  OnlineStats s;
  s.Add(-5);
  s.Add(3);
  s.Add(-10);
  EXPECT_EQ(s.min(), -10.0);
  EXPECT_EQ(s.max(), 3.0);
}

/// AddRepeated(x, k) is the engine's run-length answer-size sampling; it
/// must equal k calls of Add(x), including k = 0 (a no-op even on an
/// empty accumulator) and a first batch landing on an empty one.
TEST(OnlineStatsTest, AddRepeatedMatchesRepeatedAdd) {
  OnlineStats batched;
  OnlineStats reference;
  const auto add_repeated = [&](double x, std::uint64_t k) {
    batched.AddRepeated(x, k);
    for (std::uint64_t i = 0; i < k; ++i) reference.Add(x);
  };
  const auto add = [&](double x) {
    batched.Add(x);
    reference.Add(x);
  };
  add_repeated(-1e6, 0);  // must not seed min/max
  EXPECT_EQ(batched.count(), 0u);
  add_repeated(3.5, 4);  // the first samples arrive as a batch
  for (int i = 0; i < 60; ++i) {
    const double x = std::sin(i) * 10 + i * 0.1;
    if (i % 3 == 0) add(x);
    add_repeated(x, static_cast<std::uint64_t>(i % 5));
    if (i % 7 == 0) add_repeated(1e6, 0);
    if (i == 31) add_repeated(-2.25, 1000);
  }

  const auto near = [](double got, double want) {
    return std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want));
  };
  EXPECT_EQ(batched.count(), reference.count());
  EXPECT_EQ(batched.min(), reference.min());
  EXPECT_EQ(batched.max(), reference.max());
  EXPECT_TRUE(near(batched.mean(), reference.mean()))
      << batched.mean() << " vs " << reference.mean();
  EXPECT_TRUE(near(batched.variance(), reference.variance()))
      << batched.variance() << " vs " << reference.variance();
  EXPECT_TRUE(near(batched.sum(), reference.sum()))
      << batched.sum() << " vs " << reference.sum();
}

TEST(OnlineStatsTest, ToStringContainsFields) {
  OnlineStats s;
  s.Add(1);
  const std::string str = s.ToString();
  EXPECT_NE(str.find("count=1"), std::string::npos);
  EXPECT_NE(str.find("mean=1"), std::string::npos);
}

}  // namespace
}  // namespace asf
