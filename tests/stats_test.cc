#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

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

TEST(OnlineStatsTest, MergeMatchesSequential) {
  OnlineStats all;
  OnlineStats left;
  OnlineStats right;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10 + i * 0.1;
    all.Add(x);
    (i < 37 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-10);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
}

TEST(OnlineStatsTest, MergeWithEmpty) {
  OnlineStats a;
  a.Add(1);
  a.Add(2);
  OnlineStats empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.5);
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
