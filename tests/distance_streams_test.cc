#include "geo/distance_streams.h"

#include <gtest/gtest.h>

#include "engine/system.h"
#include "query/ranking.h"
#include "tolerance/oracle.h"

namespace asf {
namespace {

PlaneWalkConfig SmallWalk(std::uint64_t seed = 3) {
  PlaneWalkConfig config;
  config.num_streams = 80;
  config.sigma = 30;
  config.seed = seed;
  return config;
}

TEST(DistanceStreamsTest, InitialValuesAreDistances) {
  PlaneWalkStreams plane(SmallWalk());
  const Point2 q{500, 500};
  DistanceStreamSet distances(&plane, q);
  ASSERT_EQ(distances.size(), plane.size());
  for (StreamId id = 0; id < plane.size(); ++id) {
    EXPECT_DOUBLE_EQ(distances.value(id), Distance(plane.position(id), q));
  }
}

TEST(DistanceStreamsTest, UpdatesTrackMoves) {
  PlaneWalkStreams plane(SmallWalk());
  const Point2 q{500, 500};
  DistanceStreamSet distances(&plane, q);
  Scheduler sched;
  std::uint64_t updates = 0;
  distances.set_update_handler([&](StreamId id, Value v, SimTime) {
    ++updates;
    EXPECT_DOUBLE_EQ(v, Distance(plane.position(id), q));
  });
  distances.Start(&sched, 500);
  sched.RunUntil(500);
  EXPECT_EQ(updates, plane.moves_generated());
  EXPECT_GT(updates, 500u);
}

TEST(DistanceStreamsTest, RectViewIsTheSignedDistance) {
  // Membership in the rectangle is exactly "signed distance <= 0".
  PlaneWalkStreams plane(SmallWalk(29));
  const Rect zone(300, 700, 300, 700);
  DistanceStreamSet signed_distances(&plane, zone);
  for (StreamId id = 0; id < plane.size(); ++id) {
    EXPECT_EQ(signed_distances.value(id),
              zone.SignedDistance(plane.position(id)));
  }
  Scheduler sched;
  std::uint64_t updates = 0;
  std::uint64_t inside = 0;
  signed_distances.set_update_handler([&](StreamId id, Value v, SimTime) {
    ++updates;
    EXPECT_EQ(v, zone.SignedDistance(plane.position(id)));
    EXPECT_EQ(v <= 0, zone.Contains(plane.position(id)));
    inside += v <= 0;
  });
  signed_distances.Start(&sched, 500);
  sched.RunUntil(500);
  EXPECT_EQ(updates, plane.moves_generated());
  EXPECT_GT(inside, 0u);
  EXPECT_LT(inside, updates);
}

TEST(DistanceStreamsTest, BottomKIsTheTrue2dKnn) {
  // The reduction's soundness: the k smallest derived values identify the
  // k nearest points in the plane.
  PlaneWalkStreams plane(SmallWalk(9));
  const Point2 q{400, 600};
  DistanceStreamSet distances(&plane, q);
  Scheduler sched;
  distances.Start(&sched, 300);
  sched.RunUntil(300);

  const auto by_derived =
      TopKIds(RankQuery::BottomK(5), distances.values(), 5);
  // Brute-force 2-D 5-NN.
  std::vector<std::pair<double, StreamId>> brute;
  for (StreamId id = 0; id < plane.size(); ++id) {
    brute.push_back({Distance(plane.position(id), q), id});
  }
  std::sort(brute.begin(), brute.end());
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(by_derived[i], brute[i].second) << i;
  }
}

// The headline of the reduction: the UNMODIFIED 1-D protocols serve the
// 2-D k-NN query through the derived stream, tolerances intact.

TEST(DistanceStreamsTest, RtpServes2dKnnThroughTheEngine) {
  PlaneWalkStreams plane(SmallWalk(17));
  DistanceStreamSet distances(&plane, {500, 500});

  SystemConfig config;
  config.source = SourceSpec::Custom(&distances);
  config.query = QuerySpec::BottomK(8);
  config.protocol = ProtocolKind::kRtp;
  config.rank_r = 4;
  config.duration = 400;
  config.oracle.check_every_update = true;
  auto result = RunSystem(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->oracle_checks, 500u);
  // The oracle judges ranks over derived distances == 2-D ranks.
  EXPECT_EQ(result->oracle_violations, 0u);
  EXPECT_DOUBLE_EQ(result->answer_size.min(), 8.0);
  EXPECT_DOUBLE_EQ(result->answer_size.max(), 8.0);
}

TEST(DistanceStreamsTest, FtRpServes2dKnnThroughTheEngine) {
  PlaneWalkStreams plane(SmallWalk(19));
  DistanceStreamSet distances(&plane, {500, 500});

  SystemConfig config;
  config.source = SourceSpec::Custom(&distances);
  config.query = QuerySpec::BottomK(10);
  config.protocol = ProtocolKind::kFtRp;
  config.fraction = {0.3, 0.3};
  config.duration = 400;
  config.oracle.check_every_update = true;
  auto result = RunSystem(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->oracle_violations, 0u)
      << "maxF+=" << result->max_f_plus << " maxF-=" << result->max_f_minus;
}

TEST(DistanceStreamsTest, DeployedBoundIsADiskPredicate) {
  // The filter interval (-inf, d] on the derived stream is exactly the
  // disk of radius d around q on positions: verify on the live system by
  // checking that a protocol-deployed bound classifies points like the
  // disk.
  PlaneWalkStreams plane(SmallWalk(23));
  const Point2 q{500, 500};
  DistanceStreamSet distances(&plane, q);
  const RankQuery query = RankQuery::BottomK(5);
  // Any threshold: membership agreement is what matters.
  const Interval bound = query.ScoreBall(120.0);
  for (StreamId id = 0; id < plane.size(); ++id) {
    EXPECT_EQ(bound.Contains(distances.value(id)),
              Distance(plane.position(id), q) <= 120.0)
        << id;
  }
}

TEST(DistanceStreamsTest, CustomSourceValidation) {
  SystemConfig config;
  config.source = SourceSpec::Custom(nullptr);
  config.query = QuerySpec::BottomK(5);
  config.protocol = ProtocolKind::kZtRp;
  EXPECT_FALSE(RunSystem(config).ok());
}

}  // namespace
}  // namespace asf
