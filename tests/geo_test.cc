#include "geo/geometry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/stats.h"
#include "geo/plane_walk.h"
#include "sim/scheduler.h"

namespace asf {
namespace {

// --- Geometry primitives ---

TEST(Point2Test, Distance) {
  EXPECT_EQ(Distance({0, 0}, {3, 4}), 5.0);
  EXPECT_EQ(Distance({1, 1}, {1, 1}), 0.0);
  EXPECT_EQ(Distance({-3, 0}, {0, -4}), 5.0);
}

TEST(RectTest, ContainsClosedEdges) {
  const Rect r(0, 10, 20, 30);
  EXPECT_TRUE(r.Contains({0, 20}));    // corner
  EXPECT_TRUE(r.Contains({10, 30}));   // opposite corner
  EXPECT_TRUE(r.Contains({5, 25}));    // interior
  EXPECT_FALSE(r.Contains({5, 19.9}));
  EXPECT_FALSE(r.Contains({10.1, 25}));
}

TEST(RectTest, SignedDistanceInside) {
  const Rect r(0, 10, 0, 10);
  EXPECT_EQ(r.SignedDistance({5, 5}), -5.0);  // center
  EXPECT_EQ(r.SignedDistance({1, 5}), -1.0);  // near left edge
  EXPECT_EQ(r.SignedDistance({5, 9}), -1.0);  // near top edge
}

TEST(RectTest, SignedDistanceOutside) {
  const Rect r(0, 10, 0, 10);
  EXPECT_EQ(r.SignedDistance({15, 5}), 5.0);   // straight out the side
  EXPECT_EQ(r.SignedDistance({13, 14}), 5.0);  // corner: 3-4-5
  EXPECT_EQ(r.SignedDistance({-6, -8}), 10.0);
}

TEST(RectTest, SignedDistanceOnAnEdgeIsNegativeZero) {
  const Rect r(0, 10, 0, 10);
  for (const Point2 p : {Point2{0, 5}, Point2{10, 10}, Point2{5, 0}}) {
    const double d = r.SignedDistance(p);
    EXPECT_EQ(d, 0.0);
    EXPECT_TRUE(std::signbit(d)) << p.x << "," << p.y;
  }
}

TEST(RectTest, SignedDistanceOfAnEmptyRectIsInfinite) {
  const Rect empty(5, 1, 0, 1);  // lo > hi on x
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.SignedDistance({3, 0.5}), kInf);
  EXPECT_EQ(Rect(0, 1, 1, 0).SignedDistance({0, 0}), kInf);  // empty on y
}

TEST(RectTest, SignedDistanceStaysPositiveWhenTheSquareUnderflows) {
  // (-1e-200)^2 underflows to 0, but the point is outside.
  const Rect r(0, 100, 0, 100);
  const Point2 p{-1e-200, 50};
  EXPECT_FALSE(r.Contains(p));
  EXPECT_GT(r.SignedDistance(p), 0.0);
  EXPECT_EQ(r.SignedDistance(p), 1e-200);
  // The smallest subnormal offset too.
  const double tiny = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(r.SignedDistance({50, -tiny}), tiny);
}

// --- Plane walk workload ---

TEST(PlaneWalkTest, ConfigValidation) {
  PlaneWalkConfig ok;
  EXPECT_TRUE(ok.Validate().ok());
  PlaneWalkConfig bad = ok;
  bad.num_streams = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = ok;
  bad.domain_hi = bad.domain_lo;
  EXPECT_FALSE(bad.Validate().ok());
  bad = ok;
  bad.sigma = -1;
  EXPECT_FALSE(bad.Validate().ok());
  // Non-finite walks would feed NaN or infinite positions to the engine.
  bad = ok;
  bad.sigma = std::nan("");
  EXPECT_FALSE(bad.Validate().ok());
  bad = ok;
  bad.domain_hi = kInf;
  EXPECT_FALSE(bad.Validate().ok());
  // Finite bounds whose span overflows draw non-finite positions too.
  bad = ok;
  bad.domain_lo = -1e308;
  bad.domain_hi = 1e308;
  EXPECT_FALSE(bad.Validate().ok());
  bad = ok;
  bad.num_streams = kMaxStreams + 1;
  EXPECT_FALSE(bad.Validate().ok());
  bad.num_streams = kMaxStreams;
  EXPECT_TRUE(bad.Validate().ok());
}

TEST(PlaneWalkTest, InitialPositionsUniformInDomain) {
  PlaneWalkConfig config;
  config.num_streams = 5000;
  config.seed = 3;
  PlaneWalkStreams walk(config);
  OnlineStats xs;
  OnlineStats ys;
  for (StreamId id = 0; id < walk.size(); ++id) {
    const Point2& p = walk.position(id);
    EXPECT_GE(p.x, 0);
    EXPECT_LT(p.x, 1000);
    EXPECT_GE(p.y, 0);
    EXPECT_LT(p.y, 1000);
    xs.Add(p.x);
    ys.Add(p.y);
  }
  EXPECT_NEAR(xs.mean(), 500, 15);
  EXPECT_NEAR(ys.mean(), 500, 15);
}

TEST(PlaneWalkTest, MovesStayInDomainAndNotify) {
  PlaneWalkConfig config;
  config.num_streams = 50;
  config.sigma = 300;  // violent steps stress the reflection
  config.seed = 5;
  PlaneWalkStreams walk(config);
  Scheduler sched;
  std::uint64_t seen = 0;
  walk.set_move_handler([&](StreamId, const Point2& p, SimTime) {
    ++seen;
    EXPECT_GE(p.x, 0);
    EXPECT_LE(p.x, 1000);
    EXPECT_GE(p.y, 0);
    EXPECT_LE(p.y, 1000);
  });
  walk.Start(&sched, 1000);
  sched.RunUntil(1000);
  EXPECT_EQ(seen, walk.moves_generated());
  EXPECT_GT(seen, 1000u);
}

TEST(PlaneWalkTest, Deterministic) {
  PlaneWalkConfig config;
  config.num_streams = 20;
  config.seed = 7;
  std::vector<Point2> first;
  for (int run = 0; run < 2; ++run) {
    PlaneWalkStreams walk(config);
    Scheduler sched;
    walk.Start(&sched, 300);
    sched.RunUntil(300);
    if (run == 0) {
      first = walk.positions();
    } else {
      EXPECT_EQ(walk.positions(), first);
    }
  }
}

}  // namespace
}  // namespace asf
