#include "geo/geometry.h"

#include <gtest/gtest.h>

#include "common/stats.h"
#include "geo/plane_filter.h"
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

TEST(RectTest, DegenerateForms) {
  EXPECT_TRUE(Rect::Empty().empty());
  EXPECT_FALSE(Rect::Empty().Contains({0, 0}));
  EXPECT_TRUE(Rect::All().all());
  EXPECT_TRUE(Rect::All().Contains({1e308, -1e308}));
  // One empty axis empties the rect.
  EXPECT_TRUE(Rect(Interval(0, 1), Interval::Never()).empty());
}

TEST(RectTest, DistanceToBoundaryInside) {
  const Rect r(0, 10, 0, 10);
  EXPECT_EQ(r.DistanceToBoundary({5, 5}), 5.0);   // center
  EXPECT_EQ(r.DistanceToBoundary({1, 5}), 1.0);   // near left edge
  EXPECT_EQ(r.DistanceToBoundary({5, 9}), 1.0);   // near top edge
  EXPECT_EQ(r.DistanceToBoundary({0, 5}), 0.0);   // on the edge
}

TEST(RectTest, DistanceToBoundaryOutside) {
  const Rect r(0, 10, 0, 10);
  EXPECT_EQ(r.DistanceToBoundary({15, 5}), 5.0);   // straight out the side
  EXPECT_EQ(r.DistanceToBoundary({13, 14}), 5.0);  // corner: 3-4-5
  EXPECT_EQ(r.DistanceToBoundary({-6, -8}), 10.0);
}

TEST(RectTest, Equality) {
  EXPECT_EQ(Rect(0, 1, 0, 1), Rect(0, 1, 0, 1));
  EXPECT_EQ(Rect::Empty(), Rect(Interval(5, 1), Interval(0, 1)));
  EXPECT_FALSE(Rect(0, 1, 0, 1) == Rect(0, 1, 0, 2));
}

TEST(DiskTest, ContainsClosedBoundary) {
  const Disk d{{0, 0}, 5};
  EXPECT_TRUE(d.Contains({3, 4}));  // exactly on the boundary
  EXPECT_TRUE(d.Contains({0, 0}));
  EXPECT_FALSE(d.Contains({3.1, 4}));
}

// --- Plane filter semantics ---

TEST(PlaneFilterTest, NoFilterReportsEverything) {
  PlaneFilter f;
  EXPECT_TRUE(f.OnMove({0, 0}));
  EXPECT_TRUE(f.OnMove({0, 0}));
}

TEST(PlaneFilterTest, CrossingSemantics) {
  PlaneFilter f;
  f.Deploy(PlaneConstraint::Range(Rect(0, 10, 0, 10)), {5, 5});
  EXPECT_TRUE(f.reference_inside());
  EXPECT_FALSE(f.OnMove({9, 9}));     // inside -> inside: silent
  EXPECT_TRUE(f.OnMove({11, 9}));     // leaves
  EXPECT_FALSE(f.OnMove({20, 20}));   // outside -> outside: silent
  EXPECT_TRUE(f.OnMove({10, 10}));    // re-enters (closed corner)
}

TEST(PlaneFilterTest, SilentForms) {
  PlaneFilter fp;
  fp.Deploy(PlaneConstraint::FalsePositive(), {0, 0});
  EXPECT_FALSE(fp.OnMove({1e308, -1e308}));

  PlaneFilter fn;
  fn.Deploy(PlaneConstraint::FalseNegative(), {0, 0});
  EXPECT_FALSE(fn.OnMove({5, 5}));
  EXPECT_TRUE(fn.constraint().IsFalseNegativeFilter());
  EXPECT_TRUE(fp.constraint().IsFalsePositiveFilter());
}

TEST(PlaneFilterTest, DeployResetsReference) {
  PlaneFilter f;
  f.Deploy(PlaneConstraint::Range(Rect(0, 10, 0, 10)), {5, 5});
  EXPECT_TRUE(f.OnMove({20, 20}));
  f.Deploy(PlaneConstraint::Range(Rect(15, 25, 15, 25)), {20, 20});
  EXPECT_FALSE(f.OnMove({24, 24}));
  EXPECT_TRUE(f.OnMove({26, 24}));
}

TEST(PlaneFilterTest, SyncReferenceAfterProbe) {
  PlaneFilter f;
  f.Deploy(PlaneConstraint::Range(Rect(0, 10, 0, 10)), {5, 5});
  EXPECT_TRUE(f.OnMove({20, 20}));
  f.SyncReference({20, 20});
  EXPECT_FALSE(f.OnMove({21, 21}));
  EXPECT_TRUE(f.OnMove({5, 5}));
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
