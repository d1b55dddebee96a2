#include "filter/filter.h"

#include <gtest/gtest.h>

#include "filter/constraint.h"

namespace asf {
namespace {

// --- FilterConstraint ---

TEST(ConstraintTest, DefaultIsNoFilter) {
  FilterConstraint c;
  EXPECT_FALSE(c.has_filter());
  EXPECT_FALSE(c.IsSilent());
  EXPECT_EQ(c.ToString(), "none");
}

TEST(ConstraintTest, RangeConstraint) {
  FilterConstraint c = FilterConstraint::Range(Interval(400, 600));
  EXPECT_TRUE(c.has_filter());
  EXPECT_FALSE(c.IsFalsePositiveFilter());
  EXPECT_FALSE(c.IsFalseNegativeFilter());
  EXPECT_EQ(c.interval(), Interval(400, 600));
}

TEST(ConstraintTest, FalsePositiveFilterIsSilentAllInterval) {
  FilterConstraint c = FilterConstraint::FalsePositive();
  EXPECT_TRUE(c.IsFalsePositiveFilter());
  EXPECT_FALSE(c.IsFalseNegativeFilter());
  EXPECT_TRUE(c.IsSilent());
  EXPECT_TRUE(c.interval().all());
  EXPECT_EQ(c.ToString(), "FP[-inf, inf]");
}

TEST(ConstraintTest, FalseNegativeFilterIsSilentEmptyInterval) {
  FilterConstraint c = FilterConstraint::FalseNegative();
  EXPECT_TRUE(c.IsFalseNegativeFilter());
  EXPECT_TRUE(c.IsSilent());
  EXPECT_TRUE(c.interval().empty());
  EXPECT_EQ(c.ToString(), "FN[empty]");
}

TEST(ConstraintTest, Equality) {
  EXPECT_EQ(FilterConstraint::NoFilter(), FilterConstraint::NoFilter());
  EXPECT_EQ(FilterConstraint::Range(Interval(1, 2)),
            FilterConstraint::Range(Interval(1, 2)));
  EXPECT_NE(FilterConstraint::Range(Interval(1, 2)),
            FilterConstraint::Range(Interval(1, 3)));
  EXPECT_NE(FilterConstraint::NoFilter(),
            FilterConstraint::Range(Interval::Always()));
}

// --- Filter crossing semantics (paper §3.1) ---

TEST(FilterTest, NoFilterReportsEveryChange) {
  Filter f;
  EXPECT_TRUE(f.OnValueChange(1));
  EXPECT_TRUE(f.OnValueChange(1));  // even a same-value "change"
  EXPECT_TRUE(f.OnValueChange(1000));
}

TEST(FilterTest, InsideToOutsideViolates) {
  // Paper case (1): V' in [l,u], V not in [l,u].
  Filter f;
  f.Deploy(FilterConstraint::Range(Interval(400, 600)), 500);
  EXPECT_TRUE(f.reference_inside());
  EXPECT_TRUE(f.OnValueChange(700));
  EXPECT_FALSE(f.reference_inside());
}

TEST(FilterTest, OutsideToInsideViolates) {
  // Paper case (2): V' not in [l,u], V in [l,u].
  Filter f;
  f.Deploy(FilterConstraint::Range(Interval(400, 600)), 100);
  EXPECT_FALSE(f.reference_inside());
  EXPECT_TRUE(f.OnValueChange(450));
  EXPECT_TRUE(f.reference_inside());
}

TEST(FilterTest, MovementWithinIntervalIsSilent) {
  Filter f;
  f.Deploy(FilterConstraint::Range(Interval(400, 600)), 500);
  EXPECT_FALSE(f.OnValueChange(401));
  EXPECT_FALSE(f.OnValueChange(599));
  EXPECT_FALSE(f.OnValueChange(600));  // boundary is inside (closed)
}

TEST(FilterTest, MovementOutsideIntervalIsSilent) {
  Filter f;
  f.Deploy(FilterConstraint::Range(Interval(400, 600)), 100);
  EXPECT_FALSE(f.OnValueChange(399.9));
  EXPECT_FALSE(f.OnValueChange(1e6));
  EXPECT_FALSE(f.OnValueChange(601));
}

TEST(FilterTest, ReportAdvancesReference) {
  // After reporting a crossing, the new value is the reference: moving
  // back across the boundary violates again.
  Filter f;
  f.Deploy(FilterConstraint::Range(Interval(400, 600)), 500);
  EXPECT_TRUE(f.OnValueChange(700));   // out
  EXPECT_TRUE(f.OnValueChange(500));   // back in
  EXPECT_TRUE(f.OnValueChange(300));   // out again
  EXPECT_FALSE(f.OnValueChange(350));  // still out: silent
}

TEST(FilterTest, FalsePositiveFilterNeverReports) {
  Filter f;
  f.Deploy(FilterConstraint::FalsePositive(), 500);
  EXPECT_FALSE(f.OnValueChange(1e308));
  EXPECT_FALSE(f.OnValueChange(-1e308));
}

TEST(FilterTest, FalseNegativeFilterNeverReports) {
  Filter f;
  f.Deploy(FilterConstraint::FalseNegative(), 500);
  EXPECT_FALSE(f.OnValueChange(0));
  EXPECT_FALSE(f.OnValueChange(kInf));
}

TEST(FilterTest, DeployResetsReferenceToCurrentValue) {
  Filter f;
  f.Deploy(FilterConstraint::Range(Interval(0, 10)), 5);
  EXPECT_TRUE(f.OnValueChange(20));  // leaves
  // New constraint around the current value 20: no spurious report.
  f.Deploy(FilterConstraint::Range(Interval(15, 25)), 20);
  EXPECT_TRUE(f.reference_inside());
  EXPECT_FALSE(f.OnValueChange(24));
  EXPECT_TRUE(f.OnValueChange(26));
}

TEST(FilterTest, SyncReferenceAfterProbe) {
  Filter f;
  f.Deploy(FilterConstraint::Range(Interval(0, 10)), 5);
  // The value drifts out; the filter fires once and goes quiet.
  EXPECT_TRUE(f.OnValueChange(12));
  EXPECT_FALSE(f.OnValueChange(14));
  // Server probes while the value is 14 (outside): reference stays outside.
  f.SyncReference(14);
  EXPECT_FALSE(f.OnValueChange(15));
  EXPECT_TRUE(f.OnValueChange(5));
  // Probe right after an unreported drift would also resync:
  f.SyncReference(5);
  EXPECT_FALSE(f.OnValueChange(6));
}

TEST(FilterTest, HalfInfiniteConstraint) {
  // Top-k style bound [100, +inf).
  Filter f;
  f.Deploy(FilterConstraint::Range(Interval(100, kInf)), 50);
  EXPECT_FALSE(f.OnValueChange(99));
  EXPECT_TRUE(f.OnValueChange(100));   // enters (closed endpoint)
  EXPECT_FALSE(f.OnValueChange(1e9));
  EXPECT_TRUE(f.OnValueChange(99.9));  // leaves
}

}  // namespace
}  // namespace asf
