#include "protocol/zt_nrp.h"

#include <gtest/gtest.h>

#include "protocol/no_filter.h"
#include "test_harness.h"
#include "tolerance/oracle.h"

namespace asf {
namespace {

TEST(ZtNrpTest, InitializationDeploysRangeEverywhere) {
  TestSystem sys({450, 700, 500, 100});
  ZtNrp proto(sys.ctx(), RangeQuery(400, 600));
  sys.Initialize(&proto);
  EXPECT_EQ(proto.answer().ToSortedVector(), (std::vector<StreamId>{0, 2}));
  // probe-all (2n) + deploy-all (n) = 3n = 12.
  EXPECT_EQ(sys.stats().InitTotal(), 12u);
  for (StreamId id = 0; id < 4; ++id) {
    EXPECT_EQ(sys.filter(id).constraint(),
              FilterConstraint::Range(Interval(400, 600)));
  }
}

TEST(ZtNrpTest, InRangeWiggleIsFree) {
  TestSystem sys({450, 700});
  ZtNrp proto(sys.ctx(), RangeQuery(400, 600));
  sys.Initialize(&proto);
  // Movement that stays on one side of the boundary costs nothing.
  EXPECT_FALSE(sys.SetValue(&proto, 0, 599));
  EXPECT_FALSE(sys.SetValue(&proto, 1, 1000));
  EXPECT_EQ(sys.stats().MaintenanceTotal(), 0u);
  EXPECT_EQ(proto.answer().ToSortedVector(), (std::vector<StreamId>{0}));
}

TEST(ZtNrpTest, CrossingsFlipMembership) {
  TestSystem sys({450, 700});
  ZtNrp proto(sys.ctx(), RangeQuery(400, 600));
  sys.Initialize(&proto);
  EXPECT_TRUE(sys.SetValue(&proto, 0, 650));  // leaves
  EXPECT_TRUE(proto.answer().empty());
  EXPECT_TRUE(sys.SetValue(&proto, 1, 500));  // enters
  EXPECT_EQ(proto.answer().ToSortedVector(), (std::vector<StreamId>{1}));
  EXPECT_EQ(sys.stats().MaintenanceTotal(), 2u);
}

TEST(ZtNrpTest, AnswerIsAlwaysExact) {
  TestSystem sys({450, 700, 350, 500, 601});
  ZtNrp proto(sys.ctx(), RangeQuery(400, 600));
  sys.Initialize(&proto);
  const RangeQuery query(400, 600);
  // Scripted churn; after every step the oracle must see zero error.
  const std::vector<std::pair<StreamId, Value>> script{
      {0, 601}, {1, 600}, {2, 400}, {3, 399.9}, {4, 601.1},
      {0, 400}, {2, 200}, {1, 601}, {3, 500},   {4, 600},
  };
  for (const auto& [id, v] : script) {
    sys.SetValue(&proto, id, v);
    const auto check = Oracle::CheckRangeFraction(
        sys.values(), query, proto.answer(), FractionTolerance{0, 0});
    EXPECT_TRUE(check.ok) << "after setting " << id << " to " << v;
  }
}

TEST(ZtNrpTest, BoundaryValuesAreInside) {
  TestSystem sys({100});
  ZtNrp proto(sys.ctx(), RangeQuery(400, 600));
  sys.Initialize(&proto);
  EXPECT_TRUE(sys.SetValue(&proto, 0, 400));  // closed endpoint enters
  EXPECT_TRUE(proto.answer().Contains(0));
  EXPECT_FALSE(sys.SetValue(&proto, 0, 600));  // still inside
  EXPECT_TRUE(sys.SetValue(&proto, 0, 600.0001));
  EXPECT_FALSE(proto.answer().Contains(0));
}

TEST(ZtNrpTest, EmptyInitialAnswer) {
  TestSystem sys({100, 200});
  ZtNrp proto(sys.ctx(), RangeQuery(400, 600));
  sys.Initialize(&proto);
  EXPECT_TRUE(proto.answer().empty());
  sys.SetValue(&proto, 0, 500);
  EXPECT_EQ(proto.answer().size(), 1u);
}

TEST(ZtNrpTest, CheaperThanNoFilterOnNonCrossingWorkload) {
  // The whole point of filters: a jittery stream that never crosses the
  // boundary generates zero traffic under ZT-NRP but constant traffic
  // under NoFilter.
  TestSystem zt_sys({500});
  ZtNrp zt(zt_sys.ctx(), RangeQuery(400, 600));
  zt_sys.Initialize(&zt);

  TestSystem nf_sys({500});
  NoFilterProtocol nf(nf_sys.ctx(), RangeQuery(400, 600));
  nf_sys.Initialize(&nf);

  for (int i = 0; i < 100; ++i) {
    const Value v = 500 + (i % 10);
    zt_sys.SetValue(&zt, 0, v);
    nf_sys.SetValue(&nf, 0, v);
  }
  EXPECT_EQ(zt_sys.stats().MaintenanceTotal(), 0u);
  EXPECT_EQ(nf_sys.stats().MaintenanceTotal(), 100u);
}

}  // namespace
}  // namespace asf
