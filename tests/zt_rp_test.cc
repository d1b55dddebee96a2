#include "protocol/zt_rp.h"

#include <gtest/gtest.h>

#include "test_harness.h"
#include "tolerance/oracle.h"

namespace asf {
namespace {

void ExpectExact(const TestSystem& sys, const ZtRp& proto,
                 const RankQuery& query, const char* context) {
  const auto check = Oracle::CheckRankTolerance(
      sys.values(), query, proto.answer(), RankTolerance{query.k(), 0});
  EXPECT_TRUE(check.ok) << context;
}

TEST(ZtRpTest, InitializationEnclosesExactlyK) {
  TestSystem sys({495, 510, 480, 530, 570, 400});
  const RankQuery query = RankQuery::NearestNeighbors(2, 500);
  ZtRp proto(sys.ctx(), query);
  sys.Initialize(&proto);
  EXPECT_EQ(proto.answer().ToSortedVector(), (std::vector<StreamId>{0, 1}));
  // R between the 2nd (d=10) and 3rd (d=20) objects: [485, 515].
  EXPECT_EQ(proto.bound(), Interval(485, 515));
  EXPECT_EQ(sys.stats().InitTotal(), 18u);  // 2n probes + n deploys
  ExpectExact(sys, proto, query, "init");
}

TEST(ZtRpTest, InBoundMovementIsFree) {
  TestSystem sys({495, 510, 480, 530});
  const RankQuery query = RankQuery::NearestNeighbors(2, 500);
  ZtRp proto(sys.ctx(), query);
  sys.Initialize(&proto);
  // Swapping ranks INSIDE R costs nothing and cannot break exactness: the
  // answer is a set, and the set of the 2 nearest is unchanged.
  EXPECT_FALSE(sys.SetValue(&proto, 0, 512));
  EXPECT_FALSE(sys.SetValue(&proto, 1, 496));
  EXPECT_EQ(sys.stats().MaintenanceTotal(), 0u);
  ExpectExact(sys, proto, query, "in-bound swap");
}

TEST(ZtRpTest, EveryCrossingRecomputesEverything) {
  TestSystem sys({495, 510, 480, 530, 570, 400});
  const RankQuery query = RankQuery::NearestNeighbors(2, 500);
  ZtRp proto(sys.ctx(), query);
  sys.Initialize(&proto);
  // One leave: update (1) + probe-all (12) + deploy-all (6) = 19.
  EXPECT_TRUE(sys.SetValue(&proto, 1, 700));
  EXPECT_EQ(sys.stats().MaintenanceTotal(), 19u);
  EXPECT_EQ(proto.reinit_count(), 1u);
  EXPECT_EQ(proto.answer().ToSortedVector(), (std::vector<StreamId>{0, 2}));
  ExpectExact(sys, proto, query, "after leave");
  // One enter: same O(n) price (this is the §5.2.1 drawback FT-RP fixes).
  EXPECT_TRUE(sys.SetValue(&proto, 3, 500));
  EXPECT_EQ(proto.reinit_count(), 2u);
  EXPECT_EQ(proto.answer().ToSortedVector(), (std::vector<StreamId>{0, 3}));
  ExpectExact(sys, proto, query, "after enter");
}

TEST(ZtRpTest, TopKVariant) {
  TestSystem sys({100, 90, 80, 70});
  const RankQuery query = RankQuery::TopK(2);
  ZtRp proto(sys.ctx(), query);
  sys.Initialize(&proto);
  EXPECT_EQ(proto.bound(), Interval(85, kInf));
  sys.SetValue(&proto, 3, 95);  // new second place
  EXPECT_EQ(proto.answer().ToSortedVector(), (std::vector<StreamId>{0, 3}));
  ExpectExact(sys, proto, query, "top-k churn");
}

TEST(ZtRpTest, PopulationEqualsK) {
  TestSystem sys({10, 20});
  const RankQuery query = RankQuery::NearestNeighbors(2, 15);
  ZtRp proto(sys.ctx(), query);
  sys.Initialize(&proto);
  EXPECT_TRUE(proto.bound().all());
  EXPECT_FALSE(sys.SetValue(&proto, 0, 1e6));  // silent: all streams
                                                    // are always the answer
  ExpectExact(sys, proto, query, "n == k");
}

TEST(ZtRpTest, ScriptedChurnStaysExact) {
  TestSystem sys({495, 510, 480, 530, 570, 400});
  const RankQuery query = RankQuery::NearestNeighbors(3, 500);
  ZtRp proto(sys.ctx(), query);
  sys.Initialize(&proto);
  const std::vector<std::pair<StreamId, Value>> script{
      {4, 505}, {0, 900}, {5, 499}, {2, 100}, {1, 503}, {0, 500},
  };
  int step = 0;
  for (const auto& [id, v] : script) {
    ++step;
    sys.SetValue(&proto, id, v);
    ExpectExact(sys, proto, query,
                ("script step " + std::to_string(step)).c_str());
  }
}

}  // namespace
}  // namespace asf
