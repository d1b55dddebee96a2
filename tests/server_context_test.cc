#include "protocol/server_context.h"

#include <gtest/gtest.h>

#include "test_harness.h"

namespace asf {
namespace {

TEST(ServerContextTest, CacheStartsCold) {
  TestSystem sys({10, 20, 30});
  EXPECT_EQ(sys.ctx()->num_streams(), 3u);
  EXPECT_EQ(sys.ctx()->cached(0), 0.0);
}

TEST(ServerContextTest, ProbeCountsRequestAndResponse) {
  TestSystem sys({10, 20});
  const Value v = sys.ctx()->Probe(1);
  EXPECT_EQ(v, 20);
  EXPECT_EQ(sys.ctx()->cached(1), 20);
  EXPECT_EQ(sys.stats().count(MessagePhase::kInit, MessageType::kProbeRequest),
            1u);
  EXPECT_EQ(
      sys.stats().count(MessagePhase::kInit, MessageType::kProbeResponse),
      1u);
  EXPECT_EQ(sys.stats().Total(), 2u);
}

TEST(ServerContextTest, ProbeAllCostsTwoPerStream) {
  TestSystem sys({1, 2, 3, 4});
  sys.ctx()->ProbeAll();
  EXPECT_EQ(sys.stats().Total(), 8u);
  for (StreamId id = 0; id < 4; ++id) {
    EXPECT_EQ(sys.ctx()->cached(id), sys.value(id));
  }
}

TEST(ServerContextTest, RegionProbeOnlyRespondsInside) {
  TestSystem sys({100, 500});
  // Stream 0 (value 100) is outside [400, 600]: request counted, no
  // response, cache untouched.
  EXPECT_FALSE(sys.ctx()->RegionProbe(0, Interval(400, 600)));
  EXPECT_EQ(sys.ctx()->cached(0), 0.0);
  EXPECT_EQ(sys.stats().count(MessagePhase::kInit,
                              MessageType::kRegionProbeRequest),
            1u);
  EXPECT_EQ(
      sys.stats().count(MessagePhase::kInit, MessageType::kProbeResponse),
      0u);
  // Stream 1 (value 500) responds and refreshes the cache.
  EXPECT_TRUE(sys.ctx()->RegionProbe(1, Interval(400, 600)));
  EXPECT_EQ(sys.ctx()->cached(1), 500);
  EXPECT_EQ(
      sys.stats().count(MessagePhase::kInit, MessageType::kProbeResponse),
      1u);
}

TEST(ServerContextTest, DeployInstallsAndRecords) {
  TestSystem sys({50});
  const FilterConstraint c = FilterConstraint::Range(Interval(0, 100));
  sys.ctx()->Deploy(0, c);
  EXPECT_TRUE(sys.filter(0).constraint() == c);
  EXPECT_TRUE(sys.filter(0).reference_inside());
  EXPECT_EQ(sys.stats().count(MessagePhase::kInit, MessageType::kFilterDeploy),
            1u);
}

TEST(ServerContextTest, DeployAllCostsOnePerStream) {
  TestSystem sys({1, 2, 3});
  sys.ctx()->DeployAll(FilterConstraint::FalsePositive());
  EXPECT_EQ(sys.stats().Total(), 3u);
  EXPECT_EQ(sys.CountFalsePositiveFilters(), 3u);
}

TEST(ServerContextTest, RecordReportRefreshesCacheWithoutMessages) {
  TestSystem sys({5});
  sys.ctx()->RecordReport(0, 42);
  EXPECT_EQ(sys.ctx()->cached(0), 42);
  EXPECT_EQ(sys.stats().Total(), 0u);
}

TEST(ServerContextTest, ProbeSyncsClientFilterReference) {
  TestSystem sys({50});
  sys.ctx()->Deploy(0, FilterConstraint::Range(Interval(0, 100)));
  // Drift out silently is impossible with a range filter; but a probe after
  // deployment must leave the reference consistent with the probed value.
  sys.ctx()->Probe(0);
  EXPECT_TRUE(sys.filter(0).reference_inside());
}

TEST(ServerContextTest, RegionProbeGroupReturnsResponders) {
  TestSystem sys({100, 500, 450, 900});
  const auto responders =
      sys.ctx()->RegionProbeGroup({0, 1, 2, 3}, Interval(400, 600));
  EXPECT_EQ(responders, (std::vector<StreamId>{1, 2}));
  // 4 requests + 2 responses.
  EXPECT_EQ(sys.stats().count(MessagePhase::kInit,
                              MessageType::kRegionProbeRequest),
            4u);
  EXPECT_EQ(
      sys.stats().count(MessagePhase::kInit, MessageType::kProbeResponse),
      2u);
}

TEST(ServerContextTest, BroadcastModelChargesDeployAllOnce) {
  TestSystem sys({1, 2, 3, 4}, BroadcastCostModel::kSingleMessage);
  sys.ctx()->DeployAll(FilterConstraint::Range(Interval(0, 10)));
  EXPECT_EQ(sys.stats().count(MessagePhase::kInit, MessageType::kFilterDeploy),
            1u);
  // The constraint still reached every stream.
  for (StreamId id = 0; id < 4; ++id) {
    EXPECT_EQ(sys.filter(id).constraint(),
              FilterConstraint::Range(Interval(0, 10)));
  }
}

TEST(ServerContextTest, BroadcastModelChargesProbeAllRequestOnce) {
  TestSystem sys({1, 2, 3, 4}, BroadcastCostModel::kSingleMessage);
  sys.ctx()->ProbeAll();
  // 1 broadcast request + 4 responses.
  EXPECT_EQ(sys.stats().count(MessagePhase::kInit, MessageType::kProbeRequest),
            1u);
  EXPECT_EQ(
      sys.stats().count(MessagePhase::kInit, MessageType::kProbeResponse),
      4u);
  EXPECT_EQ(sys.ctx()->cached(3), 4);
}

TEST(ServerContextTest, BroadcastModelChargesRegionGroupOnce) {
  TestSystem sys({100, 500, 450, 900},
                 BroadcastCostModel::kSingleMessage);
  const auto responders =
      sys.ctx()->RegionProbeGroup({0, 1, 2, 3}, Interval(400, 600));
  EXPECT_EQ(responders.size(), 2u);
  EXPECT_EQ(sys.stats().count(MessagePhase::kInit,
                              MessageType::kRegionProbeRequest),
            1u);
}

TEST(ServerContextTest, PerRecipientIsTheDefaultModel) {
  TestSystem sys({1, 2, 3});
  EXPECT_EQ(static_cast<int>(sys.ctx()->broadcast_model()),
            static_cast<int>(BroadcastCostModel::kPerRecipient));
  sys.ctx()->DeployAll(FilterConstraint::FalsePositive());
  EXPECT_EQ(sys.stats().count(MessagePhase::kInit, MessageType::kFilterDeploy),
            3u);
}

TEST(ServerContextTest, PhaseAccountingSplitsInitAndMaintenance) {
  TestSystem sys({1, 2});
  sys.ctx()->Probe(0);
  sys.stats().set_phase(MessagePhase::kMaintenance);
  sys.ctx()->Probe(1);
  EXPECT_EQ(sys.stats().InitTotal(), 2u);
  EXPECT_EQ(sys.stats().MaintenanceTotal(), 2u);
}

}  // namespace
}  // namespace asf
