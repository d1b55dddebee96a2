#include "net/message_stats.h"

#include <gtest/gtest.h>

namespace asf {
namespace {

TEST(MessageStatsTest, StartsAtZeroInInitPhase) {
  MessageStats stats;
  EXPECT_EQ(stats.Total(), 0u);
  EXPECT_EQ(stats.phase(), MessagePhase::kInit);
}

TEST(MessageStatsTest, CountsUnderCurrentPhase) {
  MessageStats stats;
  stats.Count(MessageType::kProbeRequest);
  stats.Count(MessageType::kProbeResponse);
  stats.set_phase(MessagePhase::kMaintenance);
  stats.Count(MessageType::kValueUpdate, 3);

  EXPECT_EQ(stats.InitTotal(), 2u);
  EXPECT_EQ(stats.MaintenanceTotal(), 3u);
  EXPECT_EQ(stats.Total(), 5u);
  EXPECT_EQ(stats.count(MessagePhase::kInit, MessageType::kProbeRequest), 1u);
  EXPECT_EQ(
      stats.count(MessagePhase::kMaintenance, MessageType::kValueUpdate), 3u);
  EXPECT_EQ(stats.count(MessagePhase::kInit, MessageType::kValueUpdate), 0u);
}

TEST(MessageStatsTest, Reset) {
  MessageStats stats;
  stats.set_phase(MessagePhase::kMaintenance);
  stats.Count(MessageType::kFilterDeploy, 10);
  stats.Reset();
  EXPECT_EQ(stats.Total(), 0u);
  EXPECT_EQ(stats.phase(), MessagePhase::kInit);
}

TEST(MessageStatsTest, TypeNamesAreStable) {
  EXPECT_EQ(MessageTypeName(MessageType::kValueUpdate), "update");
  EXPECT_EQ(MessageTypeName(MessageType::kProbeRequest), "probe_req");
  EXPECT_EQ(MessageTypeName(MessageType::kProbeResponse), "probe_resp");
  EXPECT_EQ(MessageTypeName(MessageType::kRegionProbeRequest),
            "region_probe");
  EXPECT_EQ(MessageTypeName(MessageType::kFilterDeploy), "deploy");
}

}  // namespace
}  // namespace asf
