#include "protocol/ft_core.h"

#include <gtest/gtest.h>

#include "test_harness.h"

namespace asf {
namespace {

/// Direct unit tests of the shared fraction-tolerance machinery, below the
/// FT-NRP / FT-RP wrappers.

class FtCoreTest : public ::testing::Test {
 protected:
  FtCoreTest()
      : sys_({410, 450, 500, 550, 590, 130, 390, 610, 810, 900}),
        core_(sys_.ctx(), SelectionHeuristic::kBoundaryNearest, nullptr) {}

  void Install(std::size_t n_plus, std::size_t n_minus) {
    sys_.ctx()->ProbeAll();
    core_.InstallFilters(Interval(400, 600), n_plus, n_minus);
  }

  /// Feeds a value change through the client filter into the core.
  bool Move(StreamId id, Value v) {
    // Mirror TestSystem::SetValue but routed into the bare core.
    return sys_.SetValueInto(
        [this](StreamId sid, Value sv) {
          sys_.ctx()->RecordReport(sid, sv);
          core_.OnRangeUpdate(sid, sv);
        },
        id, v);
  }

  TestSystem sys_;
  FractionFilterCore core_;
};

TEST_F(FtCoreTest, InstallPartitionsStreams) {
  Install(2, 2);
  EXPECT_EQ(core_.answer().ToSortedVector(),
            (std::vector<StreamId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(core_.n_plus(), 2u);
  EXPECT_EQ(core_.n_minus(), 2u);
  EXPECT_FALSE(core_.Exhausted());
  EXPECT_EQ(core_.count(), 0u);
  EXPECT_EQ(core_.range(), Interval(400, 600));
  // Every stream got exactly one deploy.
  EXPECT_EQ(sys_.stats().count(MessagePhase::kInit,
                               MessageType::kFilterDeploy),
            10u);
}

TEST_F(FtCoreTest, BudgetsLargerThanPopulationClamp) {
  Install(100, 100);
  // Only 5 inside / 5 outside candidates exist.
  EXPECT_EQ(core_.n_plus(), 5u);
  EXPECT_EQ(core_.n_minus(), 5u);
  // Everyone is silent; no range filters at all.
  EXPECT_EQ(sys_.CountFalsePositiveFilters(), 5u);
  EXPECT_EQ(sys_.CountFalseNegativeFilters(), 5u);
}

TEST_F(FtCoreTest, CountLedger) {
  Install(1, 1);
  EXPECT_TRUE(Move(8, 500));  // enter: count 1
  EXPECT_TRUE(Move(9, 450));  // enter: count 2
  EXPECT_EQ(core_.count(), 2u);
  EXPECT_TRUE(Move(8, 700));  // leave: count 1, no Fix_Error
  EXPECT_TRUE(Move(9, 900));  // leave: count 0, no Fix_Error
  EXPECT_EQ(core_.fix_error_runs(), 0u);
  EXPECT_TRUE(Move(2, 300));  // leave at count 0: Fix_Error
  EXPECT_EQ(core_.fix_error_runs(), 1u);
}

TEST_F(FtCoreTest, ExhaustionIsMonotone) {
  Install(1, 1);
  EXPECT_FALSE(core_.Exhausted());
  Move(2, 300);  // Fix_Error: FP holder 4 (590, in range) converted
  EXPECT_EQ(core_.n_plus(), 0u);
  EXPECT_EQ(core_.n_minus(), 1u);
  EXPECT_FALSE(core_.Exhausted());
  Move(3, 300);  // Fix_Error: no FP left; FN holder consulted
  EXPECT_EQ(core_.n_minus(), 0u);
  EXPECT_TRUE(core_.Exhausted());
  // Further Fix_Errors are no-ops on budgets.
  Move(1, 300);
  EXPECT_TRUE(core_.Exhausted());
  EXPECT_EQ(core_.fix_error_runs(), 3u);
}

TEST_F(FtCoreTest, ReinstallResetsEverything) {
  Install(1, 1);
  Move(8, 500);
  Move(2, 300);
  // Fresh install from the (updated) cache.
  core_.InstallFilters(Interval(400, 600), 2, 2);
  EXPECT_EQ(core_.count(), 0u);
  EXPECT_EQ(core_.n_plus(), 2u);
  EXPECT_EQ(core_.n_minus(), 2u);
  // The answer is recomputed from the cache: 8 (500) is now a member, 2
  // (300) is not.
  EXPECT_TRUE(core_.answer().Contains(8));
  EXPECT_FALSE(core_.answer().Contains(2));
}

TEST_F(FtCoreTest, FixErrorMessageBudget) {
  Install(1, 1);
  sys_.stats().set_phase(MessagePhase::kMaintenance);
  Move(2, 300);
  // Paper §5.1.1: "maintenance generates at most five messages" — the
  // update plus Fix_Error's probe pair and deploy (FP in-range case), or
  // up to two probe pairs + two deploys otherwise.
  EXPECT_LE(sys_.stats().MaintenanceTotal(), 1u + 5u + 2u);
}

}  // namespace
}  // namespace asf
