#include <gtest/gtest.h>

#include "engine/system.h"
#include "geo/distance_streams.h"
#include "protocol/ft_nrp.h"
#include "test_harness.h"

// A 2-D rectangle query is FT-NRP over each point's signed distance to the
// rectangle, queried over (−∞, 0] (geo/distance_streams.h). The scripted
// cases drive the 1-D protocol on the scheduler-free harness and judge its
// answer in the plane; the walk cases run the engine on a plane walk.

namespace asf {
namespace {

Rect Zone() { return Rect(0, 100, 0, 100); }

/// The query every case deploys: a signed distance of at most 0.
RangeQuery InsideQuery() { return RangeQuery(-kInf, 0); }

std::vector<Value> SignedDistances(const std::vector<Point2>& positions) {
  std::vector<Value> values;
  for (const Point2& p : positions) values.push_back(Zone().SignedDistance(p));
  return values;
}

/// The harness over the streams' signed distances to Zone(), with their
/// plane positions kept beside, so errors are judged in the plane.
class PlaneSystem {
 public:
  explicit PlaneSystem(std::vector<Point2> positions)
      : positions_(std::move(positions)), sys_(SignedDistances(positions_)) {}

  TestSystem& sys() { return sys_; }

  /// Moves a stream; returns whether its filter reported the move.
  bool Move(Protocol* protocol, StreamId id, const Point2& p) {
    positions_[id] = p;
    return sys_.SetValue(protocol, id, Zone().SignedDistance(p));
  }

  void MoveSilently(StreamId id, const Point2& p) {
    positions_[id] = p;
    sys_.SetValueSilently(id, Zone().SignedDistance(p));
  }

  /// E+ and E− of `answer` against the positions inside Zone().
  FractionCounts CountErrors(const AnswerSet& answer) const {
    FractionCounts counts;
    counts.answer_size = answer.size();
    std::size_t inside = 0;
    for (StreamId id = 0; id < positions_.size(); ++id) {
      const bool in_zone = Zone().Contains(positions_[id]);
      inside += in_zone;
      counts.false_positives += answer.Contains(id) && !in_zone;
    }
    counts.false_negatives =
        inside - (counts.answer_size - counts.false_positives);
    return counts;
  }

 private:
  std::vector<Point2> positions_;
  TestSystem sys_;
};

// Nine streams: five inside the [0,100]² zone, near its edges or at its
// center, four out.
std::vector<Point2> NineStreams() {
  return {{10, 50}, {50, 50}, {90, 50}, {50, 10}, {50, 90},
          {150, 50}, {50, 150}, {-50, 50}, {200, 200}};
}

FtNrp MakeFtNrp(PlaneSystem* plane, const FractionTolerance& tol) {
  return FtNrp(plane->sys().ctx(), InsideQuery(), tol, FtOptions{}, nullptr);
}

TEST(Range2dTest, InitializationBudgetsAndAnswer) {
  PlaneSystem plane(NineStreams());
  FtNrp proto = MakeFtNrp(&plane, FractionTolerance{0.4, 0.4});
  plane.sys().Initialize(&proto);
  EXPECT_EQ(proto.answer().ToSortedVector(),
            (std::vector<StreamId>{0, 1, 2, 3, 4}));
  // floor(5*0.4) = 2 FP; floor(5*0.4*0.6/0.6) = 2 FN.
  EXPECT_EQ(proto.core().n_plus(), 2u);
  EXPECT_EQ(proto.core().n_minus(), 2u);
  // Init cost: 9 probes (x2) + 9 deploys = 27.
  EXPECT_EQ(plane.sys().stats().Total(), 27u);
}

TEST(Range2dTest, BoundaryNearestPlacement) {
  PlaneSystem plane(NineStreams());
  FtNrp proto = MakeFtNrp(&plane, FractionTolerance{0.4, 0.4});
  plane.sys().Initialize(&proto);
  const TestSystem& sys = plane.sys();
  // Inside boundary distances: 0:10, 1:50, 2:10, 3:10, 4:10 -> the two
  // nearest by (distance, id) are 0 and 2... ties at 10 for {0,2,3,4}:
  // id order picks 0 and 2.
  EXPECT_TRUE(sys.filter(0).constraint().IsFalsePositiveFilter());
  EXPECT_TRUE(sys.filter(2).constraint().IsFalsePositiveFilter());
  EXPECT_FALSE(sys.filter(1).constraint().IsSilent());
  // Outside distances: 5:50, 6:50, 7:50, 8:141.4 -> 5 and 6.
  EXPECT_TRUE(sys.filter(5).constraint().IsFalseNegativeFilter());
  EXPECT_TRUE(sys.filter(6).constraint().IsFalseNegativeFilter());
  EXPECT_FALSE(sys.filter(8).constraint().IsSilent());
}

TEST(Range2dTest, SilencedStreamsStaySilentAndTolerated) {
  PlaneSystem plane(NineStreams());
  const FractionTolerance tol{0.4, 0.4};
  FtNrp proto = MakeFtNrp(&plane, tol);
  plane.sys().Initialize(&proto);
  // FP holder 0 wanders out; FN holder 5 wanders in. No messages.
  const std::uint64_t before = plane.sys().stats().Total();
  plane.MoveSilently(0, {500, 500});
  plane.MoveSilently(5, {50, 50});
  EXPECT_EQ(plane.sys().stats().Total(), before);
  const FractionCounts counts = plane.CountErrors(proto.answer());
  EXPECT_EQ(counts.false_positives, 1u);
  EXPECT_EQ(counts.false_negatives, 1u);
  EXPECT_TRUE(counts.Satisfies(tol));
}

TEST(Range2dTest, CrossingsMaintainAnswer) {
  PlaneSystem plane(NineStreams());
  FtNrp proto = MakeFtNrp(&plane, FractionTolerance{0.4, 0.4});
  plane.sys().Initialize(&proto);
  EXPECT_TRUE(plane.Move(&proto, 8, {50, 50}));  // enters
  EXPECT_TRUE(proto.answer().Contains(8));
  EXPECT_TRUE(plane.Move(&proto, 8, {300, 300}));  // leaves (count absorbs)
  EXPECT_FALSE(proto.answer().Contains(8));
  EXPECT_EQ(proto.core().fix_error_runs(), 0u);
}

TEST(Range2dTest, FixErrorRestoresFractions) {
  PlaneSystem plane(NineStreams());
  const FractionTolerance tol{0.4, 0.4};
  FtNrp proto = MakeFtNrp(&plane, tol);
  plane.sys().Initialize(&proto);
  // Removal at count == 0: Fix_Error consults an FP holder.
  EXPECT_TRUE(plane.Move(&proto, 1, {120, 50}));
  EXPECT_EQ(proto.core().fix_error_runs(), 1u);
  EXPECT_EQ(proto.core().n_plus(), 1u);
  EXPECT_TRUE(plane.CountErrors(proto.answer()).Satisfies(tol));
}

TEST(Range2dTest, ZeroToleranceIsExact) {
  PlaneSystem plane(NineStreams());
  FtNrp proto = MakeFtNrp(&plane, FractionTolerance{0, 0});
  plane.sys().Initialize(&proto);
  EXPECT_EQ(proto.core().n_plus(), 0u);
  EXPECT_EQ(proto.core().n_minus(), 0u);
  const std::vector<std::pair<StreamId, Point2>> script{
      {0, {150, 150}}, {5, {50, 50}}, {8, {0, 0}}, {1, {-1, 50}},
  };
  for (const auto& [id, p] : script) {
    plane.Move(&proto, id, p);
    const FractionCounts counts = plane.CountErrors(proto.answer());
    EXPECT_EQ(counts.false_positives, 0u);
    EXPECT_EQ(counts.false_negatives, 0u);
  }
}

// --- On the engine ---

/// Runs `config` as FT-NRP over the walk's signed distances to
/// [300, 700]², queried over (−∞, 0].
Result<RunResult> RunOnWalk(const PlaneWalkConfig& walk_config,
                            SystemConfig config) {
  PlaneWalkStreams walk(walk_config);
  DistanceStreamSet signed_distances(&walk, Rect(300, 700, 300, 700));
  config.source = SourceSpec::Custom(&signed_distances);
  config.query = QuerySpec::Range(-kInf, 0);
  config.protocol = ProtocolKind::kFtNrp;
  return RunSystem(config);
}

TEST(Range2dTest, RandomizedWalkNeverViolates) {
  // Tolerance holds after every move, judged on the true positions'
  // signed distances.
  PlaneWalkConfig config;
  config.num_streams = 150;
  config.sigma = 40;
  config.seed = 11;
  SystemConfig run;
  run.fraction = {0.3, 0.3};
  run.duration = 1500;
  run.oracle.check_every_update = true;
  auto result = RunOnWalk(config, run);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->updates_generated, 5000u);
  EXPECT_EQ(result->oracle_checks, result->updates_generated + 1);
  EXPECT_EQ(result->oracle_violations, 0u)
      << "maxF+=" << result->max_f_plus << " maxF-=" << result->max_f_minus;
}

TEST(Range2dTest, ToleranceReducesMessagesOnWalk) {
  // The headline claim carries to 2-D: higher tolerance, fewer messages.
  PlaneWalkConfig config;
  config.num_streams = 400;
  config.seed = 13;
  SystemConfig run;
  run.duration = 2000;
  auto exact = RunOnWalk(config, run);
  run.fraction = {0.4, 0.4};
  auto tolerant = RunOnWalk(config, run);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  ASSERT_TRUE(tolerant.ok()) << tolerant.status().ToString();
  EXPECT_LT(tolerant->MaintenanceMessages(), exact->MaintenanceMessages());
}

// --- The reduction's counts ---
//
// These counts were first measured side by side with a dedicated 2-D
// FT-NRP over rectangle filters, driven by hand on this walk with the RNG
// the engine gives query slot 0: the two agreed on every message counter
// and on the reported updates, for both heuristics and every tolerance.

TEST(SignedDistanceReductionTest, EngineKeepsThePlaneProtocolCounts) {
  PlaneWalkConfig walk_config;
  walk_config.num_streams = 400;
  walk_config.sigma = 20;
  walk_config.seed = 53;
  const struct {
    SelectionHeuristic heuristic;
    double eps;
    // Maintenance: updates, probe requests, probe responses, deploys.
    std::uint64_t updates, probe_requests, probe_responses, deploys;
  } kCells[] = {
      {SelectionHeuristic::kRandom, 0.0, 233, 0, 0, 0},
      {SelectionHeuristic::kRandom, 0.1, 232, 7, 7, 7},
      {SelectionHeuristic::kRandom, 0.3, 207, 1, 1, 1},
      {SelectionHeuristic::kRandom, 0.5, 182, 0, 0, 0},
      {SelectionHeuristic::kBoundaryNearest, 0.0, 233, 0, 0, 0},
      {SelectionHeuristic::kBoundaryNearest, 0.1, 200, 12, 12, 12},
      {SelectionHeuristic::kBoundaryNearest, 0.3, 125, 5, 5, 5},
      {SelectionHeuristic::kBoundaryNearest, 0.5, 88, 4, 4, 4},
  };
  for (const auto& cell : kCells) {
    SCOPED_TRACE(std::string(SelectionHeuristicName(cell.heuristic)) +
                 " eps=" + std::to_string(cell.eps));
    SystemConfig config;
    config.fraction = {cell.eps, cell.eps};
    config.ft.heuristic = cell.heuristic;
    config.duration = 500;
    config.seed = 53;
    auto result = RunOnWalk(walk_config, config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const MessageStats& m = result->messages;
    for (const MessagePhase phase :
         {MessagePhase::kInit, MessagePhase::kMaintenance}) {
      EXPECT_EQ(m.count(phase, MessageType::kRegionProbeRequest), 0u);
    }
    EXPECT_EQ(m.count(MessagePhase::kInit, MessageType::kValueUpdate), 0u);
    EXPECT_EQ(m.count(MessagePhase::kInit, MessageType::kProbeRequest), 400u);
    EXPECT_EQ(m.count(MessagePhase::kInit, MessageType::kProbeResponse),
              400u);
    EXPECT_EQ(m.count(MessagePhase::kInit, MessageType::kFilterDeploy), 400u);
    EXPECT_EQ(m.count(MessagePhase::kMaintenance, MessageType::kValueUpdate),
              cell.updates);
    EXPECT_EQ(m.count(MessagePhase::kMaintenance, MessageType::kProbeRequest),
              cell.probe_requests);
    EXPECT_EQ(
        m.count(MessagePhase::kMaintenance, MessageType::kProbeResponse),
        cell.probe_responses);
    EXPECT_EQ(m.count(MessagePhase::kMaintenance, MessageType::kFilterDeploy),
              cell.deploys);
    EXPECT_EQ(result->updates_reported, cell.updates);
  }
}

}  // namespace
}  // namespace asf
