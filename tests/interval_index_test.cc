#include "filter/interval_index.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "filter/constraint.h"
#include "filter/dispatch.h"
#include "filter/filter_arena.h"

/// Index-vs-scan parity: DispatchUpdate under kIndex / kAuto must produce
/// byte-identical fired sets and membership references to the SIMD kernel
/// scan, under any interleaving of the three mutation sources the index
/// shadows (Deploy tightening, Acquire growth, Release compaction).

namespace asf {
namespace {

FilterConstraint RangeConstraint(double lo, double hi) {
  return FilterConstraint::Range(Interval(lo, hi));
}

/// A constraint mix that exercises every lane shape: plain ranges,
/// integer-bound ranges (tie-prone against integer dispatch values, to
/// pin the index's closed-interval boundary semantics), the two silent
/// degenerate FT-NRP forms, and no-filter (always fires).
FilterConstraint RandomConstraint(Rng& rng, double center) {
  switch (rng.UniformInt(0, 5)) {
    case 0:
      return FilterConstraint::NoFilter();
    case 1:
      return FilterConstraint::FalsePositive();
    case 2:
      return FilterConstraint::FalseNegative();
    case 3: {
      const double lo = static_cast<double>(rng.UniformInt(0, 90));
      return RangeConstraint(lo, lo + static_cast<double>(
                                          rng.UniformInt(0, 20)));
    }
    default: {
      const double lo = center + rng.Uniform(-60.0, 60.0);
      return RangeConstraint(lo, lo + rng.Uniform(0.0, 80.0));
    }
  }
}

/// Two arenas fed identical op sequences: `scan` stays on the kernel
/// policy (the reference — itself locked against per-cell
/// Filter::OnValueChange in filter_arena_test), `probe` runs the policy
/// under test. Every dispatch compares fired sets; refs are compared
/// cell-by-cell on demand.
class Twin {
 public:
  Twin(std::size_t num_streams, DispatchPolicy policy,
       std::size_t crossover = kDefaultAutoCrossover)
      : scan_(num_streams), probe_(num_streams), num_streams_(num_streams) {
    scan_.SetDispatchPolicy(DispatchPolicy::kScan);
    probe_.SetDispatchPolicy(policy, crossover);
    values_.assign(num_streams, 500.0);
  }

  FilterArena& probe() { return probe_; }

  std::size_t live() const { return scan_.live(); }

  std::size_t Acquire() {
    const std::size_t a = scan_.Acquire();
    const std::size_t b = probe_.Acquire();
    EXPECT_EQ(a, b);
    return a;
  }

  void Release(std::size_t column) {
    EXPECT_EQ(scan_.Release(column), probe_.Release(column));
  }

  void Deploy(StreamId id, std::size_t column,
              const FilterConstraint& constraint) {
    scan_.Deploy(id, column, constraint, values_[id]);
    probe_.Deploy(id, column, constraint, values_[id]);
  }

  void Sync(StreamId id, std::size_t column) {
    scan_.SyncReference(id, column, values_[id]);
    probe_.SyncReference(id, column, values_[id]);
  }

  /// Dispatches `v` through both arenas and asserts identical fired sets.
  void Dispatch(StreamId id, Value v) {
    values_[id] = v;
    std::vector<std::uint32_t> expected;
    std::vector<std::uint32_t> actual;
    scan_.DispatchUpdate(id, v, &expected);
    probe_.DispatchUpdate(id, v, &actual);
    ASSERT_EQ(expected, actual) << "stream " << id << " value " << v;
  }

  /// Asserts every live cell's canonical membership reference agrees.
  void ExpectSameReferences() {
    for (StreamId id = 0; id < num_streams_; ++id) {
      for (std::size_t c = 0; c < scan_.live(); ++c) {
        ASSERT_EQ(scan_.ReferenceInside(id, c), probe_.ReferenceInside(id, c))
            << "stream " << id << " column " << c;
      }
    }
  }

 private:
  FilterArena scan_;
  FilterArena probe_;
  std::size_t num_streams_;
  std::vector<Value> values_;
};

/// Runs `steps` ops of a randomized churn workload (acquire / release /
/// redeploy / sync / dispatch) against the twin; the per-stream values
/// random-walk with occasional integer snapping so interval endpoints get
/// hit exactly.
void RunChurnWorkload(Twin& twin, std::uint64_t seed, int steps) {
  Rng rng(seed);
  std::vector<double> walk(8, 500.0);
  for (int step = 0; step < steps; ++step) {
    const int op = static_cast<int>(rng.UniformInt(0, 9));
    if (op == 0 && twin.live() < 80) {
      const std::size_t column = twin.Acquire();
      const StreamId id = static_cast<StreamId>(
          rng.UniformInt(0, static_cast<std::int64_t>(walk.size()) - 1));
      twin.Deploy(id, column, RandomConstraint(rng, walk[id]));
    } else if (op == 1 && twin.live() > 0) {
      twin.Release(static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(twin.live()) - 1)));
    } else if (op == 2 && twin.live() > 0) {
      const StreamId id = static_cast<StreamId>(
          rng.UniformInt(0, static_cast<std::int64_t>(walk.size()) - 1));
      twin.Deploy(id,
                  static_cast<std::size_t>(rng.UniformInt(
                      0, static_cast<std::int64_t>(twin.live()) - 1)),
                  RandomConstraint(rng, walk[id]));
    } else if (op == 3 && twin.live() > 0) {
      const StreamId id = static_cast<StreamId>(
          rng.UniformInt(0, static_cast<std::int64_t>(walk.size()) - 1));
      twin.Sync(id, static_cast<std::size_t>(rng.UniformInt(
                        0, static_cast<std::int64_t>(twin.live()) - 1)));
    } else if (twin.live() > 0) {
      const StreamId id = static_cast<StreamId>(
          rng.UniformInt(0, static_cast<std::int64_t>(walk.size()) - 1));
      double v = walk[id] + rng.Uniform(-40.0, 40.0);
      if (v < 0.0) v = 0.0;
      if (v > 1000.0) v = 1000.0;
      if (rng.UniformInt(0, 3) == 0) v = std::round(v);
      if (rng.UniformInt(0, 19) == 0) v = walk[id];  // repeated value
      walk[id] = v;
      twin.Dispatch(id, v);
    }
    if (step % 97 == 0) twin.ExpectSameReferences();
  }
  twin.ExpectSameReferences();
}

TEST(IntervalIndexTest, IndexMatchesScanUnderRandomizedChurn) {
  Twin twin(8, DispatchPolicy::kIndex);
  RunChurnWorkload(twin, 0xA5F0001, 4000);
  const DispatchStats stats = twin.probe().dispatch_stats();
  EXPECT_GT(stats.index_dispatches, 0u);
  EXPECT_EQ(stats.scan_dispatches, 0u);
  EXPECT_GT(stats.index_rebuilds, 0u);  // first dispatches + churn rebuilds
}

TEST(IntervalIndexTest, AutoFlipsPoliciesAndStaysExact) {
  // Crossover 8 with live oscillating 0..80: auto takes the scan path on
  // small populations and the index path past the threshold, flipping
  // back and forth mid-run — both paths must agree with pure scan, and
  // both must actually be exercised.
  Twin twin(8, DispatchPolicy::kAuto, /*crossover=*/8);
  RunChurnWorkload(twin, 0xA5F0002, 4000);
  const DispatchStats stats = twin.probe().dispatch_stats();
  EXPECT_GT(stats.scan_dispatches, 0u);
  EXPECT_GT(stats.index_dispatches, 0u);
}

TEST(IntervalIndexTest, BoundaryTiesMatchClosedIntervalSemantics) {
  // Closed interval [5, 10]: arriving exactly at a bound from either side
  // must flip membership exactly like Interval::Contains. Walk the value
  // onto, across, and off both endpoints in both directions.
  Twin twin(1, DispatchPolicy::kIndex);
  const std::size_t column = twin.Acquire();
  twin.Dispatch(0, 0.0);  // establish a diff base before deploying
  twin.Deploy(0, column, RangeConstraint(5.0, 10.0));
  for (const double v : {4.0, 5.0, 4.0, 5.0, 10.0, 11.0, 10.0, 5.0, 0.0,
                         10.0, 10.0, 12.0, 5.0}) {
    twin.Dispatch(0, v);
  }
  twin.ExpectSameReferences();
}

TEST(IntervalIndexTest, RepeatedValueFiresOnlyAlwaysColumns) {
  Twin twin(1, DispatchPolicy::kIndex);
  const std::size_t filtered = twin.Acquire();
  const std::size_t open = twin.Acquire();
  twin.Dispatch(0, 7.0);
  twin.Deploy(0, filtered, RangeConstraint(0.0, 10.0));
  twin.Deploy(0, open, FilterConstraint::NoFilter());
  twin.Dispatch(0, 7.0);  // zero-width step: only the no-filter col fires
  twin.Dispatch(0, 7.0);
  twin.ExpectSameReferences();
}

TEST(IntervalIndexTest, ReacquiredColumnShedsStaleSnapshotEntries) {
  // A column released and re-acquired between two dispatches must answer
  // as its new pristine tenant, not via the stale snapshot entry of the
  // old one.
  Twin twin(2, DispatchPolicy::kIndex);
  const std::size_t a = twin.Acquire();
  twin.Acquire();
  twin.Deploy(0, a, RangeConstraint(100.0, 200.0));
  twin.Dispatch(0, 150.0);  // snapshot now covers both columns
  twin.Dispatch(1, 50.0);
  twin.Release(a);  // the pristine tenant of column 1 moves into the hole
  const std::size_t again = twin.Acquire();
  EXPECT_EQ(again, 1u);  // the vacated last comes back, pristine again
  twin.Dispatch(0, 150.0);  // both tenants fire as no-filter now
  twin.Dispatch(0, 400.0);
  twin.ExpectSameReferences();
}

TEST(IntervalIndexTest, RebuildScheduleIsDeterministic) {
  // The rebuild trigger counts columns, not clocks: the same op sequence
  // must produce the same rebuild schedule (and the same fired trace) on
  // every run.
  const auto run = [](std::uint64_t seed) {
    Twin twin(8, DispatchPolicy::kIndex);
    RunChurnWorkload(twin, seed, 2500);
    return twin.probe().dispatch_stats();
  };
  const DispatchStats first = run(0xA5F0003);
  const DispatchStats second = run(0xA5F0003);
  EXPECT_EQ(first.index_dispatches, second.index_dispatches);
  EXPECT_EQ(first.index_rebuilds, second.index_rebuilds);
  EXPECT_EQ(first.max_stream_rebuilds, second.max_stream_rebuilds);
  EXPECT_GT(first.index_rebuilds, 0u);
  EXPECT_LE(first.max_stream_rebuilds, first.index_rebuilds);
}

TEST(IntervalIndexTest, OverlayAbsorbsTighteningWithoutRebuildThrash) {
  // Repeatedly redeploying a handful of columns between dispatches must
  // ride the dirty overlay: with only 3 of 64 columns churning, rebuilds
  // stay far below one-per-dispatch.
  Twin twin(1, DispatchPolicy::kIndex);
  for (int i = 0; i < 64; ++i) twin.Acquire();
  Rng rng(0xA5F0004);
  double v = 500.0;
  for (std::size_t c = 0; c < 64; ++c) {
    twin.Deploy(0, c, RandomConstraint(rng, v));
  }
  twin.Dispatch(0, v);  // first dispatch: rebuild #1
  for (int step = 0; step < 400; ++step) {
    for (std::size_t c = 0; c < 3; ++c) {
      twin.Deploy(0, c, RangeConstraint(v - 10.0, v + 10.0));
    }
    v += rng.Uniform(-5.0, 5.0);
    twin.Dispatch(0, v);
  }
  const DispatchStats stats = twin.probe().dispatch_stats();
  // pending grows ~3/dispatch against a rebuild cost of live (64) + slack:
  // roughly one rebuild per ~32 dispatches, far below 400.
  EXPECT_LT(stats.index_rebuilds, 40u);
  EXPECT_GT(stats.index_rebuilds, 2u);
  twin.ExpectSameReferences();
}

// --- The finger walk: each dispatch walks the endpoint arrays from the
// stream's previous value to the new one ---

TEST(IntervalIndexTest, FingerWalksThroughSharedIntegerBounds) {
  // Many columns share the bound 500 as their lower end, their upper end,
  // or both, so integer-snapped walks land exactly on runs of equal
  // endpoints from either side: the finger must stop on the correct side
  // of a whole tie run in both travel directions.
  Twin twin(2, DispatchPolicy::kIndex);
  for (int i = 0; i < 90; ++i) twin.Acquire();
  for (StreamId id = 0; id < 2; ++id) {
    twin.Dispatch(id, 500.0);  // establish a diff base before deploying
    for (std::size_t c = 0; c < 90; ++c) {
      const double width = static_cast<double>(c % 7);
      switch (c % 3) {
        case 0:
          twin.Deploy(id, c, RangeConstraint(500.0, 500.0 + width));
          break;
        case 1:
          twin.Deploy(id, c, RangeConstraint(500.0 - width, 500.0));
          break;
        default:
          twin.Deploy(id, c, RangeConstraint(500.0, 500.0));
          break;
      }
    }
  }
  Rng rng(0xA5F0005);
  std::vector<double> walk(2, 500.0);
  for (int step = 0; step < 3000; ++step) {
    const StreamId id = static_cast<StreamId>(rng.UniformInt(0, 1));
    walk[id] = std::clamp(
        walk[id] + static_cast<double>(rng.UniformInt(-3, 3)), 490.0, 510.0);
    if (rng.UniformInt(0, 9) == 0) walk[id] = 500.0;
    twin.Dispatch(id, walk[id]);
    if (step % 101 == 0) twin.ExpectSameReferences();
  }
  twin.ExpectSameReferences();
}

TEST(IntervalIndexTest, FingerSurvivesFullRangeJumps) {
  // Jumps across the whole domain (0 <-> 1000) cross every endpoint and
  // leave the finger at an array end; repeated values and tiny steps
  // between them must then walk from that end, not from a stale spot.
  Twin twin(1, DispatchPolicy::kIndex);
  for (int i = 0; i < 120; ++i) twin.Acquire();
  Rng rng(0xA5F0006);
  twin.Dispatch(0, 500.0);
  for (std::size_t c = 0; c < 120; ++c) {
    twin.Deploy(0, c, RandomConstraint(rng, rng.Uniform(0.0, 1000.0)));
  }
  double v = 500.0;
  for (int step = 0; step < 2000; ++step) {
    switch (rng.UniformInt(0, 3)) {
      case 0:
        v = v < 500.0 ? 1000.0 : 0.0;  // full-range jump
        break;
      case 1:
        break;  // repeated value
      case 2:
        v = std::clamp(v + rng.Uniform(-0.5, 0.5), 0.0, 1000.0);
        break;
      default:
        v = std::clamp(std::round(v) + static_cast<double>(
                                           rng.UniformInt(-1, 1)),
                       0.0, 1000.0);
        break;
    }
    twin.Dispatch(0, v);
  }
  twin.ExpectSameReferences();
}

TEST(IntervalIndexTest, FingerReseatsAfterAutoServedScans) {
  // Moving the auto crossover just above or at live() flips the policy
  // every few dispatches without touching any column, so the snapshot
  // stays clean and each index dispatch after a scan run starts from a
  // finger left at an older value — it must re-seat, then walk.
  constexpr std::size_t kLive = 64;
  Twin twin(3, DispatchPolicy::kAuto, /*crossover=*/kLive);
  for (std::size_t i = 0; i < kLive; ++i) twin.Acquire();
  Rng rng(0xA5F0007);
  std::vector<double> walk(3, 500.0);
  for (StreamId id = 0; id < 3; ++id) {
    twin.Dispatch(id, walk[id]);
    for (std::size_t c = 0; c < kLive; ++c) {
      twin.Deploy(id, c, RandomConstraint(rng, walk[id]));
    }
  }
  for (int step = 0; step < 3000; ++step) {
    if (step % 4 == 0) {
      const bool index = rng.UniformInt(0, 1) == 0;
      twin.probe().SetDispatchPolicy(DispatchPolicy::kAuto,
                                     index ? kLive : kLive + 1);
    }
    if (step % 250 == 0) {
      // An occasional redeploy keeps the dirty overlay in play too.
      const StreamId id = static_cast<StreamId>(rng.UniformInt(0, 2));
      twin.Deploy(id,
                  static_cast<std::size_t>(rng.UniformInt(0, kLive - 1)),
                  RandomConstraint(rng, walk[id]));
    }
    const StreamId id = static_cast<StreamId>(rng.UniformInt(0, 2));
    walk[id] = std::clamp(walk[id] + rng.Uniform(-30.0, 30.0), 0.0, 1000.0);
    if (rng.UniformInt(0, 3) == 0) walk[id] = std::round(walk[id]);
    twin.Dispatch(id, walk[id]);
    if (step % 97 == 0) twin.ExpectSameReferences();
  }
  twin.ExpectSameReferences();
  const DispatchStats stats = twin.probe().dispatch_stats();
  EXPECT_GT(stats.scan_dispatches, 500u);
  EXPECT_GT(stats.index_dispatches, 500u);
}

TEST(IntervalIndexTest, StatsReportPolicyAttribution) {
  FilterArena arena(2);
  arena.SetDispatchPolicy(DispatchPolicy::kScan);
  arena.Acquire();
  std::vector<std::uint32_t> fired;
  arena.DispatchUpdate(0, 1.0, &fired);
  EXPECT_EQ(fired, std::vector<std::uint32_t>{0});  // pristine: no filter
  arena.SetDispatchPolicy(DispatchPolicy::kIndex);
  arena.DispatchUpdate(0, 2.0, &fired);
  EXPECT_EQ(fired, std::vector<std::uint32_t>{0});
  const DispatchStats stats = arena.dispatch_stats();
  EXPECT_EQ(stats.scan_dispatches, 1u);
  EXPECT_EQ(stats.index_dispatches, 1u);
  EXPECT_EQ(stats.index_rebuilds, 1u);
  EXPECT_EQ(stats.max_stream_rebuilds, 1u);
  EXPECT_TRUE(std::isnan(arena.known_value(1)));
  EXPECT_EQ(arena.known_value(0), 2.0);
}

}  // namespace
}  // namespace asf
