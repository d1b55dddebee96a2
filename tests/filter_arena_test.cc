#include "filter/filter_arena.h"

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/simd.h"
#include "filter/constraint.h"

namespace asf {
namespace {

FilterConstraint RangeConstraint(double lo, double hi) {
  return FilterConstraint::Range(Interval(lo, hi));
}

/// Collects the fired columns of one kernel evaluation.
std::vector<std::size_t> FiredColumns(FilterArena& arena, StreamId id,
                                      Value v) {
  std::vector<std::size_t> fired;
  const std::uint64_t* words = arena.EvaluateUpdate(id, v);
  for (std::size_t w = 0; w < arena.fired_words(); ++w) {
    std::uint64_t word = words[w];
    while (word != 0) {
      fired.push_back(w * 64 +
                      static_cast<unsigned>(__builtin_ctzll(word)));
      word &= word - 1;
    }
  }
  return fired;
}

TEST(FilterArenaTest, StartsEmpty) {
  FilterArena arena(16);
  EXPECT_EQ(arena.num_streams(), 16u);
  EXPECT_EQ(arena.live(), 0u);
  EXPECT_EQ(arena.capacity(), 0u);
}

TEST(FilterArenaTest, AcquireGrowsByDoubling) {
  FilterArena arena(4);
  EXPECT_EQ(arena.Acquire(), 0u);
  EXPECT_EQ(arena.capacity(), 1u);
  EXPECT_EQ(arena.Acquire(), 1u);  // 1 -> 2: growth again
  EXPECT_EQ(arena.capacity(), 2u);
  EXPECT_EQ(arena.Acquire(), 2u);  // 2 -> 4
  EXPECT_EQ(arena.Acquire(), 3u);  // fits: no growth
  EXPECT_EQ(arena.capacity(), 4u);
  EXPECT_EQ(arena.live(), 4u);
}

TEST(FilterArenaTest, GrowthPreservesFilterState) {
  FilterArena arena(3);
  const std::size_t c0 = arena.Acquire();
  for (StreamId id = 0; id < 3; ++id) {
    arena.Deploy(id, c0, RangeConstraint(10 * id, 10 * id + 5), 2.0);
  }
  // Force growth twice; column 0's filters must carry their constraint and
  // membership reference across both reallocations.
  arena.Acquire();
  arena.Acquire();
  for (StreamId id = 0; id < 3; ++id) {
    EXPECT_EQ(arena.cell(id, c0).constraint(),
              RangeConstraint(10 * id, 10 * id + 5));
    // Reference was set against value 2.0: inside only for stream 0.
    EXPECT_EQ(arena.cell(id, c0).reference_inside(), id == 0);
  }
}

TEST(FilterArenaTest, ReleaseLastColumnNeedsNoMove) {
  FilterArena arena(2);
  arena.Acquire();
  const std::size_t last = arena.Acquire();
  EXPECT_EQ(arena.Release(last), last);  // moved == released: no move
  EXPECT_EQ(arena.live(), 1u);
}

TEST(FilterArenaTest, ReleaseCompactsLastColumnIntoHole) {
  FilterArena arena(2);
  const std::size_t a = arena.Acquire();
  const std::size_t b = arena.Acquire();
  const std::size_t c = arena.Acquire();
  ASSERT_EQ(arena.live(), 3u);

  // Give each column a distinguishable constraint.
  arena.Deploy(0, a, RangeConstraint(0, 1), 0.5);
  arena.Deploy(0, b, RangeConstraint(2, 3), 0.5);
  arena.Deploy(0, c, RangeConstraint(4, 5), 4.5);

  // Releasing the middle column moves the last column into it.
  EXPECT_EQ(arena.Release(b), c);
  EXPECT_EQ(arena.live(), 2u);
  EXPECT_EQ(arena.cell(0, b).constraint(), RangeConstraint(4, 5));
  EXPECT_TRUE(arena.cell(0, b).reference_inside());  // moved, not reset
  // Column a untouched.
  EXPECT_EQ(arena.cell(0, a).constraint(), RangeConstraint(0, 1));
}

TEST(FilterArenaTest, RecycledColumnComesUpPristine) {
  FilterArena arena(2);
  const std::size_t a = arena.Acquire();
  arena.Deploy(0, a, RangeConstraint(0, 1), 0.5);
  arena.Release(a);
  const std::size_t again = arena.Acquire();
  EXPECT_EQ(again, a);
  // The new tenant must not inherit the old tenant's filters.
  EXPECT_FALSE(arena.cell(0, again).constraint().has_filter());
}

/// One of every constraint kind a cell can hold, by `kind` (0..5).
FilterConstraint KindConstraint(int kind, Rng& rng) {
  switch (kind) {
    case 0: {
      const double lo = rng.Uniform(0, 900);
      return RangeConstraint(lo, lo + rng.Uniform(1, 100));
    }
    case 1: {
      const double x = rng.Uniform(0, 1000);
      return RangeConstraint(x, x);  // a point
    }
    case 2:
      return FilterConstraint::FalsePositive();
    case 3:
      return FilterConstraint::FalseNegative();
    case 4:
      // Non-empty yet containing no finite value: must stay distinct
      // from the empty interval through the rebuild.
      return RangeConstraint(kInf, kInf);
    default:
      return FilterConstraint::NoFilter();
  }
}

// cell() rebuilds exactly the deployed constraint and the current
// reference of every kind, through kernel evaluations, reference syncs,
// growth past 64 and 128 columns, and swap-move compaction.
TEST(FilterArenaTest, CellRoundTripsEveryConstraintKind) {
  constexpr std::size_t kStreams = 3;
  FilterArena arena(kStreams);
  Rng rng(5);
  std::vector<std::vector<Filter>> reference;  // [column][stream]

  const auto expect_round_trip = [&](int tag) {
    ASSERT_EQ(arena.live(), reference.size());
    for (std::size_t c = 0; c < reference.size(); ++c) {
      for (StreamId id = 0; id < kStreams; ++id) {
        const Filter cell = arena.cell(id, c);
        const Filter& expect = reference[c][id];
        ASSERT_EQ(cell.constraint(), expect.constraint())
            << "tag " << tag << " column " << c << " stream " << id << ": "
            << cell.constraint().ToString() << " vs "
            << expect.constraint().ToString();
        ASSERT_EQ(cell.reference_inside(), expect.reference_inside())
            << "tag " << tag << " column " << c << " stream " << id;
      }
    }
  };
  const auto churn_values = [&] {
    for (int step = 0; step < 30; ++step) {
      const StreamId id = static_cast<StreamId>(
          rng.UniformInt(0, static_cast<std::int64_t>(kStreams) - 1));
      const Value v = rng.Uniform(-50, 1050);
      if (step % 5 == 0) {
        const std::size_t c = static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(reference.size()) - 1));
        arena.SyncReference(id, c, v);
        reference[c][id].SyncReference(v);
        continue;
      }
      arena.EvaluateUpdate(id, v);
      for (std::vector<Filter>& column : reference) {
        column[id].OnValueChange(v);
      }
    }
  };

  for (int i = 0; i < 140; ++i) {
    const std::size_t c = arena.Acquire();
    reference.emplace_back(kStreams);
    for (StreamId id = 0; id < kStreams; ++id) {
      const FilterConstraint constraint =
          KindConstraint(static_cast<int>((c + id) % 6), rng);
      const Value current = rng.Uniform(0, 1000);
      arena.Deploy(id, c, constraint, current);
      reference[c][id].Deploy(constraint, current);
    }
    if (i % 10 == 0) {
      churn_values();
      expect_round_trip(i);
    }
  }
  ASSERT_GT(arena.capacity(), 128u);
  churn_values();
  expect_round_trip(1000);

  for (int i = 0; i < 100; ++i) {
    const std::size_t hole = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(arena.live()) - 1));
    arena.Release(hole);
    if (hole + 1 != reference.size()) {
      reference[hole] = std::move(reference.back());
    }
    reference.pop_back();
    if (i % 9 == 0) {
      churn_values();
      expect_round_trip(2000 + i);
    }
  }
  expect_round_trip(3000);
}

// --- SoA / SIMD kernel parity ---
//
// The reference semantics are per-cell Filter::OnValueChange on an
// independent AoS bank (the executable specification of paper §3.1); the
// kernel must agree on every fired decision and every membership
// reference, through deploys, syncs, growth, and swap-move compaction.

TEST(FilterArenaKernelTest, KernelMatchesScalarOnValueChange) {
  constexpr std::size_t kStreams = 5;
  constexpr std::size_t kColumns = 70;  // crosses the one-word boundary
  FilterArena arena(kStreams);
  std::vector<std::vector<Filter>> reference(
      kStreams, std::vector<Filter>(kColumns));

  Rng rng(77);
  for (std::size_t c = 0; c < kColumns; ++c) {
    arena.Acquire();
    for (StreamId id = 0; id < kStreams; ++id) {
      const Value current = rng.Uniform(0, 1000);
      // A mix of real intervals, silent degenerate forms, and no-filter
      // columns, like FT-NRP populations produce.
      FilterConstraint constraint;
      switch ((c + id) % 5) {
        case 0: {
          const double lo = rng.Uniform(0, 900);
          constraint = RangeConstraint(lo, lo + rng.Uniform(1, 100));
          break;
        }
        case 1:
          constraint = FilterConstraint::FalsePositive();
          break;
        case 2:
          constraint = FilterConstraint::FalseNegative();
          break;
        case 3:
          constraint = FilterConstraint::NoFilter();
          break;
        case 4:
          constraint = RangeConstraint(400, 600);
          break;
      }
      arena.Deploy(id, c, constraint, current);
      reference[id][c].Deploy(constraint, current);
    }
  }

  for (int step = 0; step < 2000; ++step) {
    const StreamId id = static_cast<StreamId>(
        rng.UniformInt(0, static_cast<std::int64_t>(kStreams) - 1));
    const Value v = rng.Uniform(-50, 1050);
    std::vector<std::size_t> expect;
    for (std::size_t c = 0; c < kColumns; ++c) {
      if (reference[id][c].OnValueChange(v)) expect.push_back(c);
    }
    EXPECT_EQ(FiredColumns(arena, id, v), expect) << "step " << step;
    for (std::size_t c = 0; c < kColumns; ++c) {
      ASSERT_EQ(arena.ReferenceInside(id, c),
                reference[id][c].reference_inside())
          << "step " << step << " column " << c;
    }
  }
}

TEST(FilterArenaKernelTest, MutationsInterleavedWithKernelStayExact) {
  constexpr std::size_t kStreams = 3;
  constexpr std::size_t kColumns = 9;
  FilterArena arena(kStreams);
  std::vector<std::vector<Filter>> reference(
      kStreams, std::vector<Filter>(kColumns));
  for (std::size_t c = 0; c < kColumns; ++c) arena.Acquire();

  Rng rng(123);
  for (int step = 0; step < 3000; ++step) {
    const StreamId id = static_cast<StreamId>(
        rng.UniformInt(0, static_cast<std::int64_t>(kStreams) - 1));
    const std::size_t c = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(kColumns) - 1));
    const Value v = rng.Uniform(0, 1000);
    switch (rng.UniformInt(0, 3)) {
      case 0: {  // deploy a fresh constraint
        const double lo = rng.Uniform(0, 900);
        const FilterConstraint constraint =
            RangeConstraint(lo, lo + rng.Uniform(1, 150));
        arena.Deploy(id, c, constraint, v);
        reference[id][c].Deploy(constraint, v);
        break;
      }
      case 1:  // probe sync
        arena.SyncReference(id, c, v);
        reference[id][c].SyncReference(v);
        break;
      case 2: {  // scalar single-cell evaluation (the dirty-replay path)
        EXPECT_EQ(arena.EvaluateColumn(id, c, v),
                  reference[id][c].OnValueChange(v));
        break;
      }
      default: {  // full-strip kernel evaluation
        std::vector<std::size_t> expect;
        for (std::size_t col = 0; col < kColumns; ++col) {
          if (reference[id][col].OnValueChange(v)) expect.push_back(col);
        }
        EXPECT_EQ(FiredColumns(arena, id, v), expect) << "step " << step;
        break;
      }
    }
  }
}

TEST(FilterArenaKernelTest, GrowthAndCompactionRegenerateTheMirrors) {
  constexpr std::size_t kStreams = 4;
  FilterArena arena(kStreams);
  Rng rng(9);

  // The reference model: per-column banks of scalar Filters, mirroring
  // the arena's swap-move compaction (reference[column][stream]).
  std::vector<std::vector<Filter>> reference;

  auto evaluate_all = [&](int tag) {
    for (int step = 0; step < 40; ++step) {
      const StreamId id = static_cast<StreamId>(
          rng.UniformInt(0, static_cast<std::int64_t>(kStreams) - 1));
      const Value v = rng.Uniform(0, 1500);
      std::vector<std::size_t> expect;
      for (std::size_t c = 0; c < reference.size(); ++c) {
        if (reference[c][id].OnValueChange(v)) expect.push_back(c);
      }
      ASSERT_EQ(FiredColumns(arena, id, v), expect)
          << "tag " << tag << " step " << step;
    }
  };

  // Grow far past the 64-column SoA stride so the bit-stride widens with
  // advanced references in flight; evaluate between growth steps so the
  // widening carries references the kernel has advanced.
  for (int i = 0; i < 130; ++i) {
    const std::size_t c = arena.Acquire();
    ASSERT_EQ(c, reference.size());
    reference.emplace_back(kStreams);
    for (StreamId id = 0; id < kStreams; ++id) {
      const double lo = rng.Uniform(0, 1400);
      const Value current = rng.Uniform(0, 1500);
      const FilterConstraint constraint = RangeConstraint(lo, lo + 40);
      arena.Deploy(id, c, constraint, current);
      reference.back()[id].Deploy(constraint, current);
    }
    if (i % 13 == 0) evaluate_all(i);
  }
  evaluate_all(1000);

  // Release half the columns from the middle: swap-move compaction must
  // move bounds, always bits and advanced reference bits together.
  for (int i = 0; i < 60; ++i) {
    arena.Release(17);
    reference[17] = std::move(reference.back());
    reference.pop_back();
    if (i % 11 == 0) evaluate_all(2000 + i);
  }
  evaluate_all(3000);
}

TEST(FilterArenaKernelTest, TailSweepMatchesScalarAtEveryLiveCount) {
  // The kernel sweeps full words over all 64 lanes but the last, partial
  // word only over live() % 64 lanes rounded up to the vector width. Every
  // live count from 1 to 130 is reached twice: growing by Acquire, and
  // shrinking by Release of random columns, which leaves the lanes just
  // past live() recently occupied. Wide intervals and no-filter columns
  // make a stale lane there fire, so a tail that read a live lane as dead
  // or a dead lane as live would fail against scalar OnValueChange.
  constexpr std::size_t kStreams = 3;
  constexpr std::size_t kMaxLive = 130;
  FilterArena arena(kStreams);
  std::vector<std::vector<Filter>> reference;  // [column][stream]
  Rng rng(2026);

  const auto deploy = [&](std::size_t c) {
    for (StreamId id = 0; id < kStreams; ++id) {
      const Value current = rng.Uniform(0, 1000);
      FilterConstraint constraint;
      switch (rng.UniformInt(0, 3)) {
        case 0:
          constraint = RangeConstraint(-1e9, 1e9);  // every value inside
          break;
        case 1:
          constraint = FilterConstraint::NoFilter();  // fires always
          break;
        case 2:
          constraint = RangeConstraint(400, 600);
          break;
        default: {
          const double lo = rng.Uniform(0, 900);
          constraint = RangeConstraint(lo, lo + rng.Uniform(1, 300));
          break;
        }
      }
      arena.Deploy(id, c, constraint, current);
      reference[c][id].Deploy(constraint, current);
    }
  };
  const auto check = [&](const char* phase) {
    for (int step = 0; step < 6; ++step) {
      const StreamId id = static_cast<StreamId>(
          rng.UniformInt(0, static_cast<std::int64_t>(kStreams) - 1));
      const Value v = rng.Uniform(-100, 1100);
      std::vector<std::size_t> expect;
      for (std::size_t c = 0; c < reference.size(); ++c) {
        if (reference[c][id].OnValueChange(v)) expect.push_back(c);
      }
      ASSERT_EQ(FiredColumns(arena, id, v), expect)
          << phase << " live " << arena.live() << " step " << step;
      for (std::size_t c = 0; c < reference.size(); ++c) {
        ASSERT_EQ(arena.ReferenceInside(id, c),
                  reference[c][id].reference_inside())
            << phase << " live " << arena.live() << " column " << c;
      }
    }
  };

  for (std::size_t n = 1; n <= kMaxLive; ++n) {
    const std::size_t c = arena.Acquire();
    reference.emplace_back(kStreams);
    deploy(c);
    ASSERT_EQ(arena.live(), n);
    check("grow");
  }
  while (arena.live() > 1) {
    const std::size_t victim = static_cast<std::size_t>(rng.UniformInt(
        0, static_cast<std::int64_t>(arena.live()) - 1));
    arena.Release(victim);
    reference[victim] = std::move(reference.back());
    reference.pop_back();
    check("shrink");
  }
}

TEST(FilterArenaKernelTest, SimdBackendIsReported) {
  // The compiled backend is surfaced to benches and bench JSON; whatever
  // it is, its lane count must be consistent.
  EXPECT_GE(simd::kLanes, 1);
  EXPECT_STRNE(simd::kBackend, "");
}

}  // namespace
}  // namespace asf
