#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace asf {
namespace {

TEST(SchedulerTest, StartsAtZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), 0.0);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.RunUntil(0.0), 0u);
}

TEST(SchedulerTest, DispatchesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.ScheduleAt(3.0, [&] { order.push_back(3); });
  s.ScheduleAt(1.0, [&] { order.push_back(1); });
  s.ScheduleAt(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(s.RunUntil(3.0), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 3.0);
}

TEST(SchedulerTest, EqualTimesRunFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.ScheduleAt(5.0, [&order, i] { order.push_back(i); });
  }
  s.RunUntil(5.0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SchedulerTest, ScheduleAfterUsesCurrentTime) {
  Scheduler s;
  SimTime observed = -1;
  s.ScheduleAt(10.0, [&] {
    s.ScheduleAfter(5.0, [&] { observed = s.now(); });
  });
  s.RunUntil(20.0);
  EXPECT_EQ(observed, 15.0);
}

TEST(SchedulerTest, RunUntilStopsAtBoundaryInclusive) {
  Scheduler s;
  int ran = 0;
  s.ScheduleAt(1.0, [&] { ++ran; });
  s.ScheduleAt(2.0, [&] { ++ran; });
  s.ScheduleAt(2.5, [&] { ++ran; });
  const std::size_t n = s.RunUntil(2.0);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(s.now(), 2.0);   // clock advanced exactly to the horizon
  EXPECT_EQ(s.pending(), 1u);
}

TEST(SchedulerTest, RunBeforeStopsAtBoundaryExclusive) {
  Scheduler s;
  std::vector<int> order;
  s.ScheduleAt(1.0, [&] { order.push_back(1); });
  s.ScheduleAt(2.0, [&] { order.push_back(2); });
  s.ScheduleAt(2.5, [&] { order.push_back(3); });
  EXPECT_EQ(s.RunBefore(2.0), 1u);
  EXPECT_EQ(s.now(), 2.0);  // clock at the boundary, its events pending
  EXPECT_EQ(s.pending(), 2u);
  // A driver acting at 2.0 goes before the event due then; what it
  // schedules for 2.0 runs after that event (FIFO at equal times).
  order.push_back(0);
  s.ScheduleAt(2.0, [&] { order.push_back(4); });
  EXPECT_EQ(s.RunUntil(2.0), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2, 4}));
  EXPECT_EQ(s.RunBefore(2.0), 0u);  // nothing left before the clock
  EXPECT_EQ(s.pending(), 1u);
}

TEST(SchedulerTest, RunUntilAdvancesClockWithNoEvents) {
  Scheduler s;
  EXPECT_EQ(s.RunUntil(42.0), 0u);
  EXPECT_EQ(s.now(), 42.0);
}

TEST(SchedulerTest, CancelPreventsDispatch) {
  Scheduler s;
  int ran = 0;
  const EventId id = s.ScheduleAt(1.0, [&] { ++ran; });
  s.ScheduleAt(2.0, [&] { ++ran; });
  EXPECT_TRUE(s.Cancel(id));
  s.RunUntil(2.0);
  EXPECT_EQ(ran, 1);
}

TEST(SchedulerTest, CancelReturnsFalseForUnknownOrDone) {
  Scheduler s;
  int ran = 0;
  const EventId id = s.ScheduleAt(1.0, [&] { ++ran; });
  s.RunUntil(1.0);
  EXPECT_FALSE(s.Cancel(id));     // already ran
  EXPECT_FALSE(s.Cancel(99999));  // never existed
}

TEST(SchedulerTest, DoubleCancelReturnsFalse) {
  Scheduler s;
  const EventId id = s.ScheduleAt(1.0, [] {});
  EXPECT_TRUE(s.Cancel(id));
  EXPECT_FALSE(s.Cancel(id));
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SchedulerTest, PendingCountExcludesCancelled) {
  Scheduler s;
  const EventId a = s.ScheduleAt(1.0, [] {});
  s.ScheduleAt(2.0, [] {});
  EXPECT_EQ(s.pending(), 2u);
  s.Cancel(a);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(SchedulerTest, EventsScheduledDuringDispatchRun) {
  // Self-perpetuating events (how stream sources reschedule themselves).
  Scheduler s;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    if (ticks < 5) s.ScheduleAfter(1.0, tick);
  };
  s.ScheduleAt(1.0, tick);
  EXPECT_EQ(s.RunUntil(5.0), 5u);
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SchedulerTest, ZeroDelayEventRunsAtSameTime) {
  Scheduler s;
  SimTime when = -1;
  s.ScheduleAt(7.0, [&] { s.ScheduleAfter(0.0, [&] { when = s.now(); }); });
  s.RunUntil(7.0);
  EXPECT_EQ(when, 7.0);
}

TEST(SchedulerTest, DispatchedCounter) {
  Scheduler s;
  for (int i = 0; i < 4; ++i) s.ScheduleAt(i + 1.0, [] {});
  s.RunUntil(4.0);
  EXPECT_EQ(s.dispatched(), 4u);
}

TEST(SchedulerTest, RunUntilSkipsCancelledHead) {
  Scheduler s;
  int ran = 0;
  const EventId id = s.ScheduleAt(1.0, [&] { ++ran; });
  s.ScheduleAt(2.0, [&] { ++ran; });
  s.Cancel(id);
  EXPECT_EQ(s.RunUntil(3.0), 1u);
  EXPECT_EQ(ran, 1);
}

TEST(SchedulerTest, CancelThenRunUntilPreservesOrdering) {
  // Regression for the cancelled-entry skip logic shared by PopNext and
  // RunUntil: cancelled events interleaved with live ones (including at
  // the same timestamp) must neither run nor disturb FIFO order, and
  // RunUntil must count only live dispatches.
  Scheduler s;
  std::vector<int> order;
  const EventId a = s.ScheduleAt(1.0, [&] { order.push_back(1); });
  s.ScheduleAt(1.0, [&] { order.push_back(2); });
  const EventId c = s.ScheduleAt(2.0, [&] { order.push_back(3); });
  s.ScheduleAt(2.0, [&] { order.push_back(4); });
  const EventId e = s.ScheduleAt(3.0, [&] { order.push_back(5); });
  s.Cancel(a);  // cancelled head at t=1
  s.Cancel(c);  // cancelled head at t=2
  s.Cancel(e);  // cancelled beyond the horizon

  EXPECT_EQ(s.RunUntil(2.0), 2u);
  EXPECT_EQ(order, (std::vector<int>{2, 4}));
  EXPECT_EQ(s.now(), 2.0);
  EXPECT_EQ(s.pending(), 0u);

  // The cancelled event past the horizon must not surface later either.
  EXPECT_EQ(s.RunUntil(5.0), 0u);
  EXPECT_EQ(order, (std::vector<int>{2, 4}));
}

TEST(SchedulerTest, NegativeZeroTimeSortsAsZero) {
  // -0.0 passes the t >= now() check; its sign bit must not leak into the
  // packed heap key, or the event would sort after every positive time.
  Scheduler s;
  std::vector<int> order;
  s.ScheduleAt(1.0, [&] { order.push_back(1); });
  s.ScheduleAt(-0.0, [&] { order.push_back(0); });
  EXPECT_EQ(s.RunUntil(0.5), 1u);
  s.RunUntil(1.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(SchedulerTest, LargeCaptureTakesHeapPathCorrectly) {
  // Captures beyond EventCallback::kInlineSize must fall back to a heap
  // allocation with identical semantics (dispatch, cancel, destruction).
  Scheduler s;
  std::array<double, 16> payload{};  // 128 bytes > 48-byte inline buffer
  payload[7] = 42.0;
  double observed = 0.0;
  s.ScheduleAt(1.0, [payload, &observed] { observed = payload[7]; });
  const EventId doomed =
      s.ScheduleAt(2.0, [payload, &observed] { observed = -payload[7]; });
  EXPECT_TRUE(s.Cancel(doomed));
  s.RunUntil(2.0);
  EXPECT_EQ(observed, 42.0);
}

TEST(SchedulerTest, IdsOfRecycledSlotsStayStale) {
  // After cancel or dispatch, a slot is recycled for later events; the old
  // EventId must keep reporting "gone" rather than cancelling the
  // newcomer that reuses its slab slot.
  Scheduler s;
  int ran = 0;
  const EventId a = s.ScheduleAt(1.0, [&] { ++ran; });
  EXPECT_TRUE(s.Cancel(a));
  const EventId b = s.ScheduleAt(1.0, [&] { ++ran; });
  EXPECT_FALSE(s.Cancel(a));  // stale handle, slot now belongs to b
  s.RunUntil(1.0);
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(s.Cancel(a));
  EXPECT_FALSE(s.Cancel(b));
}

TEST(SchedulerTest, CancelFromInsideOwnCallbackIsNoop) {
  Scheduler s;
  EventId self = 0;
  bool cancel_result = true;
  self = s.ScheduleAt(1.0, [&] { cancel_result = s.Cancel(self); });
  s.RunUntil(1.0);
  EXPECT_FALSE(cancel_result);  // "already ran", like the old kernel
  EXPECT_EQ(s.dispatched(), 1u);
}

TEST(SchedulerTest, RearmKeepsTheCallableAndItsState) {
  // One event for a whole self-rescheduling source: the same callable,
  // with its mutable state, runs at every re-armed time.
  Scheduler s;
  std::vector<SimTime> times;
  s.ScheduleAt(1.0, [&s, &times, left = 3]() mutable {
    times.push_back(s.now());
    if (left-- > 0) s.Rearm(s.now() + 2.0);
  });
  EXPECT_EQ(s.RunUntil(7.0), 4u);
  EXPECT_EQ(times, (std::vector<SimTime>{1.0, 3.0, 5.0, 7.0}));
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SchedulerTest, RearmedEventCanBeCancelledFromInsideItsCallback) {
  // The callable is still running when it cancels its own re-arm, so the
  // cancel must not destroy it: the captured vector stays readable (a
  // Debug ASan build would flag a use after free), and it is destroyed
  // exactly once, after the callback returns.
  struct Probe {
    explicit Probe(int* counter) : destroyed(counter) {}
    ~Probe() { ++*destroyed; }
    int* destroyed;
  };
  Scheduler s;
  int destroyed = 0;
  int runs = 0;
  bool cancelled = false;
  std::size_t sum_after_cancel = 0;
  {
    auto probe = std::make_shared<Probe>(&destroyed);
    std::vector<std::size_t> payload = {1, 2, 3};
    s.ScheduleAt(1.0, [&, probe, payload] {
      ++runs;
      const EventId again = s.Rearm(s.now() + 1.0);
      EXPECT_EQ(s.pending(), 1u);
      cancelled = s.Cancel(again);
      EXPECT_EQ(s.pending(), 0u);
      EXPECT_FALSE(s.Cancel(again));  // already cancelled
      for (const std::size_t x : payload) sum_after_cancel += x;
      EXPECT_EQ(destroyed, 0);
    });
  }
  s.RunUntil(1.0);
  EXPECT_TRUE(cancelled);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(sum_after_cancel, 6u);
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.RunUntil(4.0), 0u);  // the cancelled re-arm never surfaces
  // The slot is free again and serves a new event normally.
  int later = 0;
  s.ScheduleAt(5.0, [&] { ++later; });
  s.RunUntil(5.0);
  EXPECT_EQ(later, 1);
}

TEST(SchedulerTest, RearmAtNowTiesLikeAScheduleAtMadeThen) {
  // A re-arm takes the sequence number a ScheduleAt at that point would
  // take: at an equal time it runs after every event scheduled before the
  // re-arm (b, and c scheduled earlier in the same dispatch) and before
  // every event scheduled after it (d).
  Scheduler s;
  std::vector<std::string> order;
  int a_runs = 0;
  s.ScheduleAt(1.0, [&] {
    order.push_back(a_runs == 0 ? "a0" : "a1");
    if (a_runs++ > 0) return;
    s.ScheduleAt(1.0, [&] { order.push_back("c"); });
    s.Rearm(s.now());
    s.ScheduleAt(1.0, [&] { order.push_back("d"); });
  });
  s.ScheduleAt(1.0, [&] { order.push_back("b"); });
  s.RunUntil(1.0);
  EXPECT_EQ(order,
            (std::vector<std::string>{"a0", "b", "c", "a1", "d"}));
  EXPECT_EQ(s.now(), 1.0);
}

TEST(SchedulerTest, RearmFromALaneDispatchedEvent) {
  // An event that rode a fixed-delay lane re-arms onto the heap; its next
  // run still ties with lane events by sequence number.
  Scheduler s;
  std::vector<std::string> order;
  int runs = 0;
  s.ScheduleAfter(2.0, [&] {
    order.push_back(runs == 0 ? "x0" : runs == 1 ? "x1" : "x2");
    if (runs++ == 2) return;
    s.ScheduleAfter(2.0, [&] { order.push_back("lane-before"); });
    s.Rearm(s.now() + 2.0);
    s.ScheduleAfter(2.0, [&] { order.push_back("lane-after"); });
  });
  s.RunUntil(6.0);
  EXPECT_EQ(order, (std::vector<std::string>{
                       "x0", "lane-before", "x1", "lane-after",
                       "lane-before", "x2", "lane-after"}));
  EXPECT_EQ(s.now(), 6.0);
}

/// The event mix a stress run draws from.
struct StressMix {
  const char* name;
  /// Delays most ScheduleAfter calls use, claimed first so each gets a
  /// FIFO lane; ScheduleAt calls land on them too, tying heap events
  /// with lane events. Empty: every delay comes from the 64-step grid,
  /// split evenly between ScheduleAt and ScheduleAfter.
  std::vector<SimTime> hot;
};

void PrintTo(const StressMix& mix, std::ostream* os) { *os << mix.name; }

class SchedulerStressTest : public ::testing::TestWithParam<StressMix> {};

/// Naive reference kernel: a flat list scanned for the (time, insertion
/// seq) minimum. Cross-checks the 4-ary heap + fixed-delay lanes + slab +
/// tombstone machinery under a deterministic interleaving of ScheduleAt /
/// ScheduleAfter / Cancel (including cancel-after-fire and duplicate
/// cancel) and self-re-arming events, advanced by RunUntil and RunBefore,
/// with pending() checked before every advance and the dispatch count and
/// clock after it.
/// The reference models a re-arm as a ScheduleAt of the same callback
/// made when the event fires.
TEST_P(SchedulerStressTest, MatchesNaiveReference) {
  const StressMix& mix = GetParam();
  struct RefEvent {
    SimTime time;
    int tag;
    bool lane;  ///< ScheduleAfter with a hot delay: rides a lane
    int rearms = 0;  ///< times it re-arms itself, each after rearm_dt
    SimTime rearm_dt = 0;
    bool cancelled = false;
    bool fired = false;
  };
  Scheduler s;
  std::vector<RefEvent> ref;        // insertion order == seq order
  std::vector<EventId> handles;     // handles[i] belongs to ref[i]
  std::vector<int> real_order;
  std::vector<int> ref_order;
  SimTime ref_now = 0;
  std::size_t lane_cancels = 0;  // successful cancels of lane events
  std::size_t mixed_ties = 0;    // a lane and a heap event fired at one time
  std::size_t rearm_cancels = 0;  // successful cancels of re-armed events

  std::uint64_t rng = 20260730;
  const auto next = [&rng] {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng >> 33;
  };
  const auto schedule = [&](bool after, SimTime dt, bool lane,
                            int rearms = 0, SimTime rearm_dt = 0) {
    const int tag = static_cast<int>(ref.size());
    EventCallback fn = [&real_order, tag] { real_order.push_back(tag); };
    if (rearms > 0) {
      // Each run re-arms under the next free tag, the index its re-arm
      // takes in handles and, once the reference fires it, in ref.
      fn = [&real_order, &handles, &s, run_tag = tag, rearms,
            rearm_dt]() mutable {
        real_order.push_back(run_tag);
        if (rearms-- == 0) return;
        run_tag = static_cast<int>(handles.size());
        handles.push_back(s.Rearm(s.now() + rearm_dt));
      };
    }
    handles.push_back(after ? s.ScheduleAfter(dt, std::move(fn))
                            : s.ScheduleAt(s.now() + dt, std::move(fn)));
    ref.push_back(RefEvent{ref_now + dt, tag, lane, rearms, rearm_dt});
  };
  // Fires the reference's live events with time <= horizon (< when
  // `strict`) and moves its clock to the horizon, like RunUntil /
  // RunBefore. Returns the number fired.
  const auto ref_run = [&](SimTime horizon, bool strict) {
    std::size_t fired = 0;
    for (;;) {
      std::size_t best = ref.size();
      for (std::size_t i = 0; i < ref.size(); ++i) {
        if (ref[i].cancelled || ref[i].fired) continue;
        if (strict ? ref[i].time >= horizon : ref[i].time > horizon) {
          continue;
        }
        if (best == ref.size() || ref[i].time < ref[best].time) best = i;
        // Ties keep the lowest index: FIFO at equal timestamps.
      }
      if (best == ref.size()) break;
      if (!ref_order.empty()) {
        const RefEvent& last = ref[static_cast<std::size_t>(ref_order.back())];
        mixed_ties += last.time == ref[best].time && last.lane != ref[best].lane;
      }
      ref[best].fired = true;
      ++fired;
      ref_order.push_back(ref[best].tag);
      ref_now = ref[best].time;
      if (ref[best].rearms > 0) {
        const RefEvent again{ref_now + ref[best].rearm_dt,
                             static_cast<int>(ref.size()), false,
                             ref[best].rearms - 1, ref[best].rearm_dt};
        ref.push_back(again);
      }
    }
    ref_now = horizon;
    return fired;
  };
  const auto ref_pending = [&] {
    std::size_t n = 0;
    for (const RefEvent& e : ref) n += !e.cancelled && !e.fired;
    return n;
  };

  // The hot delays claim their lanes before any grid delay can.
  for (const SimTime d : mix.hot) schedule(/*after=*/true, d, /*lane=*/true);

  for (int round = 0; round < 300; ++round) {
    // A burst of schedules, mixing absolute and relative forms and
    // clustering times so equal timestamps are common.
    const std::size_t burst = 1 + next() % 8;
    for (std::size_t b = 0; b < burst; ++b) {
      const SimTime grid = static_cast<double>(next() % 64) / 4.0;
      const bool after = next() % 2 == 0;
      // One event in eight re-arms itself one to four times: after no
      // delay (tying with what is pending at now()), a grid delay, or a
      // hot delay (tying with lane events).
      int rearms = 0;
      SimTime rearm_dt = 0;
      if (next() % 8 == 0) {
        rearms = 1 + static_cast<int>(next() % 4);
        const std::uint64_t pick = next() % 3;
        rearm_dt = pick == 0   ? 0.0
                   : pick == 1 || mix.hot.empty()
                       ? grid
                       : mix.hot[next() % mix.hot.size()];
      }
      if (mix.hot.empty()) {
        schedule(after, grid, /*lane=*/false, rearms, rearm_dt);
      } else if (after && next() % 4 == 0) {
        // beyond the lane cap
        schedule(after, grid, /*lane=*/false, rearms, rearm_dt);
      } else {
        schedule(after, mix.hot[next() % mix.hot.size()], /*lane=*/after,
                 rearms, rearm_dt);
      }
    }

    // A few cancels aimed at arbitrary handles, old and new: some hit
    // pending events, some events that already fired, some repeat a
    // previous cancel. Half aim at the 16 newest, which are mostly still
    // pending. The kernel must agree with the reference on every return
    // value.
    const std::size_t cancels = next() % 4;
    for (std::size_t c = 0; c < cancels; ++c) {
      const std::size_t recent = std::min<std::size_t>(handles.size(), 16);
      const std::size_t victim =
          next() % 2 == 0 ? next() % handles.size()
                          : handles.size() - 1 - next() % recent;
      const bool expect =
          !ref[victim].cancelled && !ref[victim].fired;
      EXPECT_EQ(s.Cancel(handles[victim]), expect) << "victim " << victim;
      lane_cancels += expect && ref[victim].lane;
      rearm_cancels += expect && ref[victim].rearms > 0;
      ref[victim].cancelled = true;  // idempotent in the reference
    }

    // Advance both kernels through a shared horizon.
    ASSERT_EQ(s.pending(), ref_pending()) << "round " << round;
    const SimTime horizon = s.now() + static_cast<double>(next() % 40);
    const bool strict = next() % 2 == 0;
    const std::size_t ran =
        strict ? s.RunBefore(horizon) : s.RunUntil(horizon);
    ASSERT_EQ(ran, ref_run(horizon, strict)) << "round " << round;
    ASSERT_EQ(real_order.size(), ref_order.size()) << "round " << round;
    ASSERT_EQ(s.now(), ref_now) << "round " << round;
  }

  // Drain everything left.
  EXPECT_EQ(s.RunUntil(1e18), ref_run(1e18, /*strict=*/false));
  EXPECT_EQ(real_order, ref_order);
  EXPECT_EQ(s.pending(), 0u);
  // Sanity: the schedule actually exercised all paths.
  EXPECT_GT(real_order.size(), 500u);
  std::size_t cancelled = 0;
  std::size_t rearmed = 0;
  for (const RefEvent& e : ref) {
    cancelled += e.cancelled && !e.fired;
    rearmed += e.fired && e.rearms > 0;
  }
  EXPECT_GT(cancelled, 10u);
  EXPECT_GT(rearmed, 100u);
  EXPECT_GT(rearm_cancels, 5u);
  if (!mix.hot.empty()) {
    EXPECT_GT(lane_cancels, 10u);
    EXPECT_GT(mixed_ties, 10u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, SchedulerStressTest,
    ::testing::Values(StressMix{"UniformGrid", {}},
                      StressMix{"FixedDelays", {0.0, 2.0, 5.5}}),
    [](const ::testing::TestParamInfo<StressMix>& info) {
      return std::string(info.param.name);
    });

TEST(SchedulerDeathTest, RearmOutsideADispatchAborts) {
  Scheduler s;
  EXPECT_DEATH(s.Rearm(1.0), "outside a dispatch");
  s.ScheduleAt(1.0, [] {});
  s.RunUntil(1.0);
  EXPECT_DEATH(s.Rearm(2.0), "outside a dispatch");
}

TEST(SchedulerDeathTest, SecondRearmInOneDispatchAborts) {
  Scheduler s;
  s.ScheduleAt(1.0, [&s] {
    s.Rearm(2.0);
    s.Rearm(3.0);
  });
  EXPECT_DEATH(s.RunUntil(1.0), "twice in one dispatch");
}

TEST(SchedulerDeathTest, SchedulingIntoThePastAborts) {
  Scheduler s;
  s.ScheduleAt(5.0, [] {});
  s.RunUntil(5.0);
  EXPECT_EQ(s.now(), 5.0);
  EXPECT_DEATH(s.ScheduleAt(1.0, [] {}), "past");
}

}  // namespace
}  // namespace asf
