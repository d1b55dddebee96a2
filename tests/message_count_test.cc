#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/config.h"
#include "engine/multi_system.h"
#include "engine/system.h"
#include "sim/scheduler.h"
#include "trace/tcp_synth.h"

// Two message counts that need no engine. For a query on an instant net:
//  - a no-filter query's maintenance messages equal the stream updates
//    inside its live window;
//  - a ZT-NRP range query's maintenance messages equal the updates inside
//    its window that flip a stream's membership in the range, counted
//    from each stream's value at the query's start.
// A query that retires before the horizon adds one uninstall deploy per
// stream (DESIGN.md §3, note 5). Both counts come from the source alone
// (MakeStreams and a plain handler on a private Scheduler), so they check
// the engine independently of the golden digests, which the engine
// recorded itself.

namespace asf {
namespace {

constexpr double kLo = 400;
constexpr double kHi = 600;
constexpr SimTime kDuration = 800;

struct SourceCounts {
  std::uint64_t updates = 0;  ///< updates with start <= t < end
  std::uint64_t flips = 0;    ///< ... that flip membership in [kLo, kHi]
};

/// Replays `source` to kDuration with no engine, counting the updates of
/// the window [start, end). Deploys and retirements at an instant run
/// before the stream updates at that instant, so updates at exactly
/// `start` count and updates at exactly `end` do not.
SourceCounts CountFromSource(const SourceSpec& source, SimTime start,
                             SimTime end = kNeverRetire) {
  std::unique_ptr<StreamSet> streams = MakeStreams(source);
  std::vector<Value> last = streams->values();
  SourceCounts counts;
  streams->set_update_handler([&](StreamId id, Value v, SimTime t) {
    if (start <= t && t < end) {
      ++counts.updates;
      const bool was = kLo <= last[id] && last[id] <= kHi;
      const bool is = kLo <= v && v <= kHi;
      counts.flips += was != is;
    }
    last[id] = v;
  });
  Scheduler scheduler;
  streams->Start(&scheduler, kDuration);
  scheduler.RunUntil(kDuration);
  return counts;
}

/// Runs one static [kLo, kHi] query of `protocol` through the engine
/// under scan and index dispatch and checks its maintenance messages.
void ExpectMaintenance(const SourceSpec& source, std::uint64_t seed,
                       SimTime start, ProtocolKind protocol,
                       std::uint64_t want, const std::string& label) {
  for (const DispatchPolicy policy :
       {DispatchPolicy::kScan, DispatchPolicy::kIndex}) {
    SystemConfig config;
    config.source = source;
    config.duration = kDuration;
    config.query_start = start;
    config.seed = seed;
    config.dispatch = policy;
    config.query = QuerySpec::Range(kLo, kHi);
    config.protocol = protocol;
    auto result = RunSystem(config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->MaintenanceMessages(), want)
        << label << " " << ProtocolKindName(protocol) << " start " << start
        << " dispatch=" << DispatchPolicyName(policy);
  }
}

void ExpectBothCounts(const SourceSpec& source, std::uint64_t seed,
                      const std::string& label) {
  for (const SimTime start : {0.0, 150.0}) {
    const SourceCounts counts = CountFromSource(source, start);
    ASSERT_GT(counts.flips, 0u) << label;
    ASSERT_LT(counts.flips, counts.updates) << label;
    ExpectMaintenance(source, seed, start, ProtocolKind::kNoFilter,
                      counts.updates, label);
    ExpectMaintenance(source, seed, start, ProtocolKind::kZtNrp,
                      counts.flips, label);
  }
}

/// Runs a no-filter and a ZT-NRP [kLo, kHi] query, both live over
/// [start, end), in one multi-query run under scan and index dispatch,
/// and checks each query's maintenance messages: its window's count plus
/// the uninstall broadcast, one deploy per stream.
void ExpectChurnedCounts(const SourceSpec& source, std::uint64_t seed,
                         SimTime start, SimTime end,
                         const std::string& label) {
  const SourceCounts counts = CountFromSource(source, start, end);
  const std::uint64_t n = source.NumStreams();
  for (const DispatchPolicy policy :
       {DispatchPolicy::kScan, DispatchPolicy::kIndex}) {
    MultiQueryConfig config;
    config.source = source;
    config.duration = kDuration;
    config.seed = seed;
    config.dispatch = policy;
    for (const ProtocolKind protocol :
         {ProtocolKind::kNoFilter, ProtocolKind::kZtNrp}) {
      QueryDeployment query;
      query.name = std::string(ProtocolKindName(protocol));
      query.query = QuerySpec::Range(kLo, kHi);
      query.protocol = protocol;
      query.start = start;
      query.end = end;
      config.queries.push_back(query);
    }
    auto result = RunMultiQuerySystem(config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->queries[0].messages.MaintenanceTotal(),
              counts.updates + n)
        << label << " no-filter dispatch=" << DispatchPolicyName(policy);
    EXPECT_EQ(result->queries[1].messages.MaintenanceTotal(),
              counts.flips + n)
        << label << " ZT-NRP dispatch=" << DispatchPolicyName(policy);
  }
}

SourceSpec Walks(std::uint64_t seed) {
  RandomWalkConfig walk;
  walk.num_streams = 300;
  walk.seed = seed;
  return SourceSpec::Walk(walk);
}

TEST(MessageCountTest, WalkCountsPinTheSource) {
  // Seed 1 from start 0, as first counted without the engine. The walks
  // reschedule themselves by re-arming one event per stream; these counts
  // hold that the trajectories did not move.
  const SourceCounts counts = CountFromSource(Walks(1), 0);
  EXPECT_EQ(counts.updates, 11842u);
  EXPECT_EQ(counts.flips, 399u);
}

TEST(MessageCountTest, EngineMatchesTheSourceOnWalks) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    ExpectBothCounts(Walks(seed), seed, "walk seed " + std::to_string(seed));
  }
}

TEST(MessageCountTest, ChurnedQueriesMatchTheSourceOnWalks) {
  // Seed 1 over [150, 500), as first counted without the engine.
  const SourceCounts pinned = CountFromSource(Walks(1), 150, 500);
  EXPECT_EQ(pinned.updates, 5172u);
  EXPECT_EQ(pinned.flips, 166u);
  for (const std::uint64_t seed : {1, 2, 3}) {
    ExpectChurnedCounts(Walks(seed), seed, 150, 500,
                        "walk seed " + std::to_string(seed) + " [150, 500)");
  }
}

/// Ten streams stepping around [kLo, kHi] at integer times 1..kDuration,
/// one to four records an instant: three at t = 100, one at t = 300.
TraceData IntegerTimeTrace() {
  constexpr std::size_t kStreams = 10;
  Rng rng(11);
  std::vector<Value> initial(kStreams);
  for (Value& v : initial) v = rng.Uniform(300, 700);
  std::vector<TraceRecord> records;
  for (int t = 1; t <= static_cast<int>(kDuration); ++t) {
    const int count = t == 100 ? 3 : t == 300 ? 1 : 1 + t % 4;
    for (int i = 0; i < count; ++i) {
      TraceRecord rec;
      rec.time = t;
      rec.stream = static_cast<StreamId>(
          rng.UniformInt(0, static_cast<std::int64_t>(kStreams) - 1));
      rec.value = rng.Uniform(300, 700);
      records.push_back(rec);
    }
  }
  auto trace = TraceData::Make(kStreams, std::move(initial),
                               std::move(records));
  EXPECT_TRUE(trace.ok()) << trace.status().ToString();
  return std::move(trace).value();
}

TEST(MessageCountTest, ChurnedQueriesMatchTheSourceAtTiedInstants) {
  // A query deployed at 100 and retired at 300 shares both instants with
  // stream records. The deploy instant and the retire instant differ in
  // records and in flips, so a lifecycle change that ran after the
  // same-instant records would move both counts.
  const TraceData trace = IntegerTimeTrace();
  const SourceSpec source = SourceSpec::Trace(&trace);
  const SourceCounts at_start = CountFromSource(source, 100, 101);
  const SourceCounts at_end = CountFromSource(source, 300, 301);
  ASSERT_NE(at_start.updates, at_end.updates);
  ASSERT_NE(at_start.flips, at_end.flips);
  ExpectChurnedCounts(source, 1, 100, 300, "integer-time trace [100, 300)");
}

TEST(MessageCountTest, EngineMatchesTheSourceOnATcpTrace) {
  TcpSynthConfig synth;
  synth.num_subnets = 60;
  synth.total_connections = 4000;
  synth.duration = kDuration;
  synth.seed = 5;
  auto trace = GenerateTcpTrace(synth);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ExpectBothCounts(SourceSpec::Trace(&*trace), 1, "tcp trace");
}

}  // namespace
}  // namespace asf
