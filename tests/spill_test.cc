#include "engine/spill.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/churn.h"
#include "engine/multi_system.h"
#include "engine/system.h"
#include "result_equality.h"

// Out-of-core query state (DESIGN.md §13): the spilled-record codec must
// be bit-exact, and a run that spills retired state through any buffer
// pool configuration must produce results identical to the all-in-RAM
// run — the pool only changes where closed books are parked.

namespace asf {
namespace {

std::string SpillDir() {
  return ::testing::TempDir();  // scratch files are removed by the spiller
}

// --- SpillConfig validation ---

TEST(SpillConfigTest, DisabledByDefault) {
  SpillConfig config;
  EXPECT_FALSE(config.enabled());
  EXPECT_TRUE(config.Validate().ok());
}

TEST(SpillConfigTest, RejectsTinyPool) {
  SpillConfig config;
  config.dir = SpillDir();
  config.buffer_pages = 1;  // record chains keep two pages pinned
  EXPECT_FALSE(config.Validate().ok());
}

TEST(SpillConfigTest, RejectsUnwritableDir) {
  SpillConfig config;
  config.dir = "/nonexistent-asf-spill-dir/deeper";
  EXPECT_FALSE(config.Validate().ok());
}

TEST(SpillConfigTest, AcceptsWritableDir) {
  SpillConfig config;
  config.dir = SpillDir();
  EXPECT_TRUE(config.Validate().ok());
}

// --- Codec ---

QueryRunStats SampleStats() {
  QueryRunStats stats;
  stats.name = "codec-query";
  stats.messages.set_phase(MessagePhase::kInit);
  stats.messages.Count(MessageType::kFilterDeploy, 7);
  stats.messages.set_phase(MessagePhase::kMaintenance);
  stats.messages.Count(MessageType::kValueUpdate, 1234);
  stats.messages.Count(MessageType::kProbeRequest, 9);
  stats.updates_reported = 512;
  stats.reinits = 3;
  stats.fp_filters_installed = 11;
  stats.fn_filters_installed = 5;
  for (int i = 0; i < 17; ++i) stats.answer_size.Add(0.125 * i - 0.3);
  stats.oracle_checks = 40;
  stats.oracle_violations = 2;
  stats.max_f_plus = 0.21875;       // exact binary fractions round-trip
  stats.max_f_minus = 0.0625;
  stats.max_worst_rank = 6;
  stats.oracle_violations_in_flight = 1;
  for (int i = 0; i < 5; ++i) stats.update_delay.Add(1.5 + 0.25 * i);
  stats.deployed_at = 12.75;
  stats.retired_at = 987.125;
  return stats;
}

/// Every visited field bit for bit, plus the accounting phase the record
/// also carries.
void ExpectBitExact(const QueryRunStats& a, const QueryRunStats& b) {
  ExpectSameResult(a, b, a.name);
  EXPECT_EQ(a.messages.phase(), b.messages.phase());
}

TEST(SpillCodecTest, RoundTripIsBitExact) {
  const QueryRunStats stats = SampleStats();
  const auto bytes = engine_internal::EncodeQueryRecord(stats);
  EXPECT_FALSE(bytes.empty());
  ExpectBitExact(stats, engine_internal::DecodeQueryRecord(bytes));
}

TEST(SpillCodecTest, DefaultStatsRoundTrip) {
  const QueryRunStats stats;
  ExpectBitExact(stats, engine_internal::DecodeQueryRecord(
                            engine_internal::EncodeQueryRecord(stats)));
}

// --- Spiller over a real page file ---

TEST(SpillerTest, SpillAndFaultManyRecords) {
  SpillConfig config;
  config.dir = SpillDir();
  config.buffer_pages = 2;  // forces eviction traffic
  config.page_size = 256;
  ASSERT_TRUE(config.Validate().ok());
  auto spiller = engine_internal::QueryStateSpiller::Create(config);

  std::vector<storage::RecordRef> refs;
  std::vector<QueryRunStats> originals;
  for (int i = 0; i < 30; ++i) {
    QueryRunStats stats = SampleStats();
    stats.name = "q" + std::to_string(i);
    stats.updates_reported = 1000 + i;
    stats.deployed_at = i * 1.5;
    originals.push_back(stats);
    refs.push_back(spiller->Spill(stats));
    EXPECT_TRUE(refs.back().valid());
  }
  for (std::size_t i = 0; i < refs.size(); ++i) {
    ExpectBitExact(originals[i], spiller->Fault(refs[i]));
  }
  const SpillTelemetry telemetry = spiller->Telemetry();
  EXPECT_TRUE(telemetry.enabled);
  EXPECT_EQ(telemetry.records_spilled, 30u);
  EXPECT_EQ(telemetry.records_faulted, 30u);
  EXPECT_EQ(telemetry.spilled_bytes, telemetry.faulted_bytes);
  EXPECT_GT(telemetry.pool_evictions, 0u);
  EXPECT_EQ(telemetry.replacement, "lru");
}

// --- Whole-run equivalence: spill vs in-memory, byte-identical ---

MultiQueryConfig ChurnConfig() {
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 80;
  walk.seed = 31;
  config.source = SourceSpec::Walk(walk);
  config.duration = 900;
  config.seed = 31;
  config.oracle.sample_interval = 120;

  ChurnSpec spec;
  spec.arrival_rate = 0.08;
  spec.mean_lifetime = 120;
  spec.seed = 44;
  auto queries = ExpandChurn(spec, config.duration);
  EXPECT_TRUE(queries.ok());
  config.queries = std::move(queries).value();
  return config;
}

TEST(SpillEquivalenceTest, ChurnAcrossPoolSizesAndPolicies) {
  const MultiQueryConfig base = ChurnConfig();
  auto in_memory = RunMultiQuerySystem(base);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
  EXPECT_FALSE(in_memory->spill.enabled);

  for (const std::size_t buffer_pages : {std::size_t{2}, std::size_t{64}}) {
    for (const auto policy :
         {storage::ReplacementPolicy::kLru, storage::ReplacementPolicy::kFifo}) {
      MultiQueryConfig config = base;
      config.spill.dir = SpillDir();
      config.spill.buffer_pages = buffer_pages;
      config.spill.replacement = policy;
      config.spill.page_size = 512;  // small pages force multi-page chains
      auto spilled = RunMultiQuerySystem(config);
      ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
      ExpectSameResult(
          *in_memory, *spilled,
          "pages=" + std::to_string(buffer_pages) + " policy=" +
              std::string(storage::ReplacementPolicyName(policy)));
      EXPECT_TRUE(spilled->spill.enabled);
      EXPECT_GT(spilled->spill.records_spilled, 0u);
      // Everything the result table shows was faulted back.
      EXPECT_EQ(spilled->spill.records_faulted,
                spilled->spill.records_spilled);
      EXPECT_EQ(spilled->spill.buffer_pages, buffer_pages);
    }
  }
}

TEST(SpillEquivalenceTest, SingleQuerySystemRun) {
  SystemConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 120;
  walk.seed = 9;
  config.source = SourceSpec::Walk(walk);
  config.duration = 500;
  config.seed = 9;
  config.query = QuerySpec::Range(420, 580);
  config.protocol = ProtocolKind::kFtNrp;
  config.fraction = {0.2, 0.2};

  auto in_memory = RunSystem(config);
  ASSERT_TRUE(in_memory.ok());

  config.spill.dir = SpillDir();
  config.spill.buffer_pages = 2;
  auto spilled = RunSystem(config);
  ASSERT_TRUE(spilled.ok());

  ExpectSameResult(*in_memory, *spilled, "single query");
  EXPECT_TRUE(spilled->spill.enabled);
  // A static query is live until the horizon, so it never leaves the hot
  // set: only *retired* queries spill. The run must still accept (and
  // validate) the spill configuration.
  EXPECT_EQ(spilled->spill.records_spilled, 0u);
}

}  // namespace
}  // namespace asf
