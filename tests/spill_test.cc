#include "engine/spill.h"

#include <gtest/gtest.h>

#include <filesystem>
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

/// An empty scratch directory private to `name`, so a test can check that
/// a run leaves nothing behind in it.
std::string PrivateSpillDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("asf_spill_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// The spiller removes its page file when the run ends.
void ExpectNoScratchLeft(const std::string& dir, const std::string& label) {
  EXPECT_TRUE(std::filesystem::is_empty(dir)) << label << ": " << dir;
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
    stats.name = "q";
    stats.name += std::to_string(i);
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
  const std::string dir = PrivateSpillDir("churn_pools");
  auto in_memory = RunMultiQuerySystem(base);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
  EXPECT_FALSE(in_memory->spill.enabled);

  for (const std::size_t buffer_pages : {std::size_t{2}, std::size_t{64}}) {
    for (const auto policy :
         {storage::ReplacementPolicy::kLru, storage::ReplacementPolicy::kFifo}) {
      MultiQueryConfig config = base;
      config.spill.dir = dir;
      config.spill.buffer_pages = buffer_pages;
      config.spill.replacement = policy;
      config.spill.page_size = 512;  // small pages force multi-page chains
      auto spilled = RunMultiQuerySystem(config);
      ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
      const std::string label =
          "pages=" + std::to_string(buffer_pages) + " policy=" +
          std::string(storage::ReplacementPolicyName(policy));
      ExpectSameResult(*in_memory, *spilled, label);
      ExpectNoScratchLeft(dir, label);
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

  config.spill.dir = PrivateSpillDir("single_query");
  config.spill.buffer_pages = 2;
  auto spilled = RunSystem(config);
  ASSERT_TRUE(spilled.ok());

  ExpectSameResult(*in_memory, *spilled, "single query");
  ExpectNoScratchLeft(config.spill.dir, "single query");
  EXPECT_TRUE(spilled->spill.enabled);
  // A static query is live until the horizon, so it never leaves the hot
  // set: only *retired* queries spill. The run must still accept (and
  // validate) the spill configuration.
  EXPECT_EQ(spilled->spill.records_spilled, 0u);
}

/// bench/ooc_churn's workload, pinned exactly: a long-horizon churn
/// schedule (rate 0.25, mean lifetime 60, seed 71) over 200 walks seeded
/// 13 for 6000 time units. Cumulative deployments dwarf the peak live
/// population; every pool point reproduces the in-memory run field by
/// field; each retired record is written once and faulted once, so a pool
/// that holds the whole file hits on exactly half its requests.
TEST(SpillEquivalenceTest, OutOfCoreChurnIsPinned) {
  MultiQueryConfig base;
  RandomWalkConfig walk;
  walk.num_streams = 200;
  walk.seed = 13;
  base.source = SourceSpec::Walk(walk);
  base.duration = 6000;
  base.seed = 13;
  ChurnSpec spec;
  spec.arrival_rate = 0.25;
  spec.mean_lifetime = 60;
  spec.seed = 71;
  auto queries = ExpandChurn(spec, base.duration);
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();
  base.queries = std::move(queries).value();

  auto in_memory = RunMultiQuerySystem(base);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
  EXPECT_EQ(in_memory->queries.size(), 1511u);
  EXPECT_EQ(in_memory->peak_live_queries, 28u);

  const std::string dir = PrivateSpillDir("ooc_churn");
  const struct {
    std::size_t buffer_pages;
    storage::ReplacementPolicy policy;
  } kPoints[] = {
      {4, storage::ReplacementPolicy::kLru},
      {32, storage::ReplacementPolicy::kLru},
      {32, storage::ReplacementPolicy::kFifo},
      {4096, storage::ReplacementPolicy::kLru},
  };
  for (const auto& point : kPoints) {
    MultiQueryConfig config = base;
    config.spill.dir = dir;
    config.spill.buffer_pages = point.buffer_pages;
    config.spill.replacement = point.policy;
    auto spilled = RunMultiQuerySystem(config);
    ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
    const std::string label =
        "pages=" + std::to_string(point.buffer_pages) + " policy=" +
        std::string(storage::ReplacementPolicyName(point.policy));
    ExpectSameResult(*in_memory, *spilled, label);
    ExpectNoScratchLeft(dir, label);
    if (point.buffer_pages == 4096) {
      EXPECT_EQ(spilled->spill.pool_hits, 1494u);
      EXPECT_EQ(spilled->spill.pool_misses, 1494u);
      EXPECT_EQ(spilled->spill.pool_resident_bytes, 16777216u);
    }
  }
}

}  // namespace
}  // namespace asf
