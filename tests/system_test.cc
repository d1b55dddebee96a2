#include "engine/system.h"

#include <gtest/gtest.h>

#include <limits>

#include "engine/multi_system.h"
#include "trace/tcp_synth.h"

namespace asf {
namespace {

SystemConfig SmallWalkConfig() {
  SystemConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 200;
  walk.seed = 7;
  config.source = SourceSpec::Walk(walk);
  config.query = QuerySpec::Range(400, 600);
  config.protocol = ProtocolKind::kZtNrp;
  config.duration = 500;
  return config;
}

// --- Validation ---

TEST(SystemConfigTest, RejectsProtocolQueryMismatch) {
  SystemConfig config = SmallWalkConfig();
  config.protocol = ProtocolKind::kRtp;  // rank protocol, range query
  EXPECT_FALSE(RunSystem(config).ok());

  config = SmallWalkConfig();
  config.query = QuerySpec::TopK(5);
  config.protocol = ProtocolKind::kFtNrp;  // range protocol, rank query
  EXPECT_FALSE(RunSystem(config).ok());
}

TEST(SystemConfigTest, RejectsBadTolerance) {
  SystemConfig config = SmallWalkConfig();
  config.protocol = ProtocolKind::kFtNrp;
  config.fraction = {0.7, 0.0};  // > 0.5
  EXPECT_FALSE(RunSystem(config).ok());
}

TEST(SystemConfigTest, RejectsOversizedK) {
  SystemConfig config = SmallWalkConfig();
  config.query = QuerySpec::TopK(201);  // only 200 streams
  config.protocol = ProtocolKind::kRtp;
  EXPECT_FALSE(RunSystem(config).ok());

  // So is an RTP rank slack beyond the population, which would wrap k + r.
  config.query = QuerySpec::TopK(5);
  config.rank_r = 200;
  EXPECT_TRUE(config.Validate().ok());
  for (const std::size_t r : {std::size_t{201},
                              std::numeric_limits<std::size_t>::max()}) {
    config.rank_r = r;
    EXPECT_FALSE(RunSystem(config).ok()) << "r = " << r;
  }
}

/// One table of bad run-level values, applied to a single-query config and
/// to a multi-query config with the same valid query: both check their
/// run-level fields with RunOptions::Validate, which must reject each one.
TEST(SystemConfigTest, RejectsBadTiming) {
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr double inf = std::numeric_limits<double>::infinity();
  const struct {
    const char* label;
    void (*apply)(RunOptions&);
  } kCases[] = {
      {"duration nan", [](RunOptions& o) { o.duration = nan; }},
      {"duration +inf", [](RunOptions& o) { o.duration = inf; }},
      {"duration -inf", [](RunOptions& o) { o.duration = -inf; }},
      {"duration 0", [](RunOptions& o) { o.duration = 0; }},
      {"query_start nan", [](RunOptions& o) { o.query_start = nan; }},
      {"query_start -1", [](RunOptions& o) { o.query_start = -1; }},
      {"query_start == duration",
       [](RunOptions& o) { o.query_start = o.duration; }},
      {"oracle interval nan",
       [](RunOptions& o) { o.oracle.sample_interval = nan; }},
      {"oracle interval -1",
       [](RunOptions& o) { o.oracle.sample_interval = -1; }},
  };
  const SystemConfig good = SmallWalkConfig();
  MultiQueryConfig good_multi;
  static_cast<RunOptions&>(good_multi) = good;
  good_multi.queries.push_back(good.Deployment());
  ASSERT_TRUE(good.Validate().ok());
  ASSERT_TRUE(good_multi.Validate().ok());

  for (const auto& c : kCases) {
    SystemConfig single = good;
    c.apply(single);
    EXPECT_FALSE(single.Validate().ok()) << c.label;
    EXPECT_FALSE(RunSystem(single).ok()) << c.label;
    MultiQueryConfig multi = good_multi;
    c.apply(multi);
    EXPECT_FALSE(multi.Validate().ok()) << c.label;
  }
}

TEST(SystemConfigTest, RejectsMissingTrace) {
  SystemConfig config = SmallWalkConfig();
  config.source = SourceSpec::Trace(nullptr);
  EXPECT_FALSE(RunSystem(config).ok());
}

// --- Behaviour ---

TEST(SystemTest, NoFilterReportsEveryUpdate) {
  SystemConfig config = SmallWalkConfig();
  config.protocol = ProtocolKind::kNoFilter;
  auto result = RunSystem(config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->updates_generated, 0u);
  EXPECT_EQ(result->updates_reported, result->updates_generated);
  // Baseline accounting: maintenance messages == update messages.
  EXPECT_EQ(result->MaintenanceMessages(), result->updates_generated);
  // Init: probe-all only.
  EXPECT_EQ(result->messages.InitTotal(), 400u);
}

TEST(SystemTest, ZtNrpReportsOnlyCrossings) {
  SystemConfig config = SmallWalkConfig();
  auto result = RunSystem(config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->updates_generated, 0u);
  EXPECT_LT(result->updates_reported, result->updates_generated);
  EXPECT_EQ(result->MaintenanceMessages(), result->updates_reported);
}

TEST(SystemTest, DeterministicForSeed) {
  SystemConfig config = SmallWalkConfig();
  config.protocol = ProtocolKind::kFtNrp;
  config.fraction = {0.3, 0.3};
  auto a = RunSystem(config);
  auto b = RunSystem(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->MaintenanceMessages(), b->MaintenanceMessages());
  EXPECT_EQ(a->updates_generated, b->updates_generated);
  EXPECT_EQ(a->updates_reported, b->updates_reported);
}

TEST(SystemTest, DifferentSeedsDiffer) {
  SystemConfig config = SmallWalkConfig();
  auto a = RunSystem(config);
  config.source.walk.seed = 8;
  auto b = RunSystem(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->updates_reported, b->updates_reported);
}

TEST(SystemTest, WarmupSuppressesPreQueryTraffic) {
  SystemConfig config = SmallWalkConfig();
  config.protocol = ProtocolKind::kNoFilter;
  config.query_start = 250;  // half the run is warm-up
  auto late = RunSystem(config);
  config.query_start = 0;
  auto full = RunSystem(config);
  ASSERT_TRUE(late.ok());
  ASSERT_TRUE(full.ok());
  // Warm-up updates are generated but neither counted nor reported.
  EXPECT_LT(late->updates_generated, full->updates_generated);
  EXPECT_GT(late->updates_generated, 0u);
  EXPECT_NEAR(static_cast<double>(late->updates_generated),
              static_cast<double>(full->updates_generated) / 2.0,
              static_cast<double>(full->updates_generated) * 0.15);
}

TEST(SystemTest, OracleWatchesEveryProtocol) {
  for (ProtocolKind kind :
       {ProtocolKind::kNoFilter, ProtocolKind::kZtNrp, ProtocolKind::kFtNrp}) {
    SystemConfig config = SmallWalkConfig();
    config.protocol = kind;
    config.fraction = {0.3, 0.3};
    config.oracle.check_every_update = true;
    auto result = RunSystem(config);
    ASSERT_TRUE(result.ok());
    EXPECT_GT(result->oracle_checks, 0u);
    EXPECT_EQ(result->oracle_violations, 0u)
        << ProtocolKindName(kind) << ": maxF+=" << result->max_f_plus
        << " maxF-=" << result->max_f_minus;
  }
}

TEST(SystemTest, OracleSamplingInterval) {
  SystemConfig config = SmallWalkConfig();
  config.oracle.sample_interval = 10;  // 500 time units -> ~50 samples
  auto result = RunSystem(config);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->oracle_checks, 45u);
  EXPECT_LE(result->oracle_checks, 55u);
  EXPECT_EQ(result->oracle_violations, 0u);
}

TEST(SystemTest, TraceSourceRuns) {
  TcpSynthConfig synth;
  synth.num_subnets = 100;
  synth.total_connections = 5000;
  synth.duration = 1000;
  auto trace = GenerateTcpTrace(synth);
  ASSERT_TRUE(trace.ok());

  SystemConfig config;
  config.source = SourceSpec::Trace(&trace.value());
  config.query = QuerySpec::Range(400, 600);
  config.protocol = ProtocolKind::kZtNrp;
  config.duration = 1000;
  auto result = RunSystem(config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->updates_generated, 5000u);
  EXPECT_GT(result->updates_reported, 0u);
}

TEST(SystemTest, RankProtocolsRunOnWalk) {
  SystemConfig config = SmallWalkConfig();
  config.query = QuerySpec::Knn(5, 500);
  config.protocol = ProtocolKind::kRtp;
  config.rank_r = 5;
  auto result = RunSystem(config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->MaintenanceMessages(), 0u);
  // RTP answers are always exactly k.
  EXPECT_DOUBLE_EQ(result->answer_size.min(), 5.0);
  EXPECT_DOUBLE_EQ(result->answer_size.max(), 5.0);
}

TEST(SystemTest, AnswerSizeTracksBandForFtRp) {
  SystemConfig config = SmallWalkConfig();
  config.query = QuerySpec::Knn(10, 500);
  config.protocol = ProtocolKind::kFtRp;
  config.fraction = {0.4, 0.4};
  auto result = RunSystem(config);
  ASSERT_TRUE(result.ok());
  // Equations 8/10: answer size stays within [k/2, 2k].
  EXPECT_GE(result->answer_size.min(), 5.0);
  EXPECT_LE(result->answer_size.max(), 20.0);
}

TEST(SystemTest, SilentFilterCountsReported) {
  SystemConfig config = SmallWalkConfig();
  config.protocol = ProtocolKind::kFtNrp;
  config.fraction = {0.4, 0.4};
  auto result = RunSystem(config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->fp_filters_installed, 0u);
  EXPECT_GT(result->fn_filters_installed, 0u);
  // ZT-NRP silences nobody.
  config.protocol = ProtocolKind::kZtNrp;
  auto exact = RunSystem(config);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->fp_filters_installed, 0u);
  EXPECT_EQ(exact->fn_filters_installed, 0u);
}

TEST(SystemTest, WallClockIsMeasured) {
  auto result = RunSystem(SmallWalkConfig());
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->wall_seconds, 0.0);
}

}  // namespace
}  // namespace asf
