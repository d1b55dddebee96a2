#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "engine/churn.h"
#include "engine/multi_system.h"
#include "engine/system.h"
#include "metrics/bench_json.h"
#include "metrics/table.h"
#include "net/network_model.h"
#include "obs/hooks.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "result_equality.h"

// Unified observability layer (DESIGN.md §14): tracer buffer semantics,
// the Chrome JSON it writes, profiler attribution, the run report — and
// above all the inertness contract: attaching every observability
// facility must leave engine results bit-identical.

namespace asf {
namespace {

// --- Tracer ---

TEST(TracerTest, OverflowDropsAndCountsInsteadOfBlocking) {
  obs::Tracer tracer(obs::kCatAll, 4);
  for (std::uint32_t i = 0; i < 10; ++i) {
    tracer.Emit(obs::TraceEventType::kValueUpdate, i, i);
  }
  EXPECT_EQ(tracer.records().size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  // The survivors are the first four — drops happen at the tail.
  EXPECT_EQ(tracer.records()[3].id, 3u);
}

TEST(TracerTest, EmitRespectsCategoryMask) {
  obs::Tracer tracer(obs::kCatWire);
  EXPECT_TRUE(tracer.Wants(obs::kCatWire));
  EXPECT_FALSE(tracer.Wants(obs::kCatUpdate));
  ASF_TRACE_EVENT(&tracer, obs::TraceEventType::kWireSend, 1.0, 7, 0.5, 2);
  ASF_TRACE_EVENT(&tracer, obs::TraceEventType::kValueUpdate, 2.0, 8, 0.5, 0);
#if ASF_OBS_TRACE_COMPILED
  ASSERT_EQ(tracer.records().size(), 1u);
  EXPECT_EQ(tracer.records()[0].type,
            static_cast<std::uint16_t>(obs::TraceEventType::kWireSend));
#else
  EXPECT_TRUE(tracer.records().empty());
#endif
}

TEST(TracerTest, ParseCategoryMask) {
  EXPECT_EQ(obs::ParseCategoryMask("all").value(), obs::kCatAll);
  EXPECT_EQ(obs::ParseCategoryMask("").value(), obs::kCatAll);
  EXPECT_EQ(obs::ParseCategoryMask("update,wire").value(),
            obs::kCatUpdate | obs::kCatWire);
  EXPECT_EQ(obs::ParseCategoryMask("spill").value(), obs::kCatSpill);
  EXPECT_FALSE(obs::ParseCategoryMask("bogus").ok());
  EXPECT_FALSE(obs::ParseCategoryMask("epoch").ok());
}

/// The written document, pinned byte for byte: the thread-name event,
/// then one instant event per kept record (the fourth was dropped), ts in
/// microseconds at 1 sim-time unit = 1 s, value at full precision.
TEST(TracerTest, WritesTheChromeDocument) {
  obs::Tracer tracer(obs::kCatAll, 3);
  tracer.Emit(obs::TraceEventType::kValueUpdate, 1.5, 11, 0.1, 0);
  tracer.Emit(obs::TraceEventType::kCrossing, 2.5, 12, 43.0, 3);
  tracer.Emit(obs::TraceEventType::kIndexRebuild, 3.0, 0, 0.0, 9);
  tracer.Emit(obs::TraceEventType::kWireSend, 3.5, 13, 0.0, 1);  // dropped
  ASSERT_EQ(tracer.dropped(), 1u);

  const std::string path = ::testing::TempDir() + "/obs_chrome.json";
  ASSERT_TRUE(tracer.WriteChromeJson(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream written;
  written << in.rdbuf();
  EXPECT_EQ(
      written.str(),
      R"({"traceEvents":[{"name":"thread_name","ph":"M","pid":0,"tid":0,)"
      R"("ts":0,"args":{"name":"engine"}},)"
      R"({"name":"value_update","cat":"update","ph":"i","s":"t",)"
      R"("ts":1500000.000000,"pid":0,"tid":0,)"
      R"("args":{"id":11,"value":0.10000000000000001,"aux":0}},)"
      R"({"name":"crossing","cat":"crossing","ph":"i","s":"t",)"
      R"("ts":2500000.000000,"pid":0,"tid":0,)"
      R"("args":{"id":12,"value":43,"aux":3}},)"
      R"({"name":"index_rebuild","cat":"index","ph":"i","s":"t",)"
      R"("ts":3000000.000000,"pid":0,"tid":0,)"
      R"("args":{"id":0,"value":0,"aux":9}}]})"
      "\n");

  const Status unwritable = tracer.WriteChromeJson(::testing::TempDir());
  EXPECT_EQ(unwritable.code(), StatusCode::kIoError) << unwritable.ToString();
}

// --- Profiler ---

TEST(ProfilerTest, NestedScopesAttributeExclusively) {
  obs::Profiler profiler;
  {
    obs::ScopedPhase root(&profiler, obs::Phase::kOther);
    {
      obs::ScopedPhase dispatch(&profiler, obs::Phase::kDispatch);
      obs::ScopedPhase nested(&profiler, obs::Phase::kNetFlush);
    }
  }
  const obs::ProfileReport report = profiler.Merged();
  EXPECT_GT(report.of(obs::Phase::kOther), 0.0);
  EXPECT_GE(report.of(obs::Phase::kDispatch), 0.0);
  EXPECT_GE(report.of(obs::Phase::kNetFlush), 0.0);
  // Exclusive attribution: phases sum to the total, not more.
  const double sum = report.of(obs::Phase::kOther) +
                     report.of(obs::Phase::kDispatch) +
                     report.of(obs::Phase::kNetFlush);
  EXPECT_DOUBLE_EQ(report.total(), sum);
  const std::string table = profiler.FormatTable(report.total());
  EXPECT_NE(table.find("obs profile"), std::string::npos);
  const std::string json = profiler.ProfileJson();
  EXPECT_NE(json.find("\"total\""), std::string::npos);
}

TEST(ProfilerTest, NullProfilerScopesAreNoops) {
  obs::ScopedPhase scope(nullptr, obs::Phase::kDispatch);  // must not crash
}

// --- JsonWriter blocks ---

TEST(JsonWriterTest, BlocksComeAfterTheMetricsObject) {
  metrics::JsonWriter writer("unit");
  writer.SetProvenance({{"key", "val"}});
  writer.AddMetric("m", 1.5);
  writer.AddBlock("extra", "{\"a\": 1}");
  const std::string json = writer.ToJson();
  const auto metrics_pos = json.find("\"metrics\"");
  const auto prov_pos = json.find("\"provenance\"");
  const auto block_pos = json.find("\"extra\"");
  ASSERT_NE(metrics_pos, std::string::npos);
  EXPECT_LT(prov_pos, metrics_pos);  // strings before the flat scan
  EXPECT_GT(block_pos, metrics_pos);  // blocks after the gated object
}

// --- The run report ---

TEST(RunReportTest, NetAndSpillRowsAreGated) {
  MultiQueryResult result;
  result.queries.emplace_back();
  const std::string instant = obs::RunReport(result, NetConfig());
  for (const char* row : {"net model", "in flight", "spill"}) {
    EXPECT_EQ(instant.find(row), std::string::npos) << row;
  }
  const std::string batch =
      obs::RunReport(result, ParseNetSpec("batch:5").value());
  EXPECT_NE(batch.find("net model"), std::string::npos);
  EXPECT_EQ(batch.find("crossings lost"), std::string::npos);
  EXPECT_NE(obs::RunReport(result, ParseNetSpec("latency:2+loss:0.1").value())
                .find("crossings lost"),
            std::string::npos);
  result.spill.enabled = true;
  EXPECT_NE(obs::RunReport(result, NetConfig()).find("spill pool"),
            std::string::npos);
}

/// asf_run --bench-json writes RunMetrics through the JsonWriter. On a
/// churn run with several queries, spilling, over a lossy delayed net,
/// every numeric field the record's field list names appears once in the
/// metrics object, under that name, with the run's value.
TEST(RunReportTest, BenchJsonHoldsEveryRecordField) {
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 200;
  walk.seed = 5;
  config.source = SourceSpec::Walk(walk);
  config.duration = 600;
  config.seed = 5;
  config.oracle.sample_interval = 50;
  config.net = ParseNetSpec("latency:2+loss:0.1").value();
  config.spill.dir = ::testing::TempDir();
  config.spill.buffer_pages = 4;
  ChurnSpec spec;
  spec.arrival_rate = 0.02;
  spec.mean_lifetime = 100;
  spec.seed = 9;
  config.queries = ExpandChurn(spec, config.duration).value();
  const auto result = RunMultiQuerySystem(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GE(result->queries.size(), 3u);
  ASSERT_GT(result->net.dropped_loss, 0u);
  ASSERT_GT(result->spill.records_spilled, 0u);

  metrics::JsonWriter writer("asf_run");
  writer.AddMetrics(obs::RunMetrics(*result));
  const std::string json = writer.ToJson();
  const auto begin = json.find("\"metrics\": {");
  const std::string object =
      json.substr(begin, json.find("\n  }", begin) - begin);
  const auto has = [&object](const std::string& name, const std::string& v) {
    return object.find("\n    \"" + name + "\": " + v) != std::string::npos;
  };

  std::set<std::string> names;
  const auto expect = [&](const FieldName& field, const auto& value) {
    if constexpr (std::is_arithmetic_v<std::decay_t<decltype(value)>>) {
      const std::string name = field.str();
      EXPECT_TRUE(names.insert(name).second) << "two fields named " << name;
      EXPECT_TRUE(has(name, Fmt("%.17g", static_cast<double>(value))))
          << name;
    }
  };
  expect(FieldName("queries"), result->queries.size());
  for (std::size_t i = 0; i < result->queries.size(); ++i) {
    const std::string prefix = "queries[" + std::to_string(i) + "]";
    VisitFields(FieldName(prefix), result->queries[i], expect);
    for (int t = 0; t < kNumMessageTypes; ++t) {  // the paper's metric
      const auto type = static_cast<MessageType>(t);
      EXPECT_TRUE(has(prefix + ".messages.maintenance." +
                          std::string(MessageTypeName(type)),
                      std::to_string(result->queries[i].messages.count(
                          MessagePhase::kMaintenance, type))));
    }
  }
  VisitRunTotals(FieldName(), *result, expect);
  VisitTelemetry(FieldName(), *result, expect);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(object.begin(), object.end(), '\n')),
            names.size());

  // Read back as a consumer would: every query's maintenance keys, by
  // type, sum to the report's "logical maintenance" row.
  const std::string kMaintenance = ".messages.maintenance.";
  std::size_t keys = 0;
  double maintenance = 0;
  for (auto at = object.find(kMaintenance); at != std::string::npos;
       at = object.find(kMaintenance, at + 1)) {
    ++keys;
    maintenance += std::strtod(&object[object.find("\": ", at) + 3], nullptr);
  }
  EXPECT_EQ(keys, kNumMessageTypes * result->queries.size());
  const std::string report = obs::RunReport(*result, config.net);
  const auto row = report.find("logical maintenance");
  ASSERT_NE(row, std::string::npos);
  EXPECT_EQ(std::strtod(&report[report.find_first_of("0123456789", row)],
                        nullptr),
            maintenance);
}

/// Under reorder, a wire message whose payloads were all suppressed as
/// stale counts as physical but not as logical, so a one-query FT-RP
/// 20-NN run (the `asf_run --net=reorder:2` defaults: 400 walks, duration
/// 1000, seed 1) sends more physical than logical updates. The "sharing
/// saving" row is their signed difference, not an unsigned wrap.
TEST(RunReportTest, SharingSavingIsSignedUnderReorder) {
  SystemConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 400;
  walk.seed = 1;
  config.source = SourceSpec::Walk(walk);
  config.duration = 1000;
  config.seed = 1;
  config.net = ParseNetSpec("reorder:2").value();
  config.query = QuerySpec::Knn(20, 500);
  config.protocol = ProtocolKind::kFtRp;
  config.fraction = {0.2, 0.2};
  MultiQueryConfig run;
  static_cast<RunOptions&>(run) = config;
  run.queries.push_back(config.Deployment());
  const auto result = RunMultiQuerySystem(run);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->net.suppressed_stale, 0u);

  const std::string report = obs::RunReport(*result, run.net);
  const auto row = report.find("sharing saving");
  ASSERT_NE(row, std::string::npos);
  const long long saving = std::strtoll(
      &report[report.find_first_of("-0123456789", row)], nullptr, 10);
  const long long expected =
      static_cast<long long>(result->LogicalUpdates()) -
      static_cast<long long>(result->physical_updates);
  EXPECT_EQ(saving, expected);
  EXPECT_LT(saving, 0);
}

// --- Inertness: the acceptance criterion ---

/// Every facility attached: a tracer on all categories and a profiler.
struct AllFacilities {
  obs::Tracer tracer{obs::kCatAll};
  obs::Profiler profiler;

  obs::ObsHooks hooks() {
    obs::ObsHooks hooks;
    hooks.tracer = &tracer;
    hooks.profiler = &profiler;
    return hooks;
  }

  /// The facilities actually ran: trace records in dispatch (sim-time)
  /// order when trace points are compiled in, and profiled time.
  void ExpectEngaged(const std::string& label) {
    SCOPED_TRACE(label);
#if ASF_OBS_TRACE_COMPILED
    double last = -1e300;
    std::uint64_t updates = 0;
    for (const obs::TraceRecord& record : tracer.records()) {
      if (record.type !=
          static_cast<std::uint16_t>(obs::TraceEventType::kValueUpdate)) {
        continue;
      }
      EXPECT_GE(record.time, last);
      last = record.time;
      ++updates;
    }
    EXPECT_GT(updates, 0u);
#endif
    EXPECT_GT(profiler.Merged().total(), 0.0);
  }
};

/// Each protocol behind `batch:10` over 500 walks for 900 time units, the
/// oracle judging every 120: the range protocols on [400, 600] with
/// ε = 0.2, the rank protocols on a top-20 query with ε+ = 0.3 and r = 5.
TEST(ObsInertnessTest, SixProtocolsAreByteIdentical) {
  const struct {
    ProtocolKind protocol;
    QuerySpec query;
    FractionTolerance fraction;
    std::size_t rank_r;
  } kCases[] = {
      {ProtocolKind::kNoFilter, QuerySpec::Range(400, 600), {0.2, 0.2}, 0},
      {ProtocolKind::kZtNrp, QuerySpec::Range(400, 600), {0.2, 0.2}, 0},
      {ProtocolKind::kFtNrp, QuerySpec::Range(400, 600), {0.2, 0.2}, 0},
      {ProtocolKind::kRtp, QuerySpec::TopK(20), {0.3, 0}, 5},
      {ProtocolKind::kZtRp, QuerySpec::TopK(20), {0.3, 0}, 5},
      {ProtocolKind::kFtRp, QuerySpec::TopK(20), {0.3, 0}, 5},
  };
  for (const auto& c : kCases) {
    const std::string label(ProtocolKindName(c.protocol));
    SystemConfig config;
    RandomWalkConfig walk;
    walk.num_streams = 500;
    config.source = SourceSpec::Walk(walk);
    config.duration = 900;
    config.query = c.query;
    config.protocol = c.protocol;
    config.fraction = c.fraction;
    config.rank_r = c.rank_r;
    config.net = ParseNetSpec("batch:10").value();
    config.oracle.sample_interval = 120;
    const auto baseline = RunSystem(config);
    ASSERT_TRUE(baseline.ok())
        << label << ": " << baseline.status().ToString();

    AllFacilities facilities;
    config.obs = facilities.hooks();
    const auto observed = RunSystem(config);
    ASSERT_TRUE(observed.ok())
        << label << ": " << observed.status().ToString();
    ExpectSameResult(*baseline, *observed, label + " obs on vs off");
    facilities.ExpectEngaged(label);
  }
}

/// A churn schedule through the multi-query engine: ZT-NRP ranges drawn
/// at random, arriving at rate 0.2 with mean lifetime 150, over 400 walks
/// for 800 time units.
TEST(ObsInertnessTest, ChurnIsByteIdentical) {
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 400;
  walk.seed = 5;
  config.source = SourceSpec::Walk(walk);
  config.duration = 800;
  config.seed = 5;
  ChurnSpec spec;
  spec.arrival_rate = 0.2;
  spec.mean_lifetime = 150;
  spec.seed = 5;
  ChurnMixEntry entry;
  entry.deployment.protocol = ProtocolKind::kZtNrp;
  entry.deployment.fraction = {0, 0};
  spec.mix.push_back(entry);
  auto queries = ExpandChurn(spec, config.duration);
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();
  config.queries = std::move(queries).value();
  const auto baseline = RunMultiQuerySystem(config);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  AllFacilities facilities;
  config.obs = facilities.hooks();
  const auto observed = RunMultiQuerySystem(config);
  ASSERT_TRUE(observed.ok()) << observed.status().ToString();
  ExpectSameResult(*baseline, *observed, "churn obs on vs off");
  facilities.ExpectEngaged("churn");
}

}  // namespace
}  // namespace asf
