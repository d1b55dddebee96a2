#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <set>
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
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/trace_convert.h"
#include "result_equality.h"

// Unified observability layer (DESIGN.md §14): tracer buffer semantics,
// binary <-> Chrome JSON round trip, histogram bucket math, profiler
// attribution, snapshot grid — and above all the inertness contract:
// attaching every observability facility must leave engine results
// bit-identical.

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

// --- Binary file <-> Chrome JSON round trip ---

TEST(TraceConvertTest, BinaryRoundTripPreservesRecordsAndDrops) {
  obs::Tracer tracer(obs::kCatAll, 3);
  tracer.Emit(obs::TraceEventType::kValueUpdate, 1.5, 11, 42.0, 0);
  tracer.Emit(obs::TraceEventType::kCrossing, 2.5, 12, 43.0, 3);
  tracer.Emit(obs::TraceEventType::kIndexRebuild, 3.0, 0, 0.0, 9);
  tracer.Emit(obs::TraceEventType::kWireSend, 3.5, 13, 0.0, 1);  // dropped

  const std::string path = ::testing::TempDir() + "/obs_roundtrip.trace";
  ASSERT_TRUE(tracer.WriteBinary(path).ok());

  const auto data = obs::ReadTraceBinary(path);
  ASSERT_TRUE(data.ok());
  ASSERT_EQ(data->records.size(), 3u);
  EXPECT_EQ(data->dropped, 1u);

  const obs::TraceRecord& first = data->records[0];
  EXPECT_DOUBLE_EQ(first.time, 1.5);
  EXPECT_EQ(first.id, 11u);
  EXPECT_DOUBLE_EQ(first.value, 42.0);
  const obs::TraceRecord& rebuild = data->records[2];
  EXPECT_EQ(rebuild.aux, 9u);
  EXPECT_EQ(rebuild.reserved, 0u);

  const std::string json = obs::ChromeTraceJson(*data);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"value_update\""), std::string::npos);
  EXPECT_NE(json.find("\"index_rebuild\""), std::string::npos);
  // Sim-time 1.5 on the default 1e6 ts axis.
  EXPECT_NE(json.find("1500000"), std::string::npos);
}

TEST(TraceConvertTest, RejectsGarbageFile) {
  const std::string path = ::testing::TempDir() + "/obs_garbage.trace";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("not a trace", f);
  std::fclose(f);
  EXPECT_FALSE(obs::ReadTraceBinary(path).ok());
}

/// A dump whose header, under `magic`, claims `count` records and holds
/// none.
std::string ForgedDump(std::uint64_t count,
                       const std::string& magic = obs::kTraceMagic) {
  const std::uint64_t dropped = 0;
  std::string bytes = magic;
  bytes.append(reinterpret_cast<const char*>(&count), sizeof count);
  bytes.append(reinterpret_cast<const char*>(&dropped), sizeof dropped);
  return bytes;
}

/// Hostile dumps fail with a Status, never by allocation or a crash: a
/// forged record count (one beyond memory, one whose byte size overflows),
/// a format-1 dump, and a real dump cut inside the header and the
/// records.
TEST(TraceConvertTest, RejectsForgedCountsAndTruncatedDumps) {
  obs::Tracer tracer;
  for (std::uint32_t i = 0; i < 40; ++i) {
    tracer.Emit(obs::TraceEventType::kValueUpdate, i, i, 0.5 * i);
  }
  const std::string path = ::testing::TempDir() + "/obs_hostile.trace";
  ASSERT_TRUE(tracer.WriteBinary(path).ok());
  ASSERT_TRUE(obs::ReadTraceBinary(path).ok());
  std::string dump;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) dump.append(buf, n);
    std::fclose(f);
  }
  ASSERT_GT(dump.size(), 1000u);

  const struct {
    std::string label;
    std::string bytes;
  } kCases[] = {
      {"count 2^44", ForgedDump(std::uint64_t{1} << 44)},
      {"count 2^60", ForgedDump(std::uint64_t{1} << 60)},
      {"format 1", ForgedDump(0, "ASFTRC01")},
      {"cut at 0", dump.substr(0, 0)},
      {"cut at 7", dump.substr(0, 7)},
      {"cut at 8", dump.substr(0, 8)},
      {"cut at 16", dump.substr(0, 16)},
      {"cut at 40", dump.substr(0, 40)},
      {"cut at 100", dump.substr(0, 100)},
      {"cut at 1000", dump.substr(0, 1000)},
      {"one byte short", dump.substr(0, dump.size() - 1)},
  };
  for (const auto& c : kCases) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(c.bytes.data(), 1, c.bytes.size(), f),
              c.bytes.size());
    std::fclose(f);
    const auto data = obs::ReadTraceBinary(path);
    ASSERT_FALSE(data.ok()) << c.label;
    EXPECT_EQ(data.status().code(), StatusCode::kCorruption) << c.label;
  }
}

// --- Log-bucketed histogram ---

TEST(LogHistogramTest, BucketBoundariesWithUnitMin) {
  obs::LogHistogram hist(1.0, 8);  // buckets: under, 6 ranges, over
  EXPECT_EQ(hist.BucketOf(0.0), 0u);    // underflow
  EXPECT_EQ(hist.BucketOf(0.999), 0u);  // underflow
  EXPECT_EQ(hist.BucketOf(-3.0), 0u);
  EXPECT_EQ(hist.BucketOf(std::nan("")), 0u);
  EXPECT_EQ(hist.BucketOf(1.0), 1u);   // [1, 2)
  EXPECT_EQ(hist.BucketOf(1.999), 1u);
  EXPECT_EQ(hist.BucketOf(2.0), 2u);   // exact power of two: low edge
  EXPECT_EQ(hist.BucketOf(3.999), 2u);
  EXPECT_EQ(hist.BucketOf(4.0), 3u);
  EXPECT_EQ(hist.BucketOf(32.0), 6u);  // [32, 64) is the last range
  EXPECT_EQ(hist.BucketOf(64.0), 7u);  // overflow
  EXPECT_EQ(hist.BucketOf(1e30), 7u);
  EXPECT_DOUBLE_EQ(hist.bucket_lo(1), 1.0);
  EXPECT_DOUBLE_EQ(hist.bucket_lo(3), 4.0);
}

TEST(LogHistogramTest, AddFillsBucketsCountAndSum) {
  obs::LogHistogram hist(1.0, 16);
  for (const double v : {0.5, 1.0, 7.0, 100.0, 2.0, 2.0, 1e9, 0.0, 3.5, 64.0,
                         64.0, 1.25}) {
    hist.Add(v);
  }
  EXPECT_EQ(hist.count(), 12u);
  EXPECT_DOUBLE_EQ(hist.sum(), 1e9 + 245.25);
  // Underflow {0.5, 0}, [1,2) {1, 1.25}, [2,4) {2, 2, 3.5}, [4,8) {7},
  // [64,128) {100, 64, 64}, overflow {1e9}.
  const std::uint64_t expected[16] = {2, 2, 3, 1, 0, 0, 0, 3,
                                      0, 0, 0, 0, 0, 0, 0, 1};
  for (std::size_t i = 0; i < hist.buckets(); ++i) {
    EXPECT_EQ(hist.bucket_count(i), expected[i]) << "bucket " << i;
  }
}

// --- Metrics registry ---

TEST(MetricsRegistryTest, SnapshotsSampleGaugesInOrder) {
  obs::MetricsRegistry registry;
  double x = 1.0;
  registry.RegisterGauge("x", [&x] { return x; });
  registry.RegisterGauge("twice_x", [&x] { return 2 * x; });
  registry.SnapshotAt(10);
  x = 5.0;
  registry.SnapshotAt(20);
  registry.ClearGauges();

  ASSERT_EQ(registry.series().size(), 2u);
  EXPECT_EQ(registry.series()[0].time, 10);
  EXPECT_EQ(registry.series()[0].values[1], 2.0);
  EXPECT_EQ(registry.series()[1].values[0], 5.0);
  EXPECT_EQ(registry.series()[1].values[1], 10.0);
  // Names survive ClearGauges — TimeSeriesJson needs the column header.
  const std::string json = registry.TimeSeriesJson();
  EXPECT_NE(json.find("\"twice_x\""), std::string::npos);
}

TEST(MetricsRegistryTest, NetSinkCreatesHistogramsOnce) {
  obs::MetricsRegistry registry;
  obs::NetMetricsSink* sink = registry.net_sink();
  ASSERT_NE(sink->staleness, nullptr);
  sink->staleness->Add(3.0);
  EXPECT_EQ(registry.net_sink(), sink);  // idempotent
  EXPECT_EQ(registry.FindHistogram("net_staleness")->count(), 1u);
}

/// A no-filter query on a ten-stream trace with one record at every
/// integer time, deployed at 100 and retired at 300, snapshotted every
/// 100. A row at an instant is taken after every event before it and
/// before the deploys, retirements and records at it: the rows at 100
/// and 300 see the population as it stood just before the change.
TEST(MetricsRegistryTest, SnapshotPrecedesSameInstantLifecycle) {
  constexpr SimTime kDuration = 400;
  std::vector<TraceRecord> records;
  for (int t = 1; t <= static_cast<int>(kDuration); ++t) {
    TraceRecord rec;
    rec.time = t;
    rec.stream = static_cast<StreamId>(t % 10);
    rec.value = t % 7;
    records.push_back(rec);
  }
  auto trace = TraceData::Make(10, {}, std::move(records));
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();

  MultiQueryConfig config;
  config.source = SourceSpec::Trace(&*trace);
  config.duration = kDuration;
  QueryDeployment query;
  query.name = "no-filter";
  query.query = QuerySpec::Range(2, 4);
  query.start = 100;
  query.end = 300;
  config.queries.push_back(query);
  obs::MetricsRegistry registry;
  config.obs.metrics = &registry;
  config.obs.metrics_every = 100;
  const auto result = RunMultiQuerySystem(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const std::vector<std::string>& names = registry.gauge_names();
  const auto column = [&](const std::string& name) {
    const auto it = std::find(names.begin(), names.end(), name);
    EXPECT_NE(it, names.end()) << name;
    return static_cast<std::size_t>(it - names.begin());
  };
  const std::size_t live = column("live_queries");
  const std::size_t updates = column("updates_generated");
  // One record per instant: the updates of [100, T) while the query is
  // live, none before 100 or from 300 on.
  const struct {
    SimTime time;
    double live;
    double updates;
  } kRows[] = {{100, 0, 0}, {200, 1, 100}, {300, 1, 200}, {400, 0, 200}};
  const std::vector<obs::MetricsRow>& series = registry.series();
  ASSERT_EQ(series.size(), std::size(kRows));
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_EQ(series[i].time, kRows[i].time) << "row " << i;
    EXPECT_EQ(series[i].values[live], kRows[i].live) << "row " << i;
    EXPECT_EQ(series[i].values[updates], kRows[i].updates) << "row " << i;
  }
  EXPECT_EQ(result->updates_generated, 200u);
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

/// Every facility attached: a tracer on all categories, a metrics
/// registry sampling every 100 time units, and a profiler.
struct AllFacilities {
  obs::Tracer tracer{obs::kCatAll};
  obs::MetricsRegistry registry;
  obs::Profiler profiler;

  obs::ObsHooks hooks() {
    obs::ObsHooks hooks;
    hooks.tracer = &tracer;
    hooks.metrics = &registry;
    hooks.metrics_every = 100;
    hooks.profiler = &profiler;
    return hooks;
  }

  /// The facilities actually ran: one snapshot per point of the sim-time
  /// grid, trace records in dispatch (sim-time) order when trace points
  /// are compiled in, and profiled time.
  void ExpectEngaged(SimTime duration, const std::string& label) {
    SCOPED_TRACE(label);
    EXPECT_EQ(registry.series().size(),
              static_cast<std::size_t>(duration / 100));
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
    facilities.ExpectEngaged(config.duration, label);
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
  entry.protocol = ProtocolKind::kZtNrp;
  entry.eps_plus = 0;
  entry.eps_minus = 0;
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
  facilities.ExpectEngaged(config.duration, "churn");
}

}  // namespace
}  // namespace asf
