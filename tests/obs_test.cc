#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "engine/system.h"
#include "metrics/bench_json.h"
#include "net/network_model.h"
#include "obs/hooks.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"
#include "obs/trace_convert.h"
#include "result_equality.h"

// Unified observability layer (DESIGN.md §14): tracer ring semantics,
// binary <-> Chrome JSON round trip, histogram bucket math, profiler
// attribution, snapshot grid — and above all the inertness contract:
// attaching every observability facility must leave engine results
// bit-identical.

namespace asf {
namespace {

// --- Trace ring ---

TEST(TraceRingTest, OverflowDropsAndCountsInsteadOfBlocking) {
  obs::TraceRing ring(4);
  obs::TraceRecord record;
  for (int i = 0; i < 10; ++i) {
    record.id = static_cast<std::uint32_t>(i);
    ring.Push(record);
  }
  EXPECT_EQ(ring.records().size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  // The survivors are the first four — drops happen at the tail.
  EXPECT_EQ(ring.records()[3].id, 3u);
}

TEST(TracerTest, EmitRespectsCategoryMask) {
  obs::Tracer tracer(obs::kCatWire);
  tracer.EnsureRings(1);
  EXPECT_TRUE(tracer.Wants(obs::kCatWire));
  EXPECT_FALSE(tracer.Wants(obs::kCatUpdate));
  ASF_TRACE_EVENT(&tracer, 0, obs::TraceEventType::kWireSend, 1.0, 7, 0.5, 2);
  ASF_TRACE_EVENT(&tracer, 0, obs::TraceEventType::kValueUpdate, 2.0, 8, 0.5,
                  0);
#if ASF_OBS_TRACE_COMPILED
  ASSERT_EQ(tracer.total_records(), 1u);
  EXPECT_EQ(tracer.ring(0).records()[0].type,
            static_cast<std::uint16_t>(obs::TraceEventType::kWireSend));
#else
  EXPECT_EQ(tracer.total_records(), 0u);
#endif
}

TEST(TracerTest, ParseCategoryMask) {
  EXPECT_EQ(obs::ParseCategoryMask("all").value(), obs::kCatAll);
  EXPECT_EQ(obs::ParseCategoryMask("").value(), obs::kCatAll);
  EXPECT_EQ(obs::ParseCategoryMask("update,wire").value(),
            obs::kCatUpdate | obs::kCatWire);
  EXPECT_EQ(obs::ParseCategoryMask("spill").value(), obs::kCatSpill);
  EXPECT_FALSE(obs::ParseCategoryMask("bogus").ok());
}

// --- Binary file <-> Chrome JSON round trip ---

TEST(TraceConvertTest, BinaryRoundTripPreservesRecordsAndDrops) {
  obs::Tracer tracer(obs::kCatAll, 2);
  tracer.EnsureRings(3);
  tracer.Emit(0, obs::TraceEventType::kValueUpdate, 1.5, 11, 42.0, 0);
  tracer.Emit(0, obs::TraceEventType::kCrossing, 2.5, 12, 43.0, 3);
  tracer.Emit(0, obs::TraceEventType::kWireSend, 3.5, 13, 0.0, 1);  // dropped
  tracer.Emit(2, obs::TraceEventType::kEpochBarrier, 4.0, 0, 0.0, 9);

  const std::string path = ::testing::TempDir() + "/obs_roundtrip.trace";
  ASSERT_TRUE(tracer.WriteBinary(path).ok());

  const auto data = obs::ReadTraceBinary(path);
  ASSERT_TRUE(data.ok());
  ASSERT_EQ(data->rings.size(), 3u);
  EXPECT_EQ(data->rings[0].records.size(), 2u);
  EXPECT_EQ(data->rings[0].dropped, 1u);
  EXPECT_EQ(data->rings[1].records.size(), 0u);
  EXPECT_EQ(data->rings[2].records.size(), 1u);
  EXPECT_EQ(data->total_records(), 3u);
  EXPECT_EQ(data->total_dropped(), 1u);

  const obs::TraceRecord& first = data->rings[0].records[0];
  EXPECT_DOUBLE_EQ(first.time, 1.5);
  EXPECT_EQ(first.id, 11u);
  EXPECT_DOUBLE_EQ(first.value, 42.0);
  const obs::TraceRecord& barrier = data->rings[2].records[0];
  EXPECT_EQ(barrier.aux, 9u);
  EXPECT_EQ(barrier.ring, 2u);

  const std::string json = obs::ChromeTraceJson(*data);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"value_update\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch_barrier\""), std::string::npos);
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

TEST(LogHistogramTest, MergeIsAssociativeAndCommutative) {
  const double values_a[] = {0.5, 1.0, 7.0, 100.0};
  const double values_b[] = {2.0, 2.0, 1e9};
  const double values_c[] = {0.0, 3.5, 64.0, 64.0, 1.25};
  auto fill = [](const double* vals, std::size_t n) {
    obs::LogHistogram h(1.0, 16);
    for (std::size_t i = 0; i < n; ++i) h.Add(vals[i]);
    return h;
  };

  // (a + b) + c
  obs::LogHistogram left = fill(values_a, 4);
  left.Merge(fill(values_b, 3));
  left.Merge(fill(values_c, 5));
  // a + (c + b)
  obs::LogHistogram inner = fill(values_c, 5);
  inner.Merge(fill(values_b, 3));
  obs::LogHistogram right = fill(values_a, 4);
  right.Merge(inner);

  ASSERT_EQ(left.count(), right.count());
  EXPECT_DOUBLE_EQ(left.sum(), right.sum());
  for (std::size_t i = 0; i < left.buckets(); ++i) {
    EXPECT_EQ(left.bucket_count(i), right.bucket_count(i)) << "bucket " << i;
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

// --- Telemetry blocks ---

TEST(TelemetryTest, SpillBlockEmptyWhenDisabled) {
  SpillTelemetry spill;  // enabled = false
  const obs::TelemetryBlock block = obs::SpillTelemetryBlock(spill);
  EXPECT_TRUE(block.rows().empty());
  EXPECT_TRUE(block.metrics().empty());
}

TEST(TelemetryTest, NetBlockGatesOnDelayingModel) {
  NetConfig instant;  // default: instant, not delaying
  NetStats stats;
  EXPECT_TRUE(obs::NetTelemetryBlock(instant, stats, nullptr).rows().empty());

  const NetConfig batch = ParseNetSpec("batch:5").value();
  const obs::TelemetryBlock block = obs::NetTelemetryBlock(batch, stats,
                                                           nullptr);
  ASSERT_FALSE(block.rows().empty());
  EXPECT_EQ(block.rows()[0].first, "net model");
}

// --- Inertness: the acceptance criterion ---

SystemConfig ObsTestConfig() {
  SystemConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 300;
  walk.seed = 5;
  config.source = SourceSpec::Walk(walk);
  config.duration = 400;
  config.seed = 5;
  config.query = QuerySpec::Range(400, 600);
  config.protocol = ProtocolKind::kFtNrp;
  config.fraction.eps_plus = 0.2;
  config.fraction.eps_minus = 0.2;
  config.net = ParseNetSpec("batch:5").value();
  config.oracle.sample_interval = 50;
  return config;
}

TEST(ObsInertnessTest, SerialEngineResultsAreByteIdentical) {
  const auto baseline = RunSystem(ObsTestConfig());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  obs::Profiler profiler;
  SystemConfig config = ObsTestConfig();
  config.obs.tracer = &tracer;
  config.obs.metrics = &registry;
  config.obs.metrics_every = 25;
  config.obs.profiler = &profiler;
  const auto observed = RunSystem(config);
  ASSERT_TRUE(observed.ok()) << observed.status().ToString();

  ExpectSameResult(*baseline, *observed, "obs on vs off");
  // The facilities actually ran: snapshots on the sim-time grid
  // (400 / 25 = 16) and, when compiled in, trace records.
  EXPECT_EQ(registry.series().size(), 16u);
#if ASF_OBS_TRACE_COMPILED
  EXPECT_GT(tracer.total_records(), 0u);
  // The engine writes ring 0 only, in dispatch (sim-time) order.
  ASSERT_EQ(tracer.ring_count(), 1u);
  double last = -1e300;
  std::uint64_t updates = 0;
  for (const obs::TraceRecord& record : tracer.ring(0).records()) {
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

}  // namespace
}  // namespace asf
