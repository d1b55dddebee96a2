#include "trace/tcp_synth.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>

#include "common/stats.h"
#include "trace/trace_io.h"

namespace asf {
namespace {

// --- Synthetic TCP trace generator (LBL substitute, DESIGN.md §3) ---

TEST(TcpSynthTest, ConfigValidation) {
  TcpSynthConfig ok;
  EXPECT_TRUE(ok.Validate().ok());
  TcpSynthConfig bad = ok;
  bad.num_subnets = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = ok;
  bad.num_subnets = kMaxStreams + 1;
  EXPECT_FALSE(bad.Validate().ok());
  // The record count is capped before the generator reserves it. Only
  // rejected counts are used here; none is ever generated.
  bad = ok;
  bad.total_connections = kMaxTraceRecords + 1;
  EXPECT_FALSE(bad.Validate().ok());
  bad.total_connections = std::numeric_limits<std::uint64_t>::max();
  EXPECT_FALSE(bad.Validate().ok());
  EXPECT_FALSE(GenerateTcpTrace(bad).ok());
  bad = ok;
  bad.duration = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad.duration = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(bad.Validate().ok());
  bad.duration = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(bad.Validate().ok());
  bad = ok;
  bad.zipf_s = -1;
  EXPECT_FALSE(bad.Validate().ok());
  bad.zipf_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(bad.Validate().ok());
  // Non-finite value parameters are rejected by name, before the
  // generator draws a record.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInfinity = std::numeric_limits<double>::infinity();
  const auto expect_rejected = [](const TcpSynthConfig& config,
                                  const std::string& name) {
    const Status status = config.Validate();
    EXPECT_FALSE(status.ok()) << name;
    EXPECT_NE(status.ToString().find(name), std::string::npos)
        << status.ToString();
  };
  for (const double v : {kNaN, kInfinity, -kInfinity}) {
    bad = ok;
    bad.bytes_log_mu = v;
    expect_rejected(bad, "bytes_log_mu");
    bad = ok;
    bad.bytes_log_sigma = v;
    expect_rejected(bad, "bytes_log_sigma");
    bad = ok;
    bad.subnet_sigma = v;
    expect_rejected(bad, "subnet_sigma");
  }
  bad = ok;
  bad.bytes_log_sigma = -0.1;
  expect_rejected(bad, "bytes_log_sigma");
  bad = ok;
  bad.subnet_sigma = -0.1;
  expect_rejected(bad, "subnet_sigma");
}

TEST(TcpSynthTest, ProducesRequestedShape) {
  TcpSynthConfig config;
  config.num_subnets = 100;
  config.total_connections = 5000;
  config.duration = 1000;
  auto trace = GenerateTcpTrace(config);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->num_streams(), 100u);
  EXPECT_EQ(trace->records().size(), 5000u);
  EXPECT_EQ(trace->initial_values().size(), 100u);
  for (const TraceRecord& rec : trace->records()) {
    EXPECT_GT(rec.time, 0.0);
    EXPECT_LE(rec.time, 1000.0);
    EXPECT_GT(rec.value, 0.0);  // byte counts are positive
  }
}

TEST(TcpSynthTest, SubnetActivityIsZipfSkewed) {
  TcpSynthConfig config;
  config.num_subnets = 50;
  config.total_connections = 50000;
  config.zipf_s = 1.0;
  config.seed = 7;
  auto trace = GenerateTcpTrace(config);
  ASSERT_TRUE(trace.ok());
  std::vector<std::size_t> counts(config.num_subnets, 0);
  for (const TraceRecord& rec : trace->records()) ++counts[rec.stream];
  // Subnet 0 (rank 0) must dominate the median subnet by a wide margin.
  std::vector<std::size_t> sorted = counts;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_GT(counts[0], 4 * sorted[config.num_subnets / 2]);
}

TEST(TcpSynthTest, BytesMedianMatchesMuWithoutSubnetSpread) {
  TcpSynthConfig config;
  config.num_subnets = 10;
  config.total_connections = 40000;
  config.subnet_sigma = 0;  // identical subnets: global median = exp(mu)
  config.seed = 9;
  auto trace = GenerateTcpTrace(config);
  ASSERT_TRUE(trace.ok());
  std::vector<double> bytes;
  for (const TraceRecord& rec : trace->records()) bytes.push_back(rec.value);
  std::nth_element(bytes.begin(), bytes.begin() + bytes.size() / 2,
                   bytes.end());
  EXPECT_NEAR(bytes[bytes.size() / 2], 500.0, 40.0);
}

TEST(TcpSynthTest, BytesAreHeavyTailed) {
  // Enough subnets that the cross-subnet factor (where most of the
  // variance lives) gets sampled properly.
  TcpSynthConfig config;
  config.num_subnets = 100;
  config.total_connections = 40000;
  config.seed = 9;
  auto trace = GenerateTcpTrace(config);
  ASSERT_TRUE(trace.ok());
  double max_bytes = 0;
  for (const TraceRecord& rec : trace->records()) {
    max_bytes = std::max(max_bytes, rec.value);
  }
  EXPECT_GT(max_bytes, 50000.0);
}

TEST(TcpSynthTest, SubnetFactorsMakeHeavyHittersPersistent) {
  // The top subnet by mean value should also hold most of the largest
  // individual records — the persistence property RTP's top-k bound needs.
  TcpSynthConfig config;
  config.num_subnets = 40;
  config.total_connections = 40000;
  config.seed = 4;
  auto trace = GenerateTcpTrace(config);
  ASSERT_TRUE(trace.ok());
  std::vector<double> sum(config.num_subnets, 0);
  std::vector<std::size_t> count(config.num_subnets, 0);
  for (const TraceRecord& rec : trace->records()) {
    sum[rec.stream] += rec.value;
    ++count[rec.stream];
  }
  // Mean value per subnet varies by orders of magnitude.
  double min_mean = kInf;
  double max_mean = 0;
  for (std::size_t i = 0; i < config.num_subnets; ++i) {
    if (count[i] < 10) continue;  // skip rarely-active subnets
    const double mean = sum[i] / static_cast<double>(count[i]);
    min_mean = std::min(min_mean, mean);
    max_mean = std::max(max_mean, mean);
  }
  EXPECT_GT(max_mean, 10 * min_mean);
}

TEST(TcpSynthTest, RangeQueryBandIsPopulated) {
  // The paper's Figure 10 range query [400, 600] must capture a sizeable
  // fraction of values or the experiment degenerates.
  TcpSynthConfig config;
  config.total_connections = 20000;
  auto trace = GenerateTcpTrace(config);
  ASSERT_TRUE(trace.ok());
  std::size_t in_range = 0;
  for (const TraceRecord& rec : trace->records()) {
    if (rec.value >= 400 && rec.value <= 600) ++in_range;
  }
  const double fraction =
      static_cast<double>(in_range) /
      static_cast<double>(trace->records().size());
  EXPECT_GT(fraction, 0.05);
  EXPECT_LT(fraction, 0.3);
}

TEST(TcpSynthTest, DeterministicForSeed) {
  TcpSynthConfig config;
  config.total_connections = 1000;
  config.num_subnets = 20;
  auto a = GenerateTcpTrace(config);
  auto b = GenerateTcpTrace(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->records().size(), b->records().size());
  for (std::size_t i = 0; i < a->records().size(); ++i) {
    EXPECT_EQ(a->records()[i], b->records()[i]);
  }
  config.seed += 1;
  auto c = GenerateTcpTrace(config);
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(a->records() == c->records());
}

TEST(TcpSynthTest, RecordsAreTimeSorted) {
  TcpSynthConfig config;
  config.total_connections = 5000;
  auto trace = GenerateTcpTrace(config);
  ASSERT_TRUE(trace.ok());
  for (std::size_t i = 1; i < trace->records().size(); ++i) {
    EXPECT_LE(trace->records()[i - 1].time, trace->records()[i].time);
  }
}

// --- Trace CSV I/O ---

class TraceIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("asf_trace_test_" + std::to_string(::getpid()) + ".csv");
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::filesystem::path path_;
};

TEST_F(TraceIoTest, RoundTrip) {
  const TraceData trace =
      TraceData::Make(3, {1.5, 2.25, -3.75},
                      {{0.5, 0, 10.125}, {1.5, 2, -20.5}, {2.0, 1, 0}})
          .value();

  ASSERT_TRUE(WriteTraceCsv(trace, path_.string()).ok());
  auto loaded = ReadTraceCsv(path_.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_streams(), 3u);
  EXPECT_EQ(loaded->initial_values(), trace.initial_values());
  ASSERT_EQ(loaded->records().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(loaded->records()[i], trace.records()[i]);
  }
}

TEST_F(TraceIoTest, RoundTripWithoutInitialValues) {
  const TraceData trace =
      TraceData::Make(2, {}, {{1.0, 0, 5}, {2.0, 1, 6}}).value();
  ASSERT_TRUE(WriteTraceCsv(trace, path_.string()).ok());
  auto loaded = ReadTraceCsv(path_.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->initial_values().empty());
  EXPECT_EQ(loaded->records().size(), 2u);
}

TEST_F(TraceIoTest, SyntheticTraceRoundTrips) {
  TcpSynthConfig config;
  config.num_subnets = 25;
  config.total_connections = 500;
  auto trace = GenerateTcpTrace(config);
  ASSERT_TRUE(trace.ok());
  ASSERT_TRUE(WriteTraceCsv(*trace, path_.string()).ok());
  auto loaded = ReadTraceCsv(path_.string());
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->records().size(), trace->records().size());
  for (std::size_t i = 0; i < loaded->records().size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded->records()[i].value,
                     trace->records()[i].value);
  }
}

TEST_F(TraceIoTest, MissingFileIsIoError) {
  auto loaded = ReadTraceCsv("/nonexistent/dir/zzz.csv");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(TraceIoTest, CorruptHeaderRejected) {
  {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    std::fputs("bogus,3\n", f);
    std::fclose(f);
  }
  auto loaded = ReadTraceCsv(path_.string());
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(TraceIoTest, BadRecordRejected) {
  {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    std::fputs("num_streams,2\n1.0,0,5\nnot-a-number,1,6\n", f);
    std::fclose(f);
  }
  auto loaded = ReadTraceCsv(path_.string());
  EXPECT_FALSE(loaded.ok());
}

TEST_F(TraceIoTest, OutOfRangeStreamRejected) {
  {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    std::fputs("num_streams,2\n1.0,7,5\n", f);
    std::fclose(f);
  }
  auto loaded = ReadTraceCsv(path_.string());
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kOutOfRange);
}

TEST_F(TraceIoTest, FractionalStreamIdRejected) {
  {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    std::fputs("num_streams,2\n1.0,0.5,5\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(ReadTraceCsv(path_.string()).ok());
}

/// Non-finite times, values and initial values are rejected where the
/// trace is read: a NaN time slips past both ordering comparisons, and a
/// NaN value reaches the filters and the oracle.
TEST_F(TraceIoTest, NonFiniteFieldsRejected) {
  const char* kTraces[] = {
      "num_streams,2\n1.0,0,5\n2.0,1,nan\n",      // nan value
      "num_streams,2\n1.0,0,5\nnan,1,6\n",        // nan time
      "num_streams,2\nnan,0,5\n",                 // nan first time
      "num_streams,2\n1.0,0,5\n2.0,1,inf\n",      // inf value
      "num_streams,2\n1.0,0,5\ninf,1,6\n",        // inf time
      "num_streams,2\ninitial,500,inf\n1.0,0,5\n",  // inf initial value
  };
  for (const char* text : kTraces) {
    {
      std::FILE* f = std::fopen(path_.c_str(), "w");
      std::fputs(text, f);
      std::fclose(f);
    }
    auto loaded = ReadTraceCsv(path_.string());
    EXPECT_FALSE(loaded.ok()) << text;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

/// The stream count and stream ids are range-checked before they are cast
/// to integers, so non-finite or oversized ones fail as corrupt input.
TEST_F(TraceIoTest, NonFiniteStreamFieldsRejected) {
  const char* kTraces[] = {
      "num_streams,nan\n1.0,0,5\n",
      "num_streams,inf\n1.0,0,5\n",
      "num_streams,1e300\n1.0,0,5\n",
      "num_streams,2\n1.0,inf,5\n",
      "num_streams,2\n1.0,nan,5\n",
      "num_streams,2\n1.0,1e300,5\n",
  };
  for (const char* text : kTraces) {
    {
      std::FILE* f = std::fopen(path_.c_str(), "w");
      std::fputs(text, f);
      std::fclose(f);
    }
    EXPECT_FALSE(ReadTraceCsv(path_.string()).ok()) << text;
  }
}

/// A header past kMaxStreams fails as corrupt input before the count sizes
/// anything: 2^32 itself would otherwise wrap StreamId, so no
/// `id < num_streams` loop would end.
TEST_F(TraceIoTest, StreamCountBeyondLimitRejected) {
  const std::string kTraces[] = {
      "num_streams," + std::to_string(kMaxStreams + 1) + "\n1.0,0,5\n",
      "num_streams,4294967296\n",
  };
  for (const std::string& text : kTraces) {
    {
      std::FILE* f = std::fopen(path_.c_str(), "w");
      std::fputs(text.c_str(), f);
      std::fclose(f);
    }
    const auto loaded = ReadTraceCsv(path_.string());
    ASSERT_FALSE(loaded.ok()) << text;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << text;
  }
}

}  // namespace
}  // namespace asf
