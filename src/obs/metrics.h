#ifndef ASF_OBS_METRICS_H_
#define ASF_OBS_METRICS_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/types.h"

/// \file
/// Metrics registry (DESIGN.md §14): named gauges and log-bucketed
/// histograms, sampled on a sim-time grid (`--metrics-every=T`) and
/// emitted as the "timeseries" / "histograms" blocks of --bench-json.
///
/// Gauges are pull-based: the engine registers a closure at Run start
/// (reading its own live counters) and the registry samples them at grid
/// points. Sampling happens between scheduler events on the engine's
/// driving thread, so a snapshot never observes a half-applied update —
/// and never perturbs one (the registry is read-only on engine state).
///
/// Threading contract: single-threaded, owned by the run driver; every
/// gauge sample and histogram feed runs on the engine's thread.

namespace asf {
namespace obs {

/// Base-2 log-bucketed histogram. Bucket 0 collects underflow (values
/// below `min_value`, including zero and negatives); the last bucket
/// collects overflow. Bucket i (0 < i < buckets-1) covers
/// [min_value * 2^(i-1), min_value * 2^i).
class LogHistogram {
 public:
  explicit LogHistogram(double min_value = 1e-6, std::size_t buckets = 64)
      : min_value_(min_value), counts_(buckets, 0) {
    ASF_CHECK_MSG(min_value > 0, "LogHistogram min_value must be positive");
    ASF_CHECK_MSG(buckets >= 3, "LogHistogram needs underflow+1+overflow");
  }

  void Add(double v) { AddRepeated(v, 1); }

  void AddRepeated(double v, std::uint64_t n) {
    counts_[BucketOf(v)] += n;
    count_ += n;
    sum_ += v * static_cast<double>(n);
  }

  std::size_t BucketOf(double v) const {
    if (!(v >= min_value_)) return 0;  // underflow; catches NaN too
    // frexp(x) yields x = mant * 2^exp with mant in [0.5, 1), so for
    // x = v/min >= 1 the exponent IS the bucket: x in [2^(e-1), 2^e)
    // maps to bucket e, and an exact power of two (mant == 0.5) lands
    // in the bucket whose inclusive low edge it is — no epsilon games.
    int exp = 0;
    (void)std::frexp(v / min_value_, &exp);
    const std::size_t index = exp <= 0 ? 1 : static_cast<std::size_t>(exp);
    if (index + 1 >= counts_.size()) return counts_.size() - 1;  // overflow
    return index;
  }

  /// Low edge of bucket i (bucket 0 is the underflow bin: edge 0).
  double bucket_lo(std::size_t i) const {
    if (i == 0) return 0;
    return min_value_ * std::ldexp(1.0, static_cast<int>(i) - 1);
  }

  std::size_t buckets() const { return counts_.size(); }
  std::uint64_t bucket_count(std::size_t i) const { return counts_[i]; }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  double min_value() const { return min_value_; }

 private:
  double min_value_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  std::vector<std::uint64_t> counts_;
};

/// The histogram endpoints the network layer feeds (staleness per
/// delivered payload, bounded-bandwidth queue depth, retransmit RTO
/// estimates). Built by MetricsRegistry::net_sink(); a null sink (the
/// default) keeps the feed sites to one branch.
struct NetMetricsSink {
  LogHistogram* staleness = nullptr;
  LogHistogram* queue_depth = nullptr;
  LogHistogram* rto = nullptr;
};

/// One sampled row of the time series: every registered gauge evaluated
/// at sim-time `time`, in gauge registration order.
struct MetricsRow {
  SimTime time = 0;
  std::vector<double> values;
};

/// The per-run registry: owns the histograms, the gauge closures, and
/// the sampled series. The engine receives it through ObsHooks (null =
/// off).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers a pull gauge. The closure must stay valid until
  /// ClearGauges() — the engine registers at Run start and clears before
  /// returning, because the closures capture engine internals.
  void RegisterGauge(const std::string& name, std::function<double()> fn) {
    gauge_names_.push_back(name);
    gauges_.push_back(std::move(fn));
  }

  /// Drops every gauge closure. The names and the sampled series stay —
  /// the engine clears before returning (the closures capture engine
  /// internals) but TimeSeriesJson still needs the column names.
  void ClearGauges() { gauges_.clear(); }

  /// Find-or-create a named histogram. Shape parameters apply on
  /// creation only.
  LogHistogram* Histogram(const std::string& name, double min_value = 1e-6,
                          std::size_t buckets = 64) {
    for (std::size_t i = 0; i < histogram_names_.size(); ++i) {
      if (histogram_names_[i] == name) return histograms_[i].get();
    }
    histogram_names_.push_back(name);
    histograms_.push_back(std::make_unique<LogHistogram>(min_value, buckets));
    return histograms_.back().get();
  }

  /// The network layer's histogram bundle (creates net_staleness,
  /// net_queue_depth, net_rto on first call).
  NetMetricsSink* net_sink() {
    if (net_sink_ == nullptr) {
      net_sink_ = std::make_unique<NetMetricsSink>();
      net_sink_->staleness = Histogram("net_staleness");
      net_sink_->queue_depth = Histogram("net_queue_depth", 1.0, 32);
      net_sink_->rto = Histogram("net_rto");
    }
    return net_sink_.get();
  }

  /// Samples every registered gauge at sim-time `t`, appending one row.
  void SnapshotAt(SimTime t) {
    MetricsRow row;
    row.time = t;
    row.values.reserve(gauges_.size());
    for (const auto& gauge : gauges_) row.values.push_back(gauge());
    series_.push_back(std::move(row));
  }

  const std::vector<MetricsRow>& series() const { return series_; }
  const std::vector<std::string>& gauge_names() const { return gauge_names_; }
  const std::vector<std::string>& histogram_names() const {
    return histogram_names_;
  }
  const LogHistogram* FindHistogram(const std::string& name) const {
    for (std::size_t i = 0; i < histogram_names_.size(); ++i) {
      if (histogram_names_[i] == name) return histograms_[i].get();
    }
    return nullptr;
  }

  /// Complete JSON values for metrics::JsonWriter::AddBlock.
  /// TimeSeriesJson: {"gauges": [...names...], "rows": [[t, v...], ...]}.
  std::string TimeSeriesJson() const;
  /// HistogramsJson: {"name": {"count": N, "mean": M, "buckets":
  /// [[lo, count], ...nonzero...]}, ...}.
  std::string HistogramsJson() const;

 private:
  std::vector<std::string> gauge_names_;
  std::vector<std::function<double()>> gauges_;
  std::vector<std::string> histogram_names_;
  std::vector<std::unique_ptr<LogHistogram>> histograms_;
  std::unique_ptr<NetMetricsSink> net_sink_;
  std::vector<MetricsRow> series_;
};

}  // namespace obs
}  // namespace asf

#endif  // ASF_OBS_METRICS_H_
