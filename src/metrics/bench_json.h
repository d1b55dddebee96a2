#ifndef ASF_METRICS_BENCH_JSON_H_
#define ASF_METRICS_BENCH_JSON_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

/// \file
/// Machine-readable tool and harness output, one flat schema
///
///   {"bench": "<name>", "provenance": {...},
///    "metrics": {"<key>": <number>, ...}}
///
/// written by `asf_run --bench-json`, `asf_sweep --bench-json` and
/// `bench/micro_dispatch`.

namespace asf {
namespace metrics {

/// The one bench-json entry point (DESIGN.md §14): every bench and tool
/// builds its document through this writer, which pins the schema —
/// "bench", then "provenance" (attached automatically from
/// BuildProvenance(); SetProvenance overrides), then the flat "metrics"
/// object, then any named extra blocks (asf_run's profile).
class JsonWriter {
 public:
  explicit JsonWriter(std::string bench);

  void AddMetric(const std::string& name, double value);
  void AddMetrics(const std::vector<std::pair<std::string, double>>& metrics);

  /// Replaces the auto-attached provenance; pass {} to omit the object.
  void SetProvenance(
      std::vector<std::pair<std::string, std::string>> provenance);

  /// Appends `"name": <json>` after the metrics object. `json` must be a
  /// complete JSON value (object/array), emitted verbatim.
  void AddBlock(const std::string& name, std::string json);

  /// The whole document. Metric values print %.17g (round-trip exact).
  std::string ToJson() const;
  Status WriteTo(const std::string& path) const;

 private:
  std::string bench_;
  std::vector<std::pair<std::string, std::string>> provenance_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, std::string>> blocks_;
};

}  // namespace metrics
}  // namespace asf

#endif  // ASF_METRICS_BENCH_JSON_H_
