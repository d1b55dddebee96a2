#include "metrics/bench_json.h"

#include <cstdio>
#include <utility>

#include "metrics/provenance.h"
#include "metrics/table.h"

namespace asf {
namespace metrics {

JsonWriter::JsonWriter(std::string bench)
    : bench_(std::move(bench)), provenance_(BuildProvenance()) {}

void JsonWriter::AddMetric(const std::string& name, double value) {
  metrics_.emplace_back(name, value);
}

void JsonWriter::AddMetrics(
    const std::vector<std::pair<std::string, double>>& metrics) {
  metrics_.insert(metrics_.end(), metrics.begin(), metrics.end());
}

void JsonWriter::SetProvenance(
    std::vector<std::pair<std::string, std::string>> provenance) {
  provenance_ = std::move(provenance);
}

void JsonWriter::AddBlock(const std::string& name, std::string json) {
  blocks_.emplace_back(name, std::move(json));
}

std::string JsonWriter::ToJson() const {
  std::string out = Fmt("{\n  \"bench\": \"%s\",\n", bench_.c_str());
  if (!provenance_.empty()) {
    out += "  \"provenance\": {\n";
    for (std::size_t i = 0; i < provenance_.size(); ++i) {
      out += Fmt("    \"%s\": \"%s\"%s\n", provenance_[i].first.c_str(),
                 provenance_[i].second.c_str(),
                 i + 1 < provenance_.size() ? "," : "");
    }
    out += "  },\n";
  }
  out += "  \"metrics\": {\n";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    out += Fmt("    \"%s\": %.17g%s\n", metrics_[i].first.c_str(),
               metrics_[i].second, i + 1 < metrics_.size() ? "," : "");
  }
  out += "  }";
  for (const auto& [name, json] : blocks_) {
    // Plain appends: a block can exceed Fmt's formatting buffer.
    out += ",\n  \"";
    out += name;
    out += "\": ";
    out += json;
  }
  out += "\n}\n";
  return out;
}

Status JsonWriter::WriteTo(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  const std::string json = ToJson();
  const bool ok =
      std::fwrite(json.data(), 1, json.size(), f) == json.size();
  if (std::fclose(f) != 0 || !ok) {
    return Status::IoError("write failed: " + path);
  }
  return Status::OK();
}

}  // namespace metrics
}  // namespace asf
