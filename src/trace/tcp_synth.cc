#include "trace/tcp_synth.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace asf {

Status TcpSynthConfig::Validate() const {
  if (num_subnets == 0 || num_subnets > kMaxStreams) {
    return Status::InvalidArgument("num_subnets must lie in [1, " +
                                   std::to_string(kMaxStreams) + "]");
  }
  if (total_connections > kMaxTraceRecords) {
    return Status::InvalidArgument("total_connections must be at most " +
                                   std::to_string(kMaxTraceRecords));
  }
  if (!(duration > 0 && std::isfinite(duration))) {
    return Status::InvalidArgument("duration must be finite and > 0");
  }
  if (!(zipf_s >= 0)) return Status::InvalidArgument("zipf_s must be >= 0");
  // NaN fails every comparison, so each test is written to reject it.
  if (!std::isfinite(bytes_log_mu)) {
    return Status::InvalidArgument("bytes_log_mu must be finite");
  }
  if (!(bytes_log_sigma >= 0 && std::isfinite(bytes_log_sigma))) {
    return Status::InvalidArgument("bytes_log_sigma must be finite and >= 0");
  }
  if (!(subnet_sigma >= 0 && std::isfinite(subnet_sigma))) {
    return Status::InvalidArgument("subnet_sigma must be finite and >= 0");
  }
  return Status::OK();
}

Result<TraceData> GenerateTcpTrace(const TcpSynthConfig& config) {
  ASF_RETURN_IF_ERROR(config.Validate());
  Rng rng(config.seed);
  ZipfDistribution zipf(config.num_subnets, config.zipf_s);

  // Per-subnet size factor: persistent heavy hitters (median 1).
  std::vector<double> subnet_factor(config.num_subnets);
  for (double& f : subnet_factor) {
    f = rng.Lognormal(0.0, config.subnet_sigma);
  }
  const auto draw_bytes = [&rng, &config, &subnet_factor](std::size_t subnet) {
    return subnet_factor[subnet] *
           rng.Lognormal(config.bytes_log_mu, config.bytes_log_sigma);
  };

  // Initial value per subnet: one synthetic connection that completed just
  // before the observation window opened.
  std::vector<Value> initial_values(config.num_subnets);
  for (std::size_t i = 0; i < config.num_subnets; ++i) {
    initial_values[i] = draw_bytes(i);
  }

  // Draw each connection's subnet from the Zipf law and its arrival time
  // uniformly in (0, duration]; sorting afterwards yields the superposed
  // arrival process.
  std::vector<TraceRecord> records;
  records.reserve(config.total_connections);
  for (std::uint64_t c = 0; c < config.total_connections; ++c) {
    TraceRecord rec;
    rec.stream = static_cast<StreamId>(zipf.Sample(&rng));
    rec.time = rng.Uniform(0.0, config.duration);
    rec.value = draw_bytes(rec.stream);
    records.push_back(rec);
  }
  std::sort(records.begin(), records.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.stream < b.stream;
            });
  return TraceData::Make(config.num_subnets, std::move(initial_values),
                         std::move(records));
}

}  // namespace asf
