#include "engine/sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>
#include <utility>

#include "engine/system.h"

namespace asf {

std::vector<Result<RunResult>> RunSweep(
    const std::vector<SystemConfig>& configs, const SweepOptions& options) {
  const std::size_t n = configs.size();
  // Slots are filled out of order by the workers, then unwrapped in
  // submission order below (Result has no default constructor).
  std::vector<std::optional<Result<RunResult>>> slots(n);

  std::size_t workers = options.num_threads == 0
                            ? std::max(1u, std::thread::hardware_concurrency())
                            : options.num_threads;
  workers = std::min(workers, n);

  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      if (configs[i].source.type == SourceSpec::Type::kCustom) {
        slots[i] = Result<RunResult>(Status::InvalidArgument(
            "custom stream sources cannot run in a sweep (a StreamSet must "
            "be freshly constructed per run)"));
      } else {
        slots[i] = RunSystem(configs[i]);  // validates the config, once
      }
    }
  };

  if (workers <= 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(work);
    for (std::thread& t : pool) t.join();
  }

  std::vector<Result<RunResult>> results;
  results.reserve(n);
  for (std::optional<Result<RunResult>>& slot : slots) {
    ASF_CHECK(slot.has_value());
    results.push_back(std::move(*slot));
  }
  return results;
}

Result<std::vector<RunResult>> RunSweepAll(
    const std::vector<SystemConfig>& configs, const SweepOptions& options) {
  std::vector<Result<RunResult>> raw = RunSweep(configs, options);
  std::vector<RunResult> results;
  results.reserve(raw.size());
  for (Result<RunResult>& r : raw) {
    if (!r.ok()) return r.status();
    results.push_back(std::move(r).value());
  }
  return results;
}

std::vector<SystemConfig> ExpandSeeds(const SystemConfig& base,
                                      std::size_t count) {
  std::vector<SystemConfig> configs;
  configs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    SystemConfig config = base;
    config.source.walk.seed += i;
    config.seed += i;
    configs.push_back(config);
  }
  return configs;
}

}  // namespace asf
