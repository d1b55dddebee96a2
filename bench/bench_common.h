#ifndef ASF_BENCH_BENCH_COMMON_H_
#define ASF_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "engine/sweep_runner.h"
#include "engine/system.h"
#include "metrics/table.h"

/// \file
/// Shared plumbing for the figure-reproduction harnesses (DESIGN.md §6).
/// Each harness prints the series of one paper figure as a text table.
/// Absolute message counts depend on the substituted workloads (DESIGN.md
/// §3); the shapes — who wins, how curves move with tolerance — are the
/// reproduction targets recorded in EXPERIMENTS.md.

namespace asf {
namespace bench {

/// Workload scale factor from the REPRO_SCALE environment variable
/// (default 1.0). Larger values lengthen every run proportionally.
inline double Scale() {
  static const double scale = [] {
    const char* env = std::getenv("REPRO_SCALE");
    if (env == nullptr) return 1.0;
    const double s = std::atof(env);
    return s > 0 ? s : 1.0;
  }();
  return scale;
}

/// Runs a config that harness code believes is valid; aborts with the
/// status message otherwise.
inline RunResult MustRun(const SystemConfig& config) {
  auto result = RunSystem(config);
  ASF_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  return std::move(result).value();
}

/// Parallel worker count for batched harness runs, from the REPRO_JOBS
/// environment variable (default 0 = one worker per hardware thread; 1
/// forces serial execution).
inline std::size_t Jobs() {
  static const std::size_t jobs = [] {
    const char* env = std::getenv("REPRO_JOBS");
    if (env == nullptr) return std::size_t{0};
    const long j = std::atol(env);
    return j > 0 ? static_cast<std::size_t>(j) : std::size_t{0};
  }();
  return jobs;
}

/// Runs a batch of configs through the thread-parallel sweep executor and
/// returns the results in submission order (identical to running them
/// serially — every run is seeded from its own config). Aborts on the
/// first invalid config, like MustRun.
inline std::vector<RunResult> MustRunAll(
    const std::vector<SystemConfig>& configs) {
  SweepOptions options;
  options.num_threads = Jobs();
  auto results = RunSweepAll(configs, options);
  ASF_CHECK_MSG(results.ok(), results.status().ToString().c_str());
  return std::move(results).value();
}

/// Prints the harness banner: which figure, what the paper shows, and what
/// to look for in the table below.
inline void PrintBanner(const char* figure, const char* paper_shows,
                        const char* expect) {
  std::printf("=== %s ===\n", figure);
  std::printf("paper:  %s\n", paper_shows);
  std::printf("expect: %s\n", expect);
  std::printf("(REPRO_SCALE=%.2f; absolute counts are workload-dependent, "
              "shapes are the target)\n\n",
              Scale());
}

/// Formats a message count compactly ("45231" -> "45.2K").
inline std::string Msgs(std::uint64_t count) {
  if (count >= 10000000) return Fmt("%.1fM", count / 1e6);
  if (count >= 10000) return Fmt("%.1fK", count / 1e3);
  return Fmt("%llu", static_cast<unsigned long long>(count));
}

/// Oracle violations printed so far by OracleCell, process-wide.
inline std::uint64_t printed_violations = 0;

/// Oracle verdict cell ("0/100"). The harnesses that sample the oracle on
/// instant delivery, where every protocol guarantees its tolerance, print
/// each verdict through this and return ExitStatus() from main, so a
/// violation fails the harness (and its ctest smoke entry).
inline std::string OracleCell(std::uint64_t violations, std::uint64_t checks) {
  printed_violations += violations;
  return Fmt("%llu/%llu", static_cast<unsigned long long>(violations),
             static_cast<unsigned long long>(checks));
}
inline std::string OracleCell(const RunResult& result) {
  return OracleCell(result.oracle_violations, result.oracle_checks);
}

/// main's exit status: 1, with the count on stderr, once any OracleCell
/// printed a violation; 0 otherwise.
inline int ExitStatus() {
  if (printed_violations == 0) return 0;
  std::fprintf(stderr, "FAILED: %llu oracle violations\n",
               static_cast<unsigned long long>(printed_violations));
  return 1;
}

/// If REPRO_CSV_DIR is set, writes the table to <dir>/<name>.csv for
/// plotting; otherwise a no-op.
inline void MaybeWriteCsv(const TextTable& table, const char* name) {
  const char* dir = std::getenv("REPRO_CSV_DIR");
  if (dir == nullptr || dir[0] == '\0') return;
  const std::string path = std::string(dir) + "/" + name + ".csv";
  const Status status = table.WriteCsv(path);
  if (status.ok()) {
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "csv export failed: %s\n",
                 status.ToString().c_str());
  }
}

/// The (ε+, ε−) surface of Figures 10 and 12: runs `base` at every pair
/// of tolerances from {0, 0.1, ..., 0.5}, prints the maintenance messages
/// as a table (rows ε+, columns ε−), writes it as `csv_name` (see
/// MaybeWriteCsv), and prints the pooled oracle verdict.
inline void PrintEpsGrid(const SystemConfig& base, const char* csv_name) {
  const std::vector<double> eps{0.0, 0.1, 0.2, 0.3, 0.4, 0.5};
  std::vector<std::string> header{"eps+ \\ eps-"};
  for (double em : eps) header.push_back(Fmt("%.1f", em));
  TextTable table(header);

  std::vector<SystemConfig> configs;
  for (double ep : eps) {
    for (double em : eps) {
      SystemConfig config = base;
      config.fraction = {ep, em};
      configs.push_back(config);
    }
  }
  const std::vector<RunResult> results = MustRunAll(configs);

  std::uint64_t violations = 0;
  std::uint64_t checks = 0;
  for (std::size_t pi = 0; pi < eps.size(); ++pi) {
    std::vector<std::string> row{Fmt("%.1f", eps[pi])};
    for (std::size_t mi = 0; mi < eps.size(); ++mi) {
      const RunResult& result = results[pi * eps.size() + mi];
      row.push_back(Msgs(result.MaintenanceMessages()));
      violations += result.oracle_violations;
      checks += result.oracle_checks;
    }
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToString().c_str());
  MaybeWriteCsv(table, csv_name);
  std::printf("oracle violations: %s sampled checks\n",
              OracleCell(violations, checks).c_str());
}

}  // namespace bench
}  // namespace asf

#endif  // ASF_BENCH_BENCH_COMMON_H_
