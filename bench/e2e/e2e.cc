/// End-to-end benchmark: one workload per process (README.md in this
/// directory).
///
///   e2e --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1] [--quick]
///       [--json=PATH] [--scratch=DIR]
///
/// Set-up (input generation plus one discarded warm-up run) is repeated
/// three times. The timed section is a closed loop on one thread: whole
/// passes over the workload's runs, the next run starting when the previous
/// one returns, until --seconds have passed (at least three passes). With
/// --trace=1 a traced replica of one run follows and the per-layer metrics
/// are reported instead of the end-to-end ones. Every run's outputs are
/// checked; the last stdout line is one JSON object
/// {"correct", "attempted", "failed", "metrics"}, and the exit code is 0
/// only when every check passed. --json writes the full record: every
/// sample, quartiles, the traced breakdown and the build provenance.

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "metrics/provenance.h"
#include "quantile.h"
#include "traced.h"
#include "workloads.h"

namespace asf {
namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetups = 3;
constexpr int kMinPasses = 3;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// An end-to-end metric with the samples its value summarizes.
struct Summary {
  Metric metric;
  std::vector<double> samples;
};

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsObject(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += Quote(m.name) + ": {\"value\": " + Number(m.value) +
           ", \"unit\": " + Quote(m.unit) + "}";
  }
  return out + "}";
}

std::string SummariesObject(const std::vector<Summary>& summaries) {
  std::string out = "{";
  for (const Summary& s : summaries) {
    if (out.size() > 1) out += ",\n    ";
    out += Quote(s.metric.name) + ": {\"value\": " + Number(s.metric.value) +
           ", \"unit\": " + Quote(s.metric.unit) +
           ", \"n\": " + std::to_string(s.samples.size()) +
           ", \"q1\": " + Number(Quantile(s.samples, 0.25)) +
           ", \"median\": " + Number(Median(s.samples)) +
           ", \"q3\": " + Number(Quantile(s.samples, 0.75)) +
           ", \"samples\": [";
    for (std::size_t i = 0; i < s.samples.size(); ++i) {
      out += (i ? ", " : "") + Number(s.samples[i]);
    }
    out += "]}";
  }
  return out + "}";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int Main(int argc, char** argv) {
  auto parsed = Flags::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const Flags& flags = *parsed;
  for (const std::string& name : flags.Names()) {
    if (name != "workload" && name != "seed" && name != "seconds" &&
        name != "trace" && name != "quick" && name != "json" &&
        name != "scratch") {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
      return 2;
    }
  }
  const auto quick = flags.GetBool("quick", false);
  const auto seed = flags.GetInt("seed", 1);
  const auto seconds =
      flags.GetDouble("seconds", quick.ok() && *quick ? 1 : 20);
  const auto trace = flags.GetInt("trace", 0);
  if (!quick.ok() || !seed.ok() || !seconds.ok() || !trace.ok() ||
      *seed < 0 || *seconds < 0 || (*trace != 0 && *trace != 1)) {
    std::fprintf(stderr, "bad --quick, --seed, --seconds or --trace\n");
    return 2;
  }
  const std::string name = flags.GetString("workload");
  const double scale = *quick ? 0.05 : 1.0;
  auto w = MakeWorkload(name, static_cast<std::uint64_t>(*seed), scale,
                        flags.GetString("scratch", "."));
  if (w == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s'; one of:", name.c_str());
    for (const std::string& n : WorkloadNames()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  std::uint64_t attempted = 0;
  std::vector<std::string> failures;
  const auto record = [&](const std::string& what, const std::string& failure) {
    ++attempted;
    if (!failure.empty()) failures.push_back(what + ": " + failure);
  };

  // Set-up: inputs from the seed, then one discarded warm-up run.
  // Every run's outputs must repeat exactly: the warm-ups and the warmed
  // run against the first warm-up, the other runs against the first pass.
  std::vector<double> setup_s;
  std::uint64_t warm_digest = 0;
  for (int i = 0; i < kSetups; ++i) {
    const auto start = Clock::now();
    w->Setup();
    RunOutcome warm = w->Run(w->traced_run);
    setup_s.push_back(Since(start));
    if (i == 0) {
      warm_digest = warm.digest;
    } else if (warm.failure.empty() && warm.digest != warm_digest) {
      warm.failure = "outputs differ from the first set-up";
    }
    record("warm-up", warm.failure);
  }

  // Timed section.
  const std::size_t runs = w->RunsPerPass();
  std::vector<std::uint64_t> reference(runs);
  reference[w->traced_run] = warm_digest;
  std::vector<double> run_s;
  std::vector<double> pass_rate;
  std::vector<double> traced_run_s;
  double maint_per_update = 0;
  const auto timed = Clock::now();
  for (int pass = 0; pass < kMinPasses || Since(timed) < *seconds; ++pass) {
    double pass_s = 0;
    std::uint64_t updates = 0;
    std::uint64_t maint = 0;
    for (std::size_t i = 0; i < runs; ++i) {
      const auto start = Clock::now();
      RunOutcome o = w->Run(i);
      const double s = Since(start);
      run_s.push_back(s);
      pass_s += s;
      updates += o.updates;
      maint += o.maint_msgs;
      if (i == w->traced_run) traced_run_s.push_back(s);
      if (pass == 0 && i != w->traced_run) reference[i] = o.digest;
      if (o.failure.empty() && o.digest != reference[i]) {
        o.failure = "outputs differ from an earlier run";
      }
      record("run " + std::to_string(i), o.failure);
    }
    pass_rate.push_back(static_cast<double>(updates) / pass_s);
    if (pass == 0) {
      maint_per_update =
          static_cast<double>(maint) / static_cast<double>(updates);
    }
  }
  const double peak_rss_mb = PeakRssMb();

  std::vector<Summary> e2e = {
      {{"updates_per_s", "1/s", Median(pass_rate)}, pass_rate},
      {{"run_s_p50", "s", Median(run_s)}, run_s},
      {{"setup_s", "s", Median(setup_s)}, setup_s},
      {{"peak_rss_mb", "MB", peak_rss_mb}, {peak_rss_mb}},
  };
  // The full record adds the p90 where ten samples lie beyond it.
  std::vector<Summary> detail = e2e;
  if (run_s.size() >= 100) {
    detail.push_back({{"run_s_p90", "s", Quantile(run_s, 0.9)}, run_s});
  }

  TracedRun traced;
  if (*trace == 1) {
    traced = RunTraced(*w, Median(traced_run_s), Median(setup_s));
    if (traced.failure.empty() &&
        (traced.digest != reference[w->traced_run] ||
         traced.profiled_digest != reference[w->traced_run])) {
      traced.failure = "traced outputs differ from the untraced run";
    }
    record("traced run", traced.failure);
    // The paper's metric over a whole pass. It repeats exactly for a seed
    // but moves with it (0.12 to 0.21 across ten fig10_grid traces), so it
    // is held fixed through the outputs digest rather than by a bound.
    traced.metrics.push_back({"protocol.maint_msgs_per_update", "msg/update",
                              maint_per_update});
  }

  const bool correct = failures.empty();
  std::printf("e2e %s seed=%lld scale=%g: %zu runs in %zu passes, %llu "
              "checked, %zu failed\n",
              name.c_str(), static_cast<long long>(*seed), scale,
              run_s.size(), pass_rate.size(),
              static_cast<unsigned long long>(attempted), failures.size());
  for (const std::string& f : failures) std::printf("  FAILED %s\n", f.c_str());
  for (const Summary& s : detail) {
    std::printf("  %-32s %14.6g %-10s (n=%zu, q1 %.6g, q3 %.6g)\n",
                s.metric.name.c_str(), s.metric.value, s.metric.unit.c_str(),
                s.samples.size(), Quantile(s.samples, 0.25),
                Quantile(s.samples, 0.75));
  }
  if (*trace == 1) {
    std::printf("  traced run breakdown:\n");
    for (const Metric& m : traced.breakdown) {
      std::printf("    %-30s %6.1f%%\n", m.name.c_str(), 100 * m.value);
    }
    for (const auto* list : {&traced.metrics, &traced.context}) {
      for (const Metric& m : *list) {
        std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      }
    }
  }

  const std::string json_path = flags.GetString("json");
  if (!json_path.empty()) {
    // One digest over every run's outputs: equal seeds must give equal
    // digests on any commit that leaves the simulation's results alone.
    Digest outputs;
    for (const std::uint64_t d : reference) outputs.Add(d);
    char outputs_hex[17];
    std::snprintf(outputs_hex, sizeof outputs_hex, "%016llx",
                  static_cast<unsigned long long>(outputs.value()));
    std::string doc = "{\"workload\": " + Quote(name) +
                      ", \"seed\": " + std::to_string(*seed) +
                      ", \"scale\": " + Number(scale) +
                      ", \"seconds\": " + Number(*seconds) +
                      ", \"outputs_digest\": " + Quote(outputs_hex) +
                      ",\n  \"provenance\": {\"nproc\": " +
                      std::to_string(std::thread::hardware_concurrency());
    for (const auto& [key, value] : BuildProvenance()) {
      doc += ", " + Quote(key) + ": " + Quote(value);
    }
    doc += "},\n  \"correct\": " + std::string(correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failures.size()) +
           ", \"failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      doc += (i ? ", " : "") + Quote(failures[i]);
    }
    doc += "],\n  \"end_to_end\": " + SummariesObject(detail);
    if (*trace == 1) {
      doc += ",\n  \"per_layer\": " + MetricsObject(traced.metrics) +
             ",\n  \"context\": " + MetricsObject(traced.context) +
             ",\n  \"breakdown\": " + MetricsObject(traced.breakdown);
    }
    doc += "}\n";
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr || std::fputs(doc.c_str(), f) < 0 ||
        std::fclose(f) != 0) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
  }

  std::vector<Metric> reported = traced.metrics;
  if (*trace == 0) {
    for (const Summary& s : e2e) reported.push_back(s.metric);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted), failures.size(),
              MetricsObject(reported).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace asf

int main(int argc, char** argv) { return asf::e2e::Main(argc, argv); }
