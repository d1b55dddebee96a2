/// bench_check — tolerance-aware comparison of two BENCH_*.json files.
///
///   bench_check --baseline=BENCH_micro_dispatch.json \
///               --current=build/BENCH_micro_dispatch.json \
///               [--tolerance=0.25] [--keys=simd_speedup_q256,...]
///
/// Compares every metric key present in both files (or only --keys, when
/// given). Throughput-like metrics (higher is better) regress when
/// current < baseline * (1 - tolerance); keys ending in "_seconds"
/// (lower is better) regress when current > baseline * (1 + tolerance).
/// Exit code 1 if any checked metric regressed, 2 on usage/parse errors.
///
/// Direction-aware bounds: a --keys entry may carry an explicit gate,
///
///   metric>=        current must be >= the baseline value (floor)
///   metric>=0.85    current must be >= the literal bound
///   metric<=        current must be <= the baseline value (ceiling)
///   metric<=1024    current must be <= the literal bound
///
/// Bound gates are exact — --tolerance does not apply — and a literal
/// bound does not require the key in the baseline file at all. CI uses
/// these for quality floors (e.g. spill-pool hit rate) and resource
/// ceilings (resident bytes) where a ratio tolerance is the wrong shape.
///
/// CI guards the *machine-stable ratio* metrics (SIMD speedup, batching
/// messages-per-flush) this way: absolute updates/sec
/// depend on the runner hardware, but in-process and simulation-currency
/// ratios transfer — see EXPERIMENTS.md.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"

namespace asf {
namespace {

/// Parses the flat {"bench": "...", "metrics": {"k": v, ...}} documents
/// WriteBenchJson emits. Not a general JSON parser; the format is ours.
bool ParseBenchJson(const std::string& path,
                    std::map<std::string, double>* metrics) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_check: cannot open %s\n", path.c_str());
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  const std::size_t metrics_at = text.find("\"metrics\"");
  if (metrics_at == std::string::npos) {
    std::fprintf(stderr, "bench_check: %s has no \"metrics\" object\n",
                 path.c_str());
    return false;
  }
  std::size_t pos = text.find('{', metrics_at);
  if (pos == std::string::npos) return false;
  ++pos;
  while (pos < text.size()) {
    const std::size_t key_open = text.find('"', pos);
    if (key_open == std::string::npos) break;
    const std::size_t key_close = text.find('"', key_open + 1);
    if (key_close == std::string::npos) break;
    const std::string key = text.substr(key_open + 1, key_close - key_open - 1);
    const std::size_t colon = text.find(':', key_close);
    if (colon == std::string::npos) break;
    char* end = nullptr;
    const double value = std::strtod(text.c_str() + colon + 1, &end);
    if (end == text.c_str() + colon + 1) {
      std::fprintf(stderr, "bench_check: bad value for %s in %s\n",
                   key.c_str(), path.c_str());
      return false;
    }
    (*metrics)[key] = value;
    pos = static_cast<std::size_t>(end - text.c_str());
    const std::size_t brace = text.find_first_of(",}", pos);
    if (brace == std::string::npos || text[brace] == '}') break;
    pos = brace + 1;
  }
  return true;
}

bool LowerIsBetter(const std::string& key) {
  const std::string suffix = "_seconds";
  return key.size() >= suffix.size() &&
         key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// One --keys entry. kRatio is the historical tolerance comparison;
/// kFloor/kCeiling are exact bound gates (metric>= / metric<=), against
/// either the baseline value or a literal bound.
struct KeySpec {
  enum Kind { kRatio, kFloor, kCeiling };
  std::string name;
  Kind kind = kRatio;
  double bound = 0;        ///< literal bound, when has_literal_bound
  bool has_literal_bound = false;
};

/// Parses "metric", "metric>=", "metric>=0.85", "metric<=", "metric<=N".
bool ParseKeySpec(const std::string& entry, KeySpec* spec) {
  for (const auto& [op, kind] :
       {std::pair<const char*, KeySpec::Kind>{">=", KeySpec::kFloor},
        std::pair<const char*, KeySpec::Kind>{"<=", KeySpec::kCeiling}}) {
    const std::size_t at = entry.find(op);
    if (at == std::string::npos) continue;
    spec->name = entry.substr(0, at);
    spec->kind = kind;
    const std::string bound = entry.substr(at + 2);
    if (!bound.empty()) {
      char* end = nullptr;
      spec->bound = std::strtod(bound.c_str(), &end);
      if (end != bound.c_str() + bound.size()) return false;
      spec->has_literal_bound = true;
    }
    return !spec->name.empty();
  }
  spec->name = entry;
  spec->kind = KeySpec::kRatio;
  return !spec->name.empty();
}

std::vector<std::string> SplitKeys(const std::string& csv) {
  std::vector<std::string> keys;
  std::string key;
  std::stringstream stream(csv);
  while (std::getline(stream, key, ',')) {
    if (!key.empty()) keys.push_back(key);
  }
  return keys;
}

int Run(const Flags& flags) {
  const std::string baseline_path = flags.GetString("baseline");
  const std::string current_path = flags.GetString("current");
  if (baseline_path.empty() || current_path.empty()) {
    std::fprintf(stderr,
                 "usage: bench_check --baseline=FILE --current=FILE "
                 "[--tolerance=0.25] [--keys=a,b,c]\n");
    return 2;
  }
  auto tolerance_or = flags.GetDouble("tolerance", 0.25);
  if (!tolerance_or.ok() || *tolerance_or < 0) {
    std::fprintf(stderr, "bench_check: bad --tolerance\n");
    return 2;
  }
  const double tolerance = *tolerance_or;

  std::map<std::string, double> baseline;
  std::map<std::string, double> current;
  if (!ParseBenchJson(baseline_path, &baseline) ||
      !ParseBenchJson(current_path, &current)) {
    return 2;
  }

  std::vector<KeySpec> keys;
  if (flags.Has("keys")) {
    for (const std::string& entry : SplitKeys(flags.GetString("keys"))) {
      KeySpec spec;
      if (!ParseKeySpec(entry, &spec)) {
        std::fprintf(stderr, "bench_check: bad --keys entry %s\n",
                     entry.c_str());
        return 2;
      }
      // A literal bound gate stands alone; everything else compares
      // against the baseline file, so the key must exist there.
      if (!spec.has_literal_bound &&
          baseline.find(spec.name) == baseline.end()) {
        std::fprintf(stderr, "bench_check: key %s missing from baseline %s\n",
                     spec.name.c_str(), baseline_path.c_str());
        return 2;
      }
      if (current.find(spec.name) == current.end()) {
        std::fprintf(stderr, "bench_check: key %s missing from current %s\n",
                     spec.name.c_str(), current_path.c_str());
        return 2;
      }
      keys.push_back(spec);
    }
  } else {
    for (const auto& [key, value] : baseline) {
      (void)value;
      if (current.find(key) != current.end()) {
        KeySpec spec;
        spec.name = key;
        keys.push_back(spec);
      }
    }
  }
  if (keys.empty()) {
    std::fprintf(stderr, "bench_check: no common metrics to compare\n");
    return 2;
  }

  int regressions = 0;
  std::printf("%-40s %14s %14s %9s\n", "metric", "baseline", "current",
              "ratio");
  for (const KeySpec& spec : keys) {
    const double cur = current[spec.name];
    bool regressed;
    if (spec.kind == KeySpec::kRatio) {
      const double base = baseline[spec.name];
      const double ratio = base != 0 ? cur / base : 0.0;
      if (LowerIsBetter(spec.name)) {
        regressed = cur > base * (1 + tolerance);
      } else {
        regressed = cur < base * (1 - tolerance);
      }
      std::printf("%-40s %14.6g %14.6g %8.2fx%s\n", spec.name.c_str(), base,
                  cur, ratio, regressed ? "  << REGRESSED" : "");
    } else {
      // Bound gate: exact, tolerance-free. The bound is the literal when
      // given, the baseline value otherwise.
      const double bound =
          spec.has_literal_bound ? spec.bound : baseline[spec.name];
      const bool floor = spec.kind == KeySpec::kFloor;
      regressed = floor ? cur < bound : cur > bound;
      std::printf("%-40s %14.6g %14.6g %9s%s\n",
                  (spec.name + (floor ? " >=" : " <=")).c_str(), bound, cur,
                  floor ? "floor" : "ceiling",
                  regressed ? "  << VIOLATED" : "");
    }
    if (regressed) ++regressions;
  }
  if (regressions > 0) {
    std::fprintf(stderr,
                 "bench_check: %d metric(s) regressed or violated bounds "
                 "(tolerance %.0f%%)\n",
                 regressions, tolerance * 100);
    return 1;
  }
  std::printf("bench_check: OK (%zu metrics within tolerance/bounds)\n",
              keys.size());
  return 0;
}

}  // namespace
}  // namespace asf

int main(int argc, char** argv) {
  auto flags = asf::Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  return asf::Run(*flags);
}
