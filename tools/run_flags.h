#ifndef ASF_TOOLS_RUN_FLAGS_H_
#define ASF_TOOLS_RUN_FLAGS_H_

#include <cstdint>
#include <string>

#include "common/flags.h"
#include "engine/config.h"

/// \file
/// The workload, query and protocol flags that asf_run and asf_sweep
/// share, parsed in one place so both tools accept the same spellings and
/// reject the same bad values. Header-only: each tool is one source file.

namespace asf {

/// --protocol=no-filter|zt-nrp|ft-nrp|rtp|zt-rp|ft-rp
inline Result<ProtocolKind> ParseProtocol(const std::string& name) {
  if (name == "no-filter") return ProtocolKind::kNoFilter;
  if (name == "zt-nrp") return ProtocolKind::kZtNrp;
  if (name == "ft-nrp") return ProtocolKind::kFtNrp;
  if (name == "rtp") return ProtocolKind::kRtp;
  if (name == "zt-rp") return ProtocolKind::kZtRp;
  if (name == "ft-rp") return ProtocolKind::kFtRp;
  return Status::InvalidArgument("unknown --protocol: " + name);
}

/// --query=range|knn|topk|bottomk, shaped by --range=LO:HI [400:600],
/// --k=K [10] and --q=Q [500].
inline Result<QuerySpec> ParseQuery(const Flags& flags) {
  const std::string kind = flags.GetString("query", "range");
  ASF_ASSIGN_OR_RETURN(const std::int64_t k, flags.GetInt("k", 10));
  ASF_ASSIGN_OR_RETURN(const double q, flags.GetDouble("q", 500));
  if (kind == "range") {
    const std::string range = flags.GetString("range", "400:600");
    const auto colon = range.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("--range expects LO:HI");
    }
    ASF_ASSIGN_OR_RETURN(const double lo,
                         ParseDouble(range.substr(0, colon), "--range"));
    ASF_ASSIGN_OR_RETURN(const double hi,
                         ParseDouble(range.substr(colon + 1), "--range"));
    return QuerySpec::Range(lo, hi);
  }
  if (k <= 0) return Status::InvalidArgument("--k must be positive");
  if (kind == "knn") return QuerySpec::Knn(static_cast<std::size_t>(k), q);
  if (kind == "topk") return QuerySpec::TopK(static_cast<std::size_t>(k));
  if (kind == "bottomk") {
    return QuerySpec::BottomK(static_cast<std::size_t>(k));
  }
  return Status::InvalidArgument("unknown --query: " + kind);
}

/// The random-walk workload: --streams=N [1000], --sigma=S [20],
/// --interarrival=M [20] and --seed=N [1].
inline Result<RandomWalkConfig> ParseWalk(const Flags& flags) {
  RandomWalkConfig walk;
  ASF_ASSIGN_OR_RETURN(const std::int64_t n, flags.GetInt("streams", 1000));
  ASF_ASSIGN_OR_RETURN(walk.sigma, flags.GetDouble("sigma", 20));
  ASF_ASSIGN_OR_RETURN(walk.mean_interarrival,
                       flags.GetDouble("interarrival", 20));
  ASF_ASSIGN_OR_RETURN(const std::int64_t seed, flags.GetInt("seed", 1));
  if (n <= 0) return Status::InvalidArgument("--streams must be positive");
  walk.num_streams = static_cast<std::size_t>(n);
  walk.seed = static_cast<std::uint64_t>(seed);
  return walk;
}

/// The FT protocols' options: --heuristic=random|boundary-nearest,
/// --reinit=never|when-exhausted and
/// --rho=balanced|favor-positive|favor-negative.
inline Result<FtOptions> ParseFtOptions(const Flags& flags) {
  FtOptions ft;
  const std::string heuristic =
      flags.GetString("heuristic", "boundary-nearest");
  if (heuristic == "random") {
    ft.heuristic = SelectionHeuristic::kRandom;
  } else if (heuristic != "boundary-nearest") {
    return Status::InvalidArgument("unknown --heuristic: " + heuristic);
  }
  const std::string reinit = flags.GetString("reinit", "never");
  if (reinit == "when-exhausted") {
    ft.reinit = ReinitPolicy::kWhenExhausted;
  } else if (reinit != "never") {
    return Status::InvalidArgument("unknown --reinit: " + reinit);
  }
  const std::string rho = flags.GetString("rho", "balanced");
  if (rho == "favor-positive") {
    ft.rho = RhoPolicy::kFavorPositive;
  } else if (rho == "favor-negative") {
    ft.rho = RhoPolicy::kFavorNegative;
  } else if (rho != "balanced") {
    return Status::InvalidArgument("unknown --rho: " + rho);
  }
  return ft;
}

}  // namespace asf

#endif  // ASF_TOOLS_RUN_FLAGS_H_
