#include "engine/churn.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/rng.h"
#include "engine/protocol_factory.h"

namespace asf {
namespace {

// Geometry of generated queries: the random walks' value space, with
// range widths of a tenth to three tenths of it.
constexpr double kValueLo = 0.0;
constexpr double kValueHi = 1000.0;
constexpr double kRangeWidthMin = 100.0;
constexpr double kRangeWidthMax = 300.0;

Status TooManyArrivals() {
  return Status::InvalidArgument(
      "churn schedule exceeds the arrival limit of " +
      std::to_string(kMaxChurnArrivals) +
      " queries; lower the arrival rate or cap max_queries");
}

}  // namespace

Status ChurnSpec::Validate() const {
  // NaN/inf sail through the ordinary comparisons below (NaN compares
  // false to everything) and would spin the expansion loop forever — the
  // clock never reaches the window end — so insist on finite knobs first.
  if (!std::isfinite(arrival_rate) || !std::isfinite(mean_lifetime) ||
      !std::isfinite(window_start)) {
    return Status::InvalidArgument("churn spec fields must be finite");
  }
  if (arrival_rate <= 0) {
    return Status::InvalidArgument("churn arrival_rate must be > 0");
  }
  if (mean_lifetime <= 0) {
    return Status::InvalidArgument("churn mean_lifetime must be > 0");
  }
  if (window_start < 0) {
    return Status::InvalidArgument("churn window_start must be >= 0");
  }
  double total_weight = 0;
  for (const ChurnMixEntry& entry : mix) {
    if (!std::isfinite(entry.weight) || entry.weight < 0) {
      return Status::InvalidArgument(
          "churn mix weights must be finite and >= 0");
    }
    // Protocol/query-class pairing is checked here, not during expansion:
    // whether a low-weight entry gets drawn depends on the seed, and an
    // invalid spec must fail regardless of the draws.
    const QuerySpec& query = entry.deployment.query;
    ASF_RETURN_IF_ERROR(
        CheckProtocolServes(entry.deployment.protocol, query.type));
    if (query.type == QuerySpec::Type::kRank && !entry.fixed_shape &&
        query.k == 0) {
      return Status::InvalidArgument("churn rank queries need k >= 1");
    }
    total_weight += entry.weight;
  }
  if (!mix.empty() && total_weight <= 0) {
    return Status::InvalidArgument("churn mix needs positive total weight");
  }
  return Status::OK();
}

Result<std::vector<QueryDeployment>> ExpandChurn(const ChurnSpec& spec,
                                                 SimTime duration) {
  ASF_RETURN_IF_ERROR(spec.Validate());
  // The arrival loop runs until the clock passes the horizon, which a NaN
  // or infinite duration never allows.
  if (!(duration > 0 && std::isfinite(duration))) {
    return Status::InvalidArgument(
        "churn expansion needs a finite duration > 0");
  }
  if (spec.window_start >= duration) {
    return Status::InvalidArgument("churn window starts after the horizon");
  }
  // Without a cap inside the limit, the rate bounds the schedule: an
  // expected count past the limit fails before anything is drawn.
  const bool capped =
      spec.max_queries > 0 && spec.max_queries <= kMaxChurnArrivals;
  if (!capped && spec.arrival_rate * (duration - spec.window_start) >
                     static_cast<double>(kMaxChurnArrivals)) {
    return TooManyArrivals();
  }

  // Default mix: the paper's workhorse protocol over range queries.
  std::vector<ChurnMixEntry> mix = spec.mix;
  if (mix.empty()) mix.push_back(ChurnMixEntry{});
  std::vector<double> cumulative;
  cumulative.reserve(mix.size());
  double total_weight = 0;
  for (const ChurnMixEntry& entry : mix) {
    total_weight += entry.weight;
    cumulative.push_back(total_weight);
  }

  Rng rng(spec.seed);
  std::vector<QueryDeployment> deployments;
  SimTime t = spec.window_start;
  while (true) {
    t += rng.Exponential(1.0 / spec.arrival_rate);
    if (t >= duration) break;
    if (spec.max_queries > 0 && deployments.size() >= spec.max_queries) break;
    // Poisson excess over an expected count just inside the limit.
    if (deployments.size() >= kMaxChurnArrivals) return TooManyArrivals();

    // Which mix entry arrives (weighted draw).
    const double pick = rng.Uniform(0, total_weight);
    std::size_t m = 0;
    while (m + 1 < mix.size() && pick >= cumulative[m]) ++m;
    const ChurnMixEntry& entry = mix[m];

    QueryDeployment dep = entry.deployment;
    dep.name = "churn" + std::to_string(deployments.size());
    if (!entry.fixed_shape) {
      const QuerySpec& shape = entry.deployment.query;
      if (shape.type == QuerySpec::Type::kRange) {
        const double width = rng.Uniform(kRangeWidthMin, kRangeWidthMax);
        const double center = rng.Uniform(kValueLo, kValueHi);
        dep.query = QuerySpec::Range(center - width / 2, center + width / 2);
      } else {
        switch (shape.rank_kind) {
          case RankKind::kNearest:
            dep.query =
                QuerySpec::Knn(shape.k, rng.Uniform(kValueLo, kValueHi));
            break;
          case RankKind::kMax:
            dep.query = QuerySpec::TopK(shape.k);
            break;
          case RankKind::kMin:
            dep.query = QuerySpec::BottomK(shape.k);
            break;
        }
      }
    }
    dep.start = t;
    // Exponential() can return exactly 0; every query gets a non-empty
    // live window.
    const SimTime lifetime =
        std::max(rng.Exponential(spec.mean_lifetime), 1e-9);
    const SimTime retire = t + lifetime;
    // A lifetime reaching the horizon means the query never retires; keep
    // kNeverRetire so results report the honest open-ended window.
    dep.end = retire < duration ? retire : kNeverRetire;
    deployments.push_back(std::move(dep));
  }
  return deployments;
}

std::size_t PeakConcurrency(const std::vector<QueryDeployment>& deployments,
                            SimTime query_start, SimTime duration) {
  // Sweep the deploy (+1) and retire (-1) times; at equal times deploys
  // count first, matching the engine's deploys-before-retirements event
  // order.
  std::vector<std::pair<SimTime, int>> events;
  events.reserve(deployments.size() * 2);
  for (const QueryDeployment& dep : deployments) {
    const SimTime start = dep.start < 0 ? query_start : dep.start;
    events.emplace_back(start, +1);
    if (dep.end != kNeverRetire && dep.end <= duration) {
      events.emplace_back(dep.end, -1);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const std::pair<SimTime, int>& a,
               const std::pair<SimTime, int>& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second > b.second;  // +1 before -1
            });
  std::size_t live = 0, peak = 0;
  for (const auto& [time, delta] : events) {
    (void)time;
    live = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(live) + delta);
    peak = std::max(peak, live);
  }
  return peak;
}

}  // namespace asf
