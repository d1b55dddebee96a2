#include "protocol/heuristics.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace asf {

std::string_view SelectionHeuristicName(SelectionHeuristic h) {
  switch (h) {
    case SelectionHeuristic::kRandom:
      return "random";
    case SelectionHeuristic::kBoundaryNearest:
      return "boundary-nearest";
  }
  return "unknown";
}

std::string_view ReinitPolicyName(ReinitPolicy p) {
  switch (p) {
    case ReinitPolicy::kNever:
      return "never";
    case ReinitPolicy::kWhenExhausted:
      return "when-exhausted";
  }
  return "unknown";
}

std::vector<StreamId> SelectFilterHolders(
    const std::vector<StreamId>& candidates, std::size_t count,
    SelectionHeuristic heuristic,
    const std::function<double(StreamId)>& priority, Rng* rng) {
  const std::size_t take = std::min(count, candidates.size());
  std::vector<StreamId> picked;
  switch (heuristic) {
    case SelectionHeuristic::kRandom:
      ASF_CHECK(rng != nullptr);
      picked = candidates;
      rng->Shuffle(&picked);  // the whole list: the RNG stream depends on it
      picked.resize(take);
      break;
    case SelectionHeuristic::kBoundaryNearest: {
      ASF_CHECK(priority != nullptr);
      // One priority evaluation per candidate; only the `take` winners are
      // ordered. (priority, id) is a strict total order, so these are
      // exactly the first `take` of a full sort, in the same order.
      std::vector<std::pair<double, StreamId>> keyed;
      keyed.reserve(candidates.size());
      for (const StreamId id : candidates) keyed.emplace_back(priority(id), id);
      std::partial_sort(keyed.begin(), keyed.begin() + take, keyed.end(),
                        [](const auto& a, const auto& b) {
                          if (a.first != b.first) return a.first < b.first;
                          return a.second < b.second;
                        });
      picked.reserve(take);
      for (std::size_t i = 0; i < take; ++i) picked.push_back(keyed[i].second);
      break;
    }
  }
  return picked;
}

}  // namespace asf
