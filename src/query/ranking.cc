#include "query/ranking.h"

#include <algorithm>

#include "common/check.h"

namespace asf {

std::vector<ScoredStream> RankAll(const RankQuery& query,
                                  const std::vector<Value>& values) {
  std::vector<ScoredStream> out;
  out.reserve(values.size());
  for (StreamId id = 0; id < values.size(); ++id) {
    out.push_back({query.Score(values[id]), id});
  }
  std::sort(out.begin(), out.end());
  return out;
}

KthScores KthAndNextScores(const RankQuery& query,
                           const std::vector<Value>& values, std::size_t k,
                           std::vector<ScoredStream>* scratch) {
  ASF_CHECK(k >= 1 && k < values.size());
  scratch->clear();
  for (StreamId id = 0; id < values.size(); ++id) {
    scratch->push_back({query.Score(values[id]), id});
  }
  const auto next = scratch->begin() + static_cast<std::ptrdiff_t>(k);
  std::nth_element(scratch->begin(), next, scratch->end());
  // Everything before `next` ranks ahead of it; the k-th is their maximum.
  const ScoredStream kth = *std::max_element(scratch->begin(), next);
  return {kth.score, next->score};
}

std::vector<ScoredStream> RankSubset(const RankQuery& query,
                                     const std::vector<Value>& values,
                                     const std::vector<StreamId>& candidates) {
  std::vector<ScoredStream> out;
  out.reserve(candidates.size());
  for (StreamId id : candidates) {
    ASF_DCHECK(id < values.size());
    out.push_back({query.Score(values[id]), id});
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<StreamId> TopKIds(const RankQuery& query,
                              const std::vector<Value>& values,
                              std::size_t k) {
  std::vector<ScoredStream> ranked = RankAll(query, values);
  const std::size_t take = std::min(k, ranked.size());
  std::vector<StreamId> out;
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) out.push_back(ranked[i].id);
  return out;
}

std::size_t RankOf(const RankQuery& query, const std::vector<Value>& values,
                   StreamId id) {
  ASF_CHECK(id < values.size());
  const double score = query.Score(values[id]);
  std::size_t better = 0;
  for (StreamId j = 0; j < values.size(); ++j) {
    if (query.Score(values[j]) < score) ++better;
  }
  return better + 1;
}

}  // namespace asf
