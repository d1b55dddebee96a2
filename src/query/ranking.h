#ifndef ASF_QUERY_RANKING_H_
#define ASF_QUERY_RANKING_H_

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "query/query.h"

/// \file
/// Ranking utilities over a snapshot of stream values.
///
/// Rank semantics (paper §3.3): rank(S_i, t) is the position of S_i when
/// streams are ordered by score. We define rank(S_i) = 1 + |{j : score_j <
/// score_i}| so that ties share the best applicable rank; this is the
/// reading most favorable to answer validity and is measure-zero for the
/// continuous workloads of §6. Deterministic orderings (used to *construct*
/// answers rather than judge them) break ties by stream id.

namespace asf {

/// (score, id) pair ordered by score then id.
struct ScoredStream {
  double score;
  StreamId id;

  bool operator<(const ScoredStream& other) const {
    if (score != other.score) return score < other.score;
    return id < other.id;
  }
  bool operator==(const ScoredStream& other) const {
    return score == other.score && id == other.id;
  }
};

/// Scores every value in `values` (indexed by StreamId) under `query` and
/// returns the streams sorted ascending by (score, id).
std::vector<ScoredStream> RankAll(const RankQuery& query,
                                  const std::vector<Value>& values);

/// Scores only the given candidate ids; sorted ascending by (score, id).
std::vector<ScoredStream> RankSubset(const RankQuery& query,
                                     const std::vector<Value>& values,
                                     const std::vector<StreamId>& candidates);

/// The scores of the k-th and (k+1)-th best-ranked streams — entries k−1
/// and k of RankAll — found by selection instead of a full sort: the
/// (score, id) order is strict, so they are exactly RankAll's. Requires
/// 1 <= k < values.size(); `scratch` is reused across calls.
struct KthScores {
  double kth;
  double next;
};
KthScores KthAndNextScores(const RankQuery& query,
                           const std::vector<Value>& values, std::size_t k,
                           std::vector<ScoredStream>* scratch);

/// The ids of the k best-ranked streams (ties broken by id). k may exceed
/// the population, in which case all ids are returned.
std::vector<StreamId> TopKIds(const RankQuery& query,
                              const std::vector<Value>& values, std::size_t k);

/// 1 + number of streams with strictly smaller score than stream `id`
/// (ties share the best rank).
std::size_t RankOf(const RankQuery& query, const std::vector<Value>& values,
                   StreamId id);

}  // namespace asf

#endif  // ASF_QUERY_RANKING_H_
