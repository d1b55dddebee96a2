#include "tolerance/oracle.h"

#include <algorithm>

#include "common/check.h"
#include "query/ranking.h"

namespace asf {

namespace {

/// E+/E− of `answer` over `n` streams, `satisfied_total` of which truly
/// satisfy the query; `satisfies(id)` judges one answer member.
template <typename Satisfies>
FractionCounts CountAgainst(std::size_t n, std::size_t satisfied_total,
                            const AnswerSet& answer, Satisfies satisfies) {
  (void)n;
  FractionCounts counts;
  counts.answer_size = answer.size();
  for (StreamId id : answer) {
    ASF_DCHECK(id < n);
    if (!satisfies(id)) ++counts.false_positives;
  }
  // E- = streams satisfying the query but absent from the answer
  //    = satisfied_total - (answer members that satisfy).
  const std::size_t answered_correct =
      counts.answer_size - counts.false_positives;
  ASF_DCHECK(satisfied_total >= answered_correct);
  counts.false_negatives = satisfied_total - answered_correct;
  return counts;
}

}  // namespace

OracleCheck Oracle::CheckRangeFraction(const std::vector<Value>& truth,
                                       const RangeQuery& query,
                                       const AnswerSet& answer,
                                       const FractionTolerance& tol) {
  // One pass over the streams counts the satisfying ones; answer members
  // are judged on their values directly, with no per-stream vector.
  const std::size_t satisfying = static_cast<std::size_t>(
      std::count_if(truth.begin(), truth.end(),
                    [&query](Value v) { return query.Matches(v); }));
  const FractionCounts counts = CountAgainst(
      truth.size(), satisfying, answer,
      [&](StreamId id) { return query.Matches(truth[id]); });
  OracleCheck check;
  check.f_plus = counts.FPlus();
  check.f_minus = counts.FMinus();
  check.answer_size = counts.answer_size;
  check.satisfying = satisfying;
  check.ok = counts.Satisfies(tol);
  return check;
}

OracleCheck Oracle::CheckRankTolerance(const std::vector<Value>& truth,
                                       const RankQuery& query,
                                       const AnswerSet& answer,
                                       const RankTolerance& tol) {
  OracleCheck check;
  check.answer_size = answer.size();
  // Definition 1: |A(t)| must be exactly k ...
  check.ok = (answer.size() == tol.k);
  // ... and every member must rank eps_k^r or above. Computing all ranks
  // once is O(n log n) instead of O(n) per member.
  const std::vector<ScoredStream> ranked = RankAll(query, truth);
  // rank_of[id] = 1 + #{strictly better scores}.
  std::vector<std::size_t> rank_of(truth.size(), 0);
  std::size_t rank = 1;
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (i > 0 && ranked[i].score > ranked[i - 1].score) rank = i + 1;
    rank_of[ranked[i].id] = rank;
  }
  for (StreamId id : answer) {
    ASF_DCHECK(id < truth.size());
    check.worst_rank = std::max(check.worst_rank, rank_of[id]);
  }
  if (check.worst_rank > tol.MaxRank()) check.ok = false;
  return check;
}

OracleCheck Oracle::CheckRankFraction(const std::vector<Value>& truth,
                                      const RankQuery& query,
                                      const AnswerSet& answer,
                                      const FractionTolerance& tol) {
  // satisfies(id) <=> true rank <= k (ties share the best rank).
  const std::vector<ScoredStream> ranked = RankAll(query, truth);
  std::vector<bool> satisfies(truth.size(), false);
  std::size_t satisfying = 0;
  std::size_t rank = 1;
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (i > 0 && ranked[i].score > ranked[i - 1].score) rank = i + 1;
    if (rank <= query.k()) {
      satisfies[ranked[i].id] = true;
      ++satisfying;
    }
  }
  const FractionCounts counts =
      CountAgainst(truth.size(), satisfying, answer,
                   [&satisfies](StreamId id) { return satisfies[id]; });
  OracleCheck check;
  check.f_plus = counts.FPlus();
  check.f_minus = counts.FMinus();
  check.answer_size = counts.answer_size;
  check.satisfying = satisfying;
  check.ok = counts.Satisfies(tol);
  return check;
}

}  // namespace asf
