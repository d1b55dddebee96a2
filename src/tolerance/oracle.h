#ifndef ASF_TOLERANCE_ORACLE_H_
#define ASF_TOLERANCE_ORACLE_H_

#include <cstddef>
#include <vector>

#include "common/interval.h"
#include "common/types.h"
#include "query/answer_set.h"
#include "query/query.h"
#include "tolerance/tolerance.h"

/// \file
/// The correctness oracle: judges a protocol's answer set against the TRUE
/// stream values, which it reads directly (bypassing filters and the
/// message channel). Tests use it to assert the paper's Correctness
/// Requirements 1–2 after every event; benches sample it to report observed
/// violation rates.

namespace asf {

/// Result of one oracle evaluation.
struct OracleCheck {
  bool ok = true;
  double f_plus = 0.0;            ///< observed F+(t)
  double f_minus = 0.0;           ///< observed F−(t)
  std::size_t answer_size = 0;    ///< |A(t)|
  std::size_t worst_rank = 0;     ///< max true rank over A(t) (rank checks)
  std::size_t satisfying = 0;     ///< # streams truly satisfying the query
};

class Oracle {
 public:
  /// Judges a range-query answer under fraction tolerance (Definitions
  /// 2–3). Use a zero tolerance to check exactness (ZT-NRP, NoFilter).
  static OracleCheck CheckRangeFraction(const std::vector<Value>& truth,
                                        const RangeQuery& query,
                                        const AnswerSet& answer,
                                        const FractionTolerance& tol);

  /// Judges a rank-query answer under rank tolerance (Definition 1):
  /// |A| = k and every member's true rank ≤ k + r.
  static OracleCheck CheckRankTolerance(const std::vector<Value>& truth,
                                        const RankQuery& query,
                                        const AnswerSet& answer,
                                        const RankTolerance& tol);

  /// Judges a rank-query answer under fraction tolerance. A stream
  /// "satisfies" a k-NN query when its true rank is ≤ k (ties share the
  /// best rank, so more than k streams may satisfy; see
  /// query/ranking.h).
  static OracleCheck CheckRankFraction(const std::vector<Value>& truth,
                                       const RankQuery& query,
                                       const AnswerSet& answer,
                                       const FractionTolerance& tol);
};

}  // namespace asf

#endif  // ASF_TOLERANCE_ORACLE_H_
