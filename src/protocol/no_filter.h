#ifndef ASF_PROTOCOL_NO_FILTER_H_
#define ASF_PROTOCOL_NO_FILTER_H_

#include <optional>
#include <set>

#include "protocol/protocol.h"
#include "query/query.h"
#include "query/ranking.h"

/// \file
/// The paper's baseline: "the case when no filter is used at all" (§6).
/// Every stream reports every value change; the server maintains the exact
/// answer. Each update is one maintenance message, matching the paper's
/// footnote that for this baseline "a maintenance message is essentially an
/// update message from a stream source".

namespace asf {

/// Exact continuous evaluation of a range or rank query with no filters.
class NoFilterProtocol : public Protocol {
 public:
  /// Exact continuous range query.
  NoFilterProtocol(ServerContext* ctx, const RangeQuery& query);

  /// Exact continuous rank query (k-NN / top-k / bottom-k).
  NoFilterProtocol(ServerContext* ctx, const RankQuery& query);

  std::string_view name() const override { return "NoFilter"; }

  void Initialize() override;
  const AnswerSet& answer() const override { return answer_; }

 protected:
  void OnUpdate(StreamId id, Value v) override;

 private:
  /// Rebuilds answer_ = ids of the k best entries of scored_.
  void RematerializeTopK();

  std::optional<RangeQuery> range_query_;
  std::optional<RankQuery> rank_query_;

  // Rank maintenance: all streams ordered by (score, id); per-stream score
  // mirror for O(log n) reorder on update.
  std::set<ScoredStream> scored_;
  std::vector<double> score_of_;

  AnswerSet answer_;
};

}  // namespace asf

#endif  // ASF_PROTOCOL_NO_FILTER_H_
