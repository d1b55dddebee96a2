#include "protocol/no_filter.h"

namespace asf {

NoFilterProtocol::NoFilterProtocol(ServerContext* ctx, const RangeQuery& query)
    : Protocol(ctx), range_query_(query) {}

NoFilterProtocol::NoFilterProtocol(ServerContext* ctx, const RankQuery& query)
    : Protocol(ctx), rank_query_(query) {
  ASF_CHECK_MSG(query.k() <= ctx->num_streams(),
                "rank requirement k exceeds stream population");
}

void NoFilterProtocol::Initialize() {
  ctx_->ProbeAll();
  // No constraints are deployed: the default FilterConstraint::NoFilter()
  // makes every stream report every change.
  if (range_query_.has_value()) {
    answer_.Clear();
    for (StreamId id = 0; id < ctx_->num_streams(); ++id) {
      if (range_query_->Matches(ctx_->cached(id))) answer_.Insert(id);
    }
    return;
  }
  scored_.clear();
  score_of_.assign(ctx_->num_streams(), 0.0);
  for (StreamId id = 0; id < ctx_->num_streams(); ++id) {
    const double s = rank_query_->Score(ctx_->cached(id));
    score_of_[id] = s;
    scored_.insert({s, id});
  }
  RematerializeTopK();
}

void NoFilterProtocol::RematerializeTopK() {
  answer_.Clear();
  std::size_t taken = 0;
  for (const ScoredStream& entry : scored_) {
    if (taken >= rank_query_->k()) break;
    answer_.Insert(entry.id);
    ++taken;
  }
}

void NoFilterProtocol::OnUpdate(StreamId id, Value v) {
  if (range_query_.has_value()) {
    if (range_query_->Matches(v)) {
      answer_.Insert(id);
    } else {
      answer_.Erase(id);
    }
    return;
  }
  const double old_score = score_of_[id];
  const double new_score = rank_query_->Score(v);
  if (new_score != old_score) {
    scored_.erase({old_score, id});
    scored_.insert({new_score, id});
    score_of_[id] = new_score;
  }
  RematerializeTopK();
}

}  // namespace asf
