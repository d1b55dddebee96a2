#include "protocol/zt_rp.h"

namespace asf {

ZtRp::ZtRp(ServerContext* ctx, const RankQuery& query)
    : Protocol(ctx), query_(query) {
  ASF_CHECK_MSG(query.k() <= ctx->num_streams(),
                "rank requirement k exceeds stream population");
}

void ZtRp::Recompute() {
  ctx_->ProbeAll();
  const std::vector<ScoredStream> ranked = RankAll(query_, ctx_->cache());
  answer_.Clear();
  for (std::size_t i = 0; i < std::min(query_.k(), ranked.size()); ++i) {
    answer_.Insert(ranked[i].id);
  }
  if (ranked.size() <= query_.k()) {
    bound_ = Interval::Always();
  } else {
    const double radius =
        (ranked[query_.k() - 1].score + ranked[query_.k()].score) / 2.0;
    bound_ = query_.ScoreBall(radius);
  }
  ctx_->DeployAll(FilterConstraint::Range(bound_));
}

void ZtRp::Initialize() { Recompute(); }

void ZtRp::OnUpdate(StreamId /*id*/, Value /*v*/) {
  // Any crossing of R invalidates the exact k-NN set; recompute and
  // re-broadcast (paper §5.2.1).
  BumpReinit();
  Recompute();
}

}  // namespace asf
