#include "protocol/zt_nrp.h"

namespace asf {

ZtNrp::ZtNrp(ServerContext* ctx, const RangeQuery& query)
    : Protocol(ctx), query_(query) {}

void ZtNrp::Initialize() {
  ctx_->ProbeAll();
  answer_.Clear();
  for (StreamId id = 0; id < ctx_->num_streams(); ++id) {
    if (query_.Matches(ctx_->cached(id))) answer_.Insert(id);
  }
  ctx_->DeployAll(FilterConstraint::Range(query_.range()));
}

void ZtNrp::OnUpdate(StreamId id, Value v) {
  // A report means the value crossed [l, u]; membership simply flips.
  // Under instant delivery a member can never report an in-range value
  // (nor a non-member an out-of-range one); while messages are in
  // transit the server's belief lags the source, so a late report may
  // re-state the current side — Insert/Erase are then no-ops
  // (DESIGN.md §9).
  if (query_.Matches(v)) {
    const bool inserted = answer_.Insert(id);
    ASF_DCHECK(inserted || ctx_->delayed_delivery());
    (void)inserted;
  } else {
    const bool erased = answer_.Erase(id);
    ASF_DCHECK(erased || ctx_->delayed_delivery());
    (void)erased;
  }
}

}  // namespace asf
