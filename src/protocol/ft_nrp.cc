#include "protocol/ft_nrp.h"

namespace asf {

FtNrp::FtNrp(ServerContext* ctx, const RangeQuery& query,
             const FractionTolerance& tolerance, const FtOptions& options,
             Rng* rng)
    : Protocol(ctx),
      query_(query),
      tolerance_(tolerance),
      options_(options),
      core_(ctx, options.heuristic, rng) {
  ASF_CHECK_MSG(tolerance.Validate().ok(), "invalid fraction tolerance");
}

void FtNrp::RunInitialization() {
  ctx_->ProbeAll();
  // Budgets are derived from the fresh answer size (Equations 3-4). A
  // pre-pass over the cache tells us |A(t0)| before filters go out.
  std::size_t answer_size = 0;
  for (StreamId id = 0; id < ctx_->num_streams(); ++id) {
    if (query_.Matches(ctx_->cached(id))) ++answer_size;
  }
  const std::size_t n_plus = MaxFalsePositiveFilters(answer_size, tolerance_);
  const std::size_t n_minus =
      MaxFalseNegativeFilters(answer_size, tolerance_);
  core_.InstallFilters(query_.range(), n_plus, n_minus);
}

void FtNrp::Initialize() { RunInitialization(); }

void FtNrp::OnUpdate(StreamId id, Value v) {
  const bool was_exhausted = core_.Exhausted();
  core_.OnRangeUpdate(id, v);
  // Optional §5.1.1 re-initialization: "when both n+ and n− become zero
  // ... the protocol reduces to ZT-NRP. To exploit tolerance, the
  // Initialization Phase of FT-NRP may be run again." Trigger only on the
  // exhaustion *transition*, so a population too small to fund any silent
  // filter does not re-initialize on every update.
  if (options_.reinit == ReinitPolicy::kWhenExhausted && !was_exhausted &&
      core_.Exhausted() && !tolerance_.IsZero()) {
    BumpReinit();
    RunInitialization();
  }
}

}  // namespace asf
