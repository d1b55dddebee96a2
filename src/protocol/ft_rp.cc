#include "protocol/ft_rp.h"

#include <cmath>

namespace asf {

FtRp::FtRp(ServerContext* ctx, const RankQuery& query,
           const FractionTolerance& tolerance, const FtOptions& options,
           Rng* rng)
    : Protocol(ctx),
      query_(query),
      tolerance_(tolerance),
      options_(options),
      rho_(SolveRho(tolerance, options.rho)),
      core_(ctx, options.heuristic, rng) {
  ASF_CHECK_MSG(tolerance.Validate().ok(), "invalid fraction tolerance");
  ASF_CHECK_MSG(query.k() <= ctx->num_streams(),
                "rank requirement k exceeds stream population");
}

void FtRp::Refresh() {
  ctx_->ProbeAll();
  Interval bound;
  if (ctx_->cache().size() <= query_.k()) {
    bound = Interval::Always();
  } else {
    // The tightest deployable bound enclosing the k-th nearest neighbor:
    // halfway to the (k+1)-st (§5.2.1).
    const KthScores scores =
        KthAndNextScores(query_, ctx_->cache(), query_.k(), &rank_scratch_);
    bound = query_.ScoreBall((scores.kth + scores.next) / 2.0);
  }
  // kρ+ false-positive and kρ− false-negative filters (§5.2.2; floors keep
  // the integer counts within the real-valued budgets).
  const std::size_t n_plus = static_cast<std::size_t>(
      std::floor(static_cast<double>(query_.k()) * rho_.rho_plus));
  const std::size_t n_minus = static_cast<std::size_t>(
      std::floor(static_cast<double>(query_.k()) * rho_.rho_minus));
  core_.InstallFilters(bound, n_plus, n_minus);
  // The answer-size band, tightened by the installed silent-filter counts
  // so that size drift and silent drift cannot jointly exceed the
  // tolerances (class comment / DESIGN.md §4).
  const KnnAnswerBounds paper = ComputeKnnAnswerBounds(query_.k(), tolerance_);
  bounds_.lo = paper.lo + static_cast<double>(n_plus);
  bounds_.hi =
      (static_cast<double>(query_.k()) - static_cast<double>(n_minus)) /
      (1.0 - tolerance_.eps_plus);
  ASF_DCHECK(bounds_.Contains(query_.k()));
}

void FtRp::Initialize() { Refresh(); }

void FtRp::OnUpdate(StreamId id, Value v) {
  core_.OnRangeUpdate(id, v);
  // §5.2.3: R stays put while the answer size remains inside the band;
  // outside it, R is "too tight" or "too loose" and must be recomputed.
  const double size = static_cast<double>(core_.answer().size());
  if (size > bounds_.hi || size < bounds_.lo) {
    BumpReinit();
    Refresh();
  }
}

}  // namespace asf
