#ifndef ASF_PROTOCOL_FT_RP_H_
#define ASF_PROTOCOL_FT_RP_H_

#include "common/rng.h"
#include "protocol/ft_core.h"
#include "protocol/protocol.h"
#include "query/query.h"
#include "query/ranking.h"
#include "tolerance/tolerance.h"

/// \file
/// FT-RP — the fraction-based tolerance protocol for k-NN queries (paper
/// §5.2.2–5.2.3). The k-NN query is transformed into a range query over
/// the bound R that initially encloses the k nearest streams, and FT-NRP's
/// machinery runs on that range — but with inner tolerances (ρ+, ρ−)
/// derived from the user's (ε+, ε−) through Equation 16, because silent
/// filters cause *both* false positives and false negatives for a ranked
/// answer (Figure 8): kρ+ false-positive filters and kρ− false-negative
/// filters are handed out.
///
/// R is used only as an estimate of the k nearest neighbors: unlike ZT-RP
/// it is NOT recomputed on every crossing, only when the answer size
/// leaves an admissible band around the paper's k(1 − ε−) ≤ |A(t)| ≤
/// k/(1 − ε+) (Equations 7/9) — R has become "too tight" or "too loose"
/// (§5.2.3).
///
/// Band tightening (DESIGN.md §4): the paper's band bounds the false
/// positives caused by answer-size drift alone; silent-filter drift can
/// add up to n− further false positives (a false-negative-filtered stream
/// slipping into the top-k displaces an answered stream) and n+ further
/// false negatives. We therefore shrink the band to
///     k(1 − ε−) + n+  ≤  |A(t)|  ≤  (k − n−)/(1 − ε+),
/// which restores F+ ≤ ε+ ∧ F− ≤ ε− under combined drift. With zero
/// silent filters this is exactly the paper's band, and the band always
/// contains k (so initialization never immediately re-triggers).

namespace asf {

class FtRp : public Protocol {
 public:
  FtRp(ServerContext* ctx, const RankQuery& query,
       const FractionTolerance& tolerance, const FtOptions& options,
       Rng* rng);

  std::string_view name() const override { return "FT-RP"; }

  void Initialize() override;
  const AnswerSet& answer() const override { return core_.answer(); }

  /// The inner FT-NRP tolerances derived via Equation 16.
  const RhoPair& rho() const { return rho_; }

  /// The admissible answer-size band in effect (paper Equations 7/9,
  /// tightened by the installed silent-filter counts; see the class
  /// comment).
  const KnnAnswerBounds& answer_bounds() const { return bounds_; }

  const FractionFilterCore& core() const { return core_; }

  /// The current estimate bound R.
  const Interval& bound() const { return core_.range(); }

 protected:
  void OnUpdate(StreamId id, Value v) override;

 private:
  /// Probe-all, recompute R around the k nearest, reinstall all filters.
  void Refresh();

  RankQuery query_;
  FractionTolerance tolerance_;
  FtOptions options_;
  RhoPair rho_;
  KnnAnswerBounds bounds_;
  FractionFilterCore core_;
  std::vector<ScoredStream> rank_scratch_;  ///< Refresh's selection buffer
};

}  // namespace asf

#endif  // ASF_PROTOCOL_FT_RP_H_
