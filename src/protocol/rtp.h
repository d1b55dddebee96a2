#ifndef ASF_PROTOCOL_RTP_H_
#define ASF_PROTOCOL_RTP_H_

#include <cstdint>
#include <vector>

#include "protocol/protocol.h"
#include "query/query.h"
#include "query/ranking.h"
#include "tolerance/tolerance.h"

/// \file
/// RTP — the Rank-based Tolerance Protocol for k-NN / top-k queries (paper
/// §4, Figure 5).
///
/// The protocol maintains a closed bound R (an interval in value space; a
/// ball {v : score(v) ≤ d} in score space) positioned halfway between the
/// (k+r)-th and (k+r+1)-st ranked streams, deployed as every stream's
/// filter constraint. The server tracks
///   X(t) — the set of streams currently inside R (|X| ≤ ε = k + r), and
///   A(t) ⊆ X(t) — the k streams reported as the answer.
/// Because every crossing of R is reported, X is exact at all times, and
/// any stream inside R has true rank ≤ |X| ≤ ε, which is precisely
/// Definition 1's requirement for every member of A.
///
/// Maintenance (Figure 5):
///  * Case 1 — a stream in X−A leaves R: drop it from X.
///  * Case 2 — a stream in A leaves R: replace it from X−A if possible;
///    otherwise expand a search region R' through the stale ranking kept
///    from the last full refresh (probing non-answer streams region by
///    region) until at least two candidates respond, then rebuild A, X and
///    a new (clamped; DESIGN.md §4) bound; if even R'_n finds fewer than
///    two, fall back to full re-initialization.
///  * Case 3 — a stream enters R: absorb it into X while |X| < ε;
///    otherwise probe X, shrink R to again hold exactly ε streams, and
///    redeploy.

namespace asf {

class Rtp : public Protocol {
 public:
  Rtp(ServerContext* ctx, const RankQuery& query, std::size_t r);

  std::string_view name() const override { return "RTP"; }

  void Initialize(SimTime t) override;
  const AnswerSet& answer() const override { return answer_; }

  /// ε_k^r = k + r.
  std::size_t max_rank() const { return query_.k() + r_; }

  /// The currently deployed bound R (value space).
  const Interval& bound() const { return bound_; }

  /// Streams the server knows to be inside R.
  const AnswerSet& inside_set() const { return x_; }

  /// Number of Case-2 search-region expansions executed.
  std::uint64_t expansions() const { return expansions_; }

 protected:
  void OnUpdate(StreamId id, Value v, SimTime t) override;

 private:
  /// Probes every stream, rebuilds A/X/R and redeploys (Initialization
  /// phase; also the fallback when expansion fails and the tie fallback).
  void FullRefresh(SimTime t);

  /// Figure 5 Deploy_bound over a fresh full ranking: d halfway between
  /// the ε-th and (ε+1)-st scores. With n ≤ ε the bound is [−∞,∞] and no
  /// stream ever reports.
  void DeployBoundFromRanking(const std::vector<ScoredStream>& ranked);

  /// Case 2, A-member `id` already removed from A and X, X == A: walk the
  /// stale ranking outward (Figure 5 step 4) probing ever larger regions.
  void ExpandSearch(SimTime t);

  /// Case 3 with X full: probe X, rank X ∪ {entrant}, shrink R to the best
  /// ε and redeploy (Figure 5 step 7).
  void ReevaluateBound(StreamId entrant, SimTime t);

  /// The member of X − A with the best (lowest) cached score; kInvalidStream
  /// if X == A.
  StreamId BestSpare() const;

  double CachedScore(StreamId id) const {
    return query_.Score(ctx_->cached(id));
  }

  RankQuery query_;
  std::size_t r_;

  AnswerSet answer_;                  // A(t), |A| = k
  AnswerSet x_;                       // X(t) ⊇ A(t), |X| ≤ k + r
  Interval bound_ = Interval::Always();
  double radius_ = 0;                 // score-space radius of bound_

  /// Scores of all streams, ascending, captured at the last full refresh
  /// ("the old ranking scores kept by the server", Figure 5 step 4(I)).
  std::vector<double> stale_scores_;

  std::uint64_t expansions_ = 0;
};

}  // namespace asf

#endif  // ASF_PROTOCOL_RTP_H_
