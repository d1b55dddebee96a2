#include "protocol/rtp.h"

#include <algorithm>

namespace asf {

Rtp::Rtp(ServerContext* ctx, const RankQuery& query, std::size_t r)
    : Protocol(ctx), query_(query), r_(r) {
  ASF_CHECK_MSG(query.k() <= ctx->num_streams(),
                "rank requirement k exceeds stream population");
}

void Rtp::DeployBoundFromRanking(const std::vector<ScoredStream>& ranked) {
  const std::size_t eps = max_rank();
  if (ranked.size() <= eps) {
    // Every size-k answer trivially ranks within ε; silence everyone.
    radius_ = kInf;
    bound_ = Interval::Always();
  } else {
    // Deploy_bound: d halfway between the ε-th and (ε+1)-st scores.
    radius_ = (ranked[eps - 1].score + ranked[eps].score) / 2.0;
    bound_ = query_.ScoreBall(radius_);
  }
  ctx_->DeployAll(FilterConstraint::Range(bound_));
}

void Rtp::FullRefresh(SimTime t) {
  ctx_->ProbeAll(t);
  const std::vector<ScoredStream> ranked = RankAll(query_, ctx_->cache());
  const std::size_t eps = max_rank();
  answer_.Clear();
  x_.Clear();
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (i < query_.k()) answer_.Insert(ranked[i].id);
    if (i < eps) x_.Insert(ranked[i].id);
  }
  stale_scores_.resize(ranked.size());
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    stale_scores_[i] = ranked[i].score;
  }
  DeployBoundFromRanking(ranked);
}

void Rtp::Initialize(SimTime t) { FullRefresh(t); }

StreamId Rtp::BestSpare() const {
  StreamId best = kInvalidStream;
  double best_score = kInf;
  for (StreamId id : x_) {
    if (answer_.Contains(id)) continue;
    const double s = CachedScore(id);
    if (best == kInvalidStream || s < best_score ||
        (s == best_score && id < best)) {
      best = id;
      best_score = s;
    }
  }
  return best;
}

void Rtp::OnUpdate(StreamId id, Value v, SimTime t) {
  if (bound_.Contains(v)) {
    // Case 3: the stream entered R. Under instant delivery a stream the
    // server believes is inside can only report a departure, so `id`
    // must be outside X; a delayed report can re-state membership the
    // server already tracks — the cache refresh (HandleUpdate) is then
    // the whole effect, and X must not double-count the entrant
    // (DESIGN.md §9).
    ASF_DCHECK(!x_.Contains(id) || ctx_->delayed_delivery());
    if (x_.Contains(id)) return;
    if (x_.size() < max_rank()) {
      x_.Insert(id);  // Figure 5 step 6: |X| stays ≤ ε
    } else {
      ReevaluateBound(id, t);  // step 7
    }
    return;
  }
  // The stream left R.
  if (!answer_.Contains(id)) {
    // Case 1: a spare member of X - A left; X just shrinks. A leaver the
    // server never tracked can only arise from a score tie exactly on the
    // deployed boundary (the bound midpoint coincides with a stream's
    // score); ignoring it keeps the server's belief consistent.
    x_.Erase(id);
    return;
  }
  // Case 2: an answer member left R.
  answer_.Erase(id);
  x_.Erase(id);
  const StreamId spare = BestSpare();
  if (spare != kInvalidStream) {
    // Step 3: promote the best-ranked spare; any stream inside R has true
    // rank <= |X| <= ε, so the tolerance holds.
    answer_.Insert(spare);
    return;
  }
  // Step 4: X == A with only k-1 members left; hunt for candidates.
  ExpandSearch(t);
}

void Rtp::ExpandSearch(SimTime t) {
  ++expansions_;
  const std::size_t eps = max_rank();
  const std::size_t n = ctx_->num_streams();
  // Streams that responded to some region probe this round (their cache
  // entries are fresh and inside the latest region R').
  AnswerSet responded;

  for (std::size_t j = eps + 1; j <= n; ++j) {
    // d' = score of the j-th ranked stream at the last full refresh
    // ("old ranking scores kept by the server").
    const double d_prime = stale_scores_[j - 1];
    const Interval r_prime = query_.ScoreBall(d_prime);
    // Probe every stream not in A that has not already responded. A
    // responder to a previous (smaller) region is inside this one too.
    std::vector<StreamId> targets;
    for (StreamId s = 0; s < n; ++s) {
      if (answer_.Contains(s) || responded.Contains(s)) continue;
      targets.push_back(s);
    }
    for (StreamId s : ctx_->RegionProbeGroup(targets, r_prime, t)) {
      responded.Insert(s);
    }
    if (responded.size() < 2) continue;  // Figure 5 step 4(I)(iv)

    // Rank the candidate pool U by fresh scores.
    const std::vector<StreamId> u_ids = responded.ToSortedVector();
    const std::vector<ScoredStream> ranked_u =
        RankSubset(query_, ctx_->cache(), u_ids);
    // (iv)(a): the nearest candidate completes A back to k members.
    answer_.Insert(ranked_u[0].id);
    // (iv)(b): X = A plus the (r+1) nearest candidates.
    x_.Clear();
    for (StreamId a : answer_) x_.Insert(a);
    const std::size_t extra = std::min(r_ + 1, ranked_u.size());
    for (std::size_t i = 0; i < extra; ++i) x_.Insert(ranked_u[i].id);
    ASF_DCHECK(x_.size() <= eps);

    // New bound: halfway between the worst candidate kept in X and the
    // next responder's score, clamped inside R' so that streams that never
    // responded (hence lie outside R') are provably outside the new bound
    // (DESIGN.md §4). A members' scores are below the old radius <= all
    // candidate scores, so A stays inside. When every responder is kept,
    // R' itself is the correct bound: all of X lies within it and every
    // non-responder lies beyond it.
    const double worst_kept = ranked_u[extra - 1].score;
    if (ranked_u.size() > extra) {
      const double next_score = ranked_u[extra].score;
      if (next_score == worst_kept) {
        // Boundary tie: a candidate we meant to exclude sits exactly where
        // the bound would fall. Degenerate and rare; resolve exactly.
        FullRefresh(t);
        BumpReinit();
        return;
      }
      radius_ = std::min((worst_kept + next_score) / 2.0, d_prime);
    } else {
      radius_ = d_prime;
    }
    bound_ = query_.ScoreBall(radius_);
    ctx_->DeployAll(FilterConstraint::Range(bound_));
    return;
  }
  // Step 5: even the widest region yielded fewer than two candidates.
  BumpReinit();
  FullRefresh(t);
}

void Rtp::ReevaluateBound(StreamId entrant, SimTime t) {
  // Figure 5 step 7: refresh exactly the streams inside R (the entrant's
  // value just arrived with its report), probing in ascending id order,
  // then keep the best ε.
  std::vector<StreamId> candidates = x_.ToSortedVector();
  for (StreamId id : candidates) ctx_->Probe(id, t);
  candidates.push_back(entrant);
  const std::vector<ScoredStream> ranked =
      RankSubset(query_, ctx_->cache(), candidates);
  const std::size_t eps = max_rank();
  ASF_DCHECK(ranked.size() == eps + 1);

  if (ranked[eps - 1].score == ranked[eps].score) {
    // The stream to exclude ties the one to keep; no separating bound
    // exists between them. Resolve exactly.
    BumpReinit();
    FullRefresh(t);
    return;
  }

  answer_.Clear();
  x_.Clear();
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (i < query_.k()) answer_.Insert(ranked[i].id);
    if (i < eps) x_.Insert(ranked[i].id);
  }
  radius_ = (ranked[eps - 1].score + ranked[eps].score) / 2.0;
  bound_ = query_.ScoreBall(radius_);
  ctx_->DeployAll(FilterConstraint::Range(bound_));
}

}  // namespace asf
