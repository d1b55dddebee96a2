#include "geo/range2d.h"

#include "tolerance/oracle.h"

namespace asf {

FtRange2d::PlaneContext::PlaneContext(std::size_t num_streams,
                                      Transport transport,
                                      MessageStats* stats)
    : transport_(std::move(transport)), stats_(stats), cache_(num_streams) {
  ASF_CHECK(stats != nullptr);
  ASF_CHECK(transport_.probe != nullptr);
  ASF_CHECK(transport_.deploy != nullptr);
}

Point2 FtRange2d::PlaneContext::Probe(StreamId id) {
  stats_->Count(MessageType::kProbeRequest);
  const Point2 p = transport_.probe(id);
  stats_->Count(MessageType::kProbeResponse);
  cache_[id] = p;
  return p;
}

void FtRange2d::PlaneContext::Deploy(StreamId id,
                                     const PlaneConstraint& constraint) {
  stats_->Count(MessageType::kFilterDeploy);
  transport_.deploy(id, constraint);
}

FtRange2d::FtRange2d(std::size_t num_streams, const Rect& query,
                     const FractionTolerance& tolerance,
                     SelectionHeuristic heuristic, Rng* rng,
                     Transport transport, MessageStats* stats)
    : query_(query),
      tolerance_(tolerance),
      ctx_(num_streams, std::move(transport), stats),
      core_(&ctx_, heuristic, rng) {
  ASF_CHECK(!query.empty());
  ASF_CHECK_MSG(tolerance.Validate().ok(), "invalid fraction tolerance");
}

void FtRange2d::Initialize() {
  // Budgets are derived from the fresh answer size (Equations 3-4), as in
  // FT-NRP's Initialization phase.
  std::size_t answer_size = 0;
  for (StreamId id = 0; id < ctx_.num_streams(); ++id) {
    answer_size += query_.Contains(ctx_.Probe(id));
  }
  core_.InstallFilters(query_,
                       MaxFalsePositiveFilters(answer_size, tolerance_),
                       MaxFalseNegativeFilters(answer_size, tolerance_));
}

void FtRange2d::OnUpdate(StreamId id, const Point2& p) {
  ctx_.RecordReport(id, p);
  core_.OnRangeUpdate(id, p);
}

FractionCounts FtRange2d::CountErrors(const std::vector<Point2>& truth,
                                      const Rect& query,
                                      const AnswerSet& answer) {
  std::vector<bool> satisfies(truth.size());
  for (StreamId id = 0; id < truth.size(); ++id) {
    satisfies[id] = query.Contains(truth[id]);
  }
  return Oracle::CountFractions(satisfies, answer);
}

}  // namespace asf
