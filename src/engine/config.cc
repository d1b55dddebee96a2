#include "engine/config.h"

#include <cmath>

#include "engine/protocol_factory.h"

namespace asf {

std::string_view ProtocolKindName(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kNoFilter:
      return "NoFilter";
    case ProtocolKind::kZtNrp:
      return "ZT-NRP";
    case ProtocolKind::kFtNrp:
      return "FT-NRP";
    case ProtocolKind::kRtp:
      return "RTP";
    case ProtocolKind::kZtRp:
      return "ZT-RP";
    case ProtocolKind::kFtRp:
      return "FT-RP";
  }
  return "unknown";
}

RangeQuery QuerySpec::MakeRange() const {
  ASF_CHECK_MSG(type == Type::kRange, "query spec is not a range query");
  return RangeQuery(range_lo, range_hi);
}

RankQuery QuerySpec::MakeRank() const {
  ASF_CHECK_MSG(type == Type::kRank, "query spec is not a rank query");
  switch (rank_kind) {
    case RankKind::kNearest:
      return RankQuery::NearestNeighbors(k, query_point);
    case RankKind::kMax:
      return RankQuery::TopK(k);
    case RankKind::kMin:
      return RankQuery::BottomK(k);
  }
  ASF_CHECK(false);
  return RankQuery::TopK(k);
}

Status QuerySpec::Validate() const {
  switch (type) {
    case Type::kRange:
      if (!(range_lo <= range_hi)) {
        return Status::InvalidArgument("range query needs lo <= hi");
      }
      return Status::OK();
    case Type::kRank:
      if (k == 0) return Status::InvalidArgument("rank query needs k > 0");
      if (rank_kind == RankKind::kNearest &&
          !(query_point == query_point && query_point != kInf &&
            query_point != -kInf)) {
        return Status::InvalidArgument("k-NN query point must be finite");
      }
      return Status::OK();
  }
  return Status::InvalidArgument("unknown query type");
}

Status SourceSpec::Validate() const {
  switch (type) {
    case Type::kRandomWalk:
      return walk.Validate();
    case Type::kTrace:
      // A TraceData is valid by construction: nothing to scan.
      if (trace == nullptr) {
        return Status::InvalidArgument("trace source needs a trace");
      }
      return Status::OK();
    case Type::kCustom:
      if (custom == nullptr) {
        return Status::InvalidArgument("custom source needs a stream set");
      }
      if (custom->size() == 0) {
        return Status::InvalidArgument("custom source has no streams");
      }
      return Status::OK();
  }
  return Status::InvalidArgument("unknown source type");
}

Status RunOptions::Validate() const {
  ASF_RETURN_IF_ERROR(source.Validate());
  // Every test is written so that NaN fails it: a NaN time would pass a
  // plain `x <= 0` rejection and abort inside the engine, and an infinite
  // horizon would never end.
  if (!(duration > 0 && std::isfinite(duration))) {
    return Status::InvalidArgument("duration must be finite and > 0");
  }
  if (!(query_start >= 0 && query_start < duration)) {
    return Status::InvalidArgument("query_start must lie in [0, duration)");
  }
  if (!(oracle.sample_interval >= 0)) {
    return Status::InvalidArgument("oracle sample_interval must be >= 0");
  }
  ASF_RETURN_IF_ERROR(net.Validate());
  ASF_RETURN_IF_ERROR(spill.Validate());
  return Status::OK();
}

QueryDeployment SystemConfig::Deployment() const {
  QueryDeployment deployment;
  deployment.name = std::string(ProtocolKindName(protocol));
  deployment.query = query;
  deployment.protocol = protocol;
  deployment.rank_r = rank_r;
  deployment.fraction = fraction;
  deployment.ft = ft;
  deployment.broadcast = broadcast_counts_as_one
                             ? BroadcastCostModel::kSingleMessage
                             : BroadcastCostModel::kPerRecipient;
  return deployment;
}

Status SystemConfig::Validate() const {
  ASF_RETURN_IF_ERROR(RunOptions::Validate());
  return ValidateDeployment(Deployment(), source.NumStreams());
}

std::unique_ptr<StreamSet> MakeStreams(const SourceSpec& source) {
  switch (source.type) {
    case SourceSpec::Type::kRandomWalk:
      return std::make_unique<RandomWalkStreams>(source.walk);
    case SourceSpec::Type::kTrace:
      return std::make_unique<TraceStreams>(source.trace);
    case SourceSpec::Type::kCustom:
      return nullptr;  // borrowed, not built (see SourceSpec::Custom)
  }
  return nullptr;
}

}  // namespace asf
