#include "engine/config.h"

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
      if (trace == nullptr) {
        return Status::InvalidArgument("trace source needs a trace");
      }
      return trace->Validate();
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

Status SystemConfig::Validate() const {
  ASF_RETURN_IF_ERROR(source.Validate());
  ASF_RETURN_IF_ERROR(query.Validate());
  if (duration <= 0) return Status::InvalidArgument("duration must be > 0");
  if (query_start < 0 || query_start >= duration) {
    return Status::InvalidArgument("query_start must lie in [0, duration)");
  }
  if (oracle.sample_interval < 0) {
    return Status::InvalidArgument("oracle sample_interval must be >= 0");
  }

  const bool is_range = query.type == QuerySpec::Type::kRange;
  switch (protocol) {
    case ProtocolKind::kNoFilter:
      break;  // supports both query classes
    case ProtocolKind::kZtNrp:
    case ProtocolKind::kFtNrp:
      if (!is_range) {
        return Status::InvalidArgument(
            "ZT-NRP/FT-NRP handle range (non-rank-based) queries only");
      }
      break;
    case ProtocolKind::kRtp:
    case ProtocolKind::kZtRp:
    case ProtocolKind::kFtRp:
      if (is_range) {
        return Status::InvalidArgument(
            "RTP/ZT-RP/FT-RP handle rank-based queries only");
      }
      break;
  }
  if (query.type == QuerySpec::Type::kRank &&
      query.k > source.NumStreams()) {
    return Status::InvalidArgument(
        "rank requirement k exceeds the stream population");
  }
  if (protocol == ProtocolKind::kFtNrp || protocol == ProtocolKind::kFtRp) {
    ASF_RETURN_IF_ERROR(fraction.Validate());
  }
  ASF_RETURN_IF_ERROR(net.Validate());
  ASF_RETURN_IF_ERROR(spill.Validate());
  return Status::OK();
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
