#include "engine/protocol_factory.h"

#include "protocol/ft_nrp.h"
#include "protocol/ft_rp.h"
#include "protocol/no_filter.h"
#include "protocol/rtp.h"
#include "protocol/zt_nrp.h"
#include "protocol/zt_rp.h"

namespace asf {

Status CheckProtocolServes(ProtocolKind protocol, QuerySpec::Type type) {
  const bool is_range = type == QuerySpec::Type::kRange;
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
  return Status::OK();
}

Status ValidateDeployment(const QueryDeployment& deployment,
                          std::size_t num_streams) {
  const QuerySpec& query = deployment.query;
  const ProtocolKind protocol = deployment.protocol;
  ASF_RETURN_IF_ERROR(query.Validate());
  ASF_RETURN_IF_ERROR(CheckProtocolServes(protocol, query.type));
  if (query.type == QuerySpec::Type::kRank && query.k > num_streams) {
    return Status::InvalidArgument(
        "rank requirement k exceeds the stream population");
  }
  // RTP judges ranks up to k + r; a slack beyond the population is
  // meaningless and, near 2^64, wraps that sum.
  if (protocol == ProtocolKind::kRtp && deployment.rank_r > num_streams) {
    return Status::InvalidArgument(
        "rank slack r exceeds the stream population");
  }
  if (protocol == ProtocolKind::kFtNrp || protocol == ProtocolKind::kFtRp) {
    ASF_RETURN_IF_ERROR(deployment.fraction.Validate());
  }
  return Status::OK();
}

std::unique_ptr<Protocol> MakeProtocol(const QuerySpec& query,
                                       ProtocolKind protocol,
                                       std::size_t rank_r,
                                       const FractionTolerance& fraction,
                                       const FtOptions& ft, ServerContext* ctx,
                                       Rng* rng) {
  switch (protocol) {
    case ProtocolKind::kNoFilter:
      if (query.type == QuerySpec::Type::kRange) {
        return std::make_unique<NoFilterProtocol>(ctx, query.MakeRange());
      }
      return std::make_unique<NoFilterProtocol>(ctx, query.MakeRank());
    case ProtocolKind::kZtNrp:
      return std::make_unique<ZtNrp>(ctx, query.MakeRange());
    case ProtocolKind::kFtNrp:
      return std::make_unique<FtNrp>(ctx, query.MakeRange(), fraction, ft,
                                     rng);
    case ProtocolKind::kRtp:
      return std::make_unique<Rtp>(ctx, query.MakeRank(), rank_r);
    case ProtocolKind::kZtRp:
      return std::make_unique<ZtRp>(ctx, query.MakeRank());
    case ProtocolKind::kFtRp:
      return std::make_unique<FtRp>(ctx, query.MakeRank(), fraction, ft, rng);
  }
  ASF_CHECK(false);
  return nullptr;
}

OracleCheck JudgeAnswer(const QuerySpec& query, ProtocolKind protocol,
                        std::size_t rank_r, const FractionTolerance& fraction,
                        const std::vector<Value>& truth,
                        const AnswerSet& answer) {
  switch (protocol) {
    case ProtocolKind::kNoFilter:
      if (query.type == QuerySpec::Type::kRange) {
        return Oracle::CheckRangeFraction(truth, query.MakeRange(), answer,
                                          FractionTolerance{0, 0});
      }
      return Oracle::CheckRankTolerance(truth, query.MakeRank(), answer,
                                        RankTolerance{query.k, 0});
    case ProtocolKind::kZtNrp:
      return Oracle::CheckRangeFraction(truth, query.MakeRange(), answer,
                                        FractionTolerance{0, 0});
    case ProtocolKind::kFtNrp:
      return Oracle::CheckRangeFraction(truth, query.MakeRange(), answer,
                                        fraction);
    case ProtocolKind::kRtp:
      return Oracle::CheckRankTolerance(truth, query.MakeRank(), answer,
                                        RankTolerance{query.k, rank_r});
    case ProtocolKind::kZtRp:
      return Oracle::CheckRankTolerance(truth, query.MakeRank(), answer,
                                        RankTolerance{query.k, 0});
    case ProtocolKind::kFtRp:
      return Oracle::CheckRankFraction(truth, query.MakeRank(), answer,
                                       fraction);
  }
  ASF_CHECK(false);
  return OracleCheck{};
}

}  // namespace asf
