#ifndef ASF_ENGINE_PROTOCOL_FACTORY_H_
#define ASF_ENGINE_PROTOCOL_FACTORY_H_

#include <memory>

#include "common/rng.h"
#include "common/status.h"
#include "engine/config.h"
#include "protocol/protocol.h"
#include "tolerance/oracle.h"

/// \file
/// What the engine knows about each protocol: which queries it can serve
/// (CheckProtocolServes, and ValidateDeployment on top of it, shared by
/// SystemConfig::Validate, MultiQueryConfig::Validate and
/// ChurnSpec::Validate), how to build it, and which tolerance its answers
/// are judged under (both used per query slot, engine/sim_core.cc).

namespace asf {

/// Checks that `protocol` serves queries of class `type`: ZT-NRP and
/// FT-NRP serve range queries, RTP, ZT-RP and FT-RP rank queries, and
/// no-filter both. The one protocol/query-class table.
Status CheckProtocolServes(ProtocolKind protocol, QuerySpec::Type type);

/// Checks that the deployment's protocol can serve its query with its
/// tolerance over `num_streams` sources (query-class match, k ≤ n, RTP's
/// rank slack r ≤ n, tolerance bounds).
Status ValidateDeployment(const QueryDeployment& deployment,
                          std::size_t num_streams);

/// Builds the protocol. `ctx` and `rng` must outlive it. The deployment
/// must have passed ValidateDeployment.
std::unique_ptr<Protocol> MakeProtocol(const QuerySpec& query,
                                       ProtocolKind protocol,
                                       std::size_t rank_r,
                                       const FractionTolerance& fraction,
                                       const FtOptions& ft, ServerContext* ctx,
                                       Rng* rng);

/// Judges `answer` against the true values under the tolerance semantics
/// the protocol promises (zero tolerance for the exact protocols, rank
/// tolerance for RTP, fraction tolerance for FT-NRP / FT-RP).
OracleCheck JudgeAnswer(const QuerySpec& query, ProtocolKind protocol,
                        std::size_t rank_r, const FractionTolerance& fraction,
                        const std::vector<Value>& truth,
                        const AnswerSet& answer);

}  // namespace asf

#endif  // ASF_ENGINE_PROTOCOL_FACTORY_H_
