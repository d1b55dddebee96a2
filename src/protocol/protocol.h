#ifndef ASF_PROTOCOL_PROTOCOL_H_
#define ASF_PROTOCOL_PROTOCOL_H_

#include <cstdint>
#include <string_view>

#include "common/check.h"
#include "common/types.h"
#include "protocol/server_context.h"
#include "query/answer_set.h"

/// \file
/// Base interface of the server-side filter-bound protocols (paper §4–§5).
/// A protocol owns the continuous query's answer set A(t) and reacts to
/// exactly two stimuli: its one-time initialization at query start, and the
/// arrival of a filtered value update. Everything else it does (probing,
/// constraint deployment) flows through the ServerContext, which accounts
/// every message.

namespace asf {

/// A server-side constraint-assignment + query-maintenance protocol.
class Protocol {
 public:
  explicit Protocol(ServerContext* ctx) : ctx_(ctx) { ASF_CHECK(ctx); }
  virtual ~Protocol() = default;

  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  /// Short stable protocol name ("RTP", "FT-NRP", ...).
  virtual std::string_view name() const = 0;

  /// Runs the Initialization phase at query start (messages are accounted
  /// under whatever phase the engine set — kInit for the first run).
  virtual void Initialize() = 0;

  /// Delivers a value update that passed the stream's filter. Records the
  /// report in the server cache, then runs the protocol's Maintenance
  /// logic.
  void HandleUpdate(StreamId id, Value v) {
    ctx_->RecordReport(id, v);
    OnUpdate(id, v);
  }

  /// The current answer set A(t).
  virtual const AnswerSet& answer() const = 0;

  /// Number of times the protocol fell back to a full re-initialization
  /// (probe-all + redeploy) after query start.
  std::uint64_t reinit_count() const { return reinits_; }

  ServerContext* ctx() { return ctx_; }
  const ServerContext* ctx() const { return ctx_; }

 protected:
  /// Maintenance-phase reaction to one reported update.
  virtual void OnUpdate(StreamId id, Value v) = 0;

  void BumpReinit() { ++reinits_; }

  ServerContext* ctx_;

 private:
  std::uint64_t reinits_ = 0;
};

}  // namespace asf

#endif  // ASF_PROTOCOL_PROTOCOL_H_
