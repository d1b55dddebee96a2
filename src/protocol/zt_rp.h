#ifndef ASF_PROTOCOL_ZT_RP_H_
#define ASF_PROTOCOL_ZT_RP_H_

#include "protocol/protocol.h"
#include "query/query.h"
#include "query/ranking.h"

/// \file
/// ZT-RP — the zero-tolerance k-NN protocol (paper §5.2.1). The k-NN query
/// is viewed as a range query over the bound R that encloses exactly the k
/// nearest streams; R is deployed to every stream. "Since no error is
/// allowed, if any object enters or leaves R, we have to recompute R so
/// that R still encloses the k nearest objects. In addition, the new R has
/// to be announced to every stream." That full recompute-and-broadcast on
/// every crossing is the protocol's deliberate weakness — FT-RP exists to
/// fix it — and we implement it faithfully.

namespace asf {

class ZtRp : public Protocol {
 public:
  ZtRp(ServerContext* ctx, const RankQuery& query);

  std::string_view name() const override { return "ZT-RP"; }

  void Initialize() override;
  const AnswerSet& answer() const override { return answer_; }

  /// The currently deployed bound R.
  const Interval& bound() const { return bound_; }

 protected:
  void OnUpdate(StreamId id, Value v) override;

 private:
  /// Probes all streams, rebuilds A and R, redeploys everywhere.
  void Recompute();

  RankQuery query_;
  AnswerSet answer_;
  Interval bound_ = Interval::Always();
};

}  // namespace asf

#endif  // ASF_PROTOCOL_ZT_RP_H_
