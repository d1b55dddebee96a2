#ifndef ASF_PROTOCOL_ZT_NRP_H_
#define ASF_PROTOCOL_ZT_NRP_H_

#include "protocol/protocol.h"
#include "query/query.h"

/// \file
/// ZT-NRP — the zero-tolerance protocol for non-rank-based (range) queries
/// (paper §5.1): "each stream filter is assigned the constraint [l, u] at
/// the beginning. Any violation in a filter has to be reported to the
/// server ... essentially each filter evaluates the range query on the
/// stream it is responsible for." The answer is exact at all times; the
/// saving over NoFilter is that value changes that do not cross the range
/// boundary are never transmitted.

namespace asf {

class ZtNrp : public Protocol {
 public:
  ZtNrp(ServerContext* ctx, const RangeQuery& query);

  std::string_view name() const override { return "ZT-NRP"; }

  void Initialize() override;
  const AnswerSet& answer() const override { return answer_; }

 protected:
  void OnUpdate(StreamId id, Value v) override;

 private:
  RangeQuery query_;
  AnswerSet answer_;
};

}  // namespace asf

#endif  // ASF_PROTOCOL_ZT_NRP_H_
