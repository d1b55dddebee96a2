#ifndef ASF_PROTOCOL_FT_NRP_H_
#define ASF_PROTOCOL_FT_NRP_H_

#include "common/rng.h"
#include "protocol/ft_core.h"
#include "protocol/protocol.h"
#include "query/query.h"
#include "tolerance/tolerance.h"

/// \file
/// FT-NRP — the fraction-based tolerance protocol for range queries (paper
/// §5.1.1, Figure 7). Out of the initial answer A(t0), E^max+ = ⌊|A|ε+⌋
/// streams get the silent [−∞,∞] filter and, of the non-answers, E^max− =
/// ⌊|A| ε−(1−ε+)/(1−ε−)⌋ get the silent [∞,∞] filter; both populations are
/// effectively shut down (a battery saving the paper highlights for sensor
/// networks). Everyone else runs the exact range filter, and Fix_Error
/// restores the F+/F− guarantees whenever removals outpace insertions.

namespace asf {

class FtNrp : public Protocol {
 public:
  /// `rng` is consumed by the kRandom placement heuristic (may be null for
  /// kBoundaryNearest).
  FtNrp(ServerContext* ctx, const RangeQuery& query,
        const FractionTolerance& tolerance, const FtOptions& options,
        Rng* rng);

  std::string_view name() const override { return "FT-NRP"; }

  void Initialize() override;
  const AnswerSet& answer() const override { return core_.answer(); }

  const FractionFilterCore& core() const { return core_; }
  const FractionTolerance& tolerance() const { return tolerance_; }

 protected:
  void OnUpdate(StreamId id, Value v) override;

 private:
  /// Probe-all + filter installation with fresh budgets.
  void RunInitialization();

  RangeQuery query_;
  FractionTolerance tolerance_;
  FtOptions options_;
  FractionFilterCore core_;
};

}  // namespace asf

#endif  // ASF_PROTOCOL_FT_NRP_H_
