#ifndef ASF_GEO_RANGE2D_H_
#define ASF_GEO_RANGE2D_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "geo/plane_filter.h"
#include "net/message_stats.h"
#include "protocol/ft_core.h"
#include "protocol/options.h"
#include "query/answer_set.h"
#include "tolerance/tolerance.h"

/// \file
/// FT-NRP in the plane: the fraction-tolerance protocol for 2-D rectangle
/// range queries (paper §7's multi-dimensional generalization of §5.1.1).
/// It runs on the 1-D protocol's own state machine, BasicFractionFilterCore
/// (protocol/ft_core.h) — budgets from Equations 3–4, silent filters placed
/// by the boundary-nearest or random heuristic, the `count` ledger, and
/// Fix_Error — instantiated over a plane context whose region is a Rect
/// and whose filter is a PlaneConstraint. Zero tolerance degenerates to the
/// 2-D ZT-NRP exactly as in 1-D.

namespace asf {

/// The server side of a 2-D fraction-tolerant rectangle query.
class FtRange2d {
 public:
  /// Network primitives, supplied by the harness that owns the plane
  /// population and its filter bank (messages are accounted here).
  struct Transport {
    /// Returns the stream's current position and syncs its filter
    /// reference (one request + one response).
    std::function<Point2(StreamId)> probe;
    /// Installs a constraint at the stream (one message).
    std::function<void(StreamId, const PlaneConstraint&)> deploy;
  };

  FtRange2d(std::size_t num_streams, const Rect& query,
            const FractionTolerance& tolerance,
            SelectionHeuristic heuristic, Rng* rng, Transport transport,
            MessageStats* stats);
  // The core points at this object's own context.
  FtRange2d(const FtRange2d&) = delete;
  FtRange2d& operator=(const FtRange2d&) = delete;

  /// Probes every stream, derives the silent-filter budgets from the
  /// initial answer, and installs all constraints.
  void Initialize();

  /// Handles one reported move from a rect-filtered stream.
  void OnUpdate(StreamId id, const Point2& p);

  const AnswerSet& answer() const { return core_.answer(); }
  const Rect& query() const { return query_; }
  std::size_t n_plus() const { return core_.n_plus(); }
  std::size_t n_minus() const { return core_.n_minus(); }
  std::uint64_t fix_error_runs() const { return core_.fix_error_runs(); }

  /// Judges the current answer against true positions (the 2-D oracle).
  static FractionCounts CountErrors(const std::vector<Point2>& truth,
                                    const Rect& query,
                                    const AnswerSet& answer);

 private:
  /// The server's view of the plane: a position cache plus counted
  /// probe/deploy over the Transport. Probes are never lost and updates
  /// arrive instantly (delayed_delivery() is false).
  class PlaneContext {
   public:
    using Point = Point2;
    using Region = Rect;
    using Constraint = PlaneConstraint;

    PlaneContext(std::size_t num_streams, Transport transport,
                 MessageStats* stats);

    std::size_t num_streams() const { return cache_.size(); }
    const Point2& cached(StreamId id) const { return cache_[id]; }
    void RecordReport(StreamId id, const Point2& p) { cache_[id] = p; }
    Point2 Probe(StreamId id);
    void Deploy(StreamId id, const PlaneConstraint& constraint);
    bool delayed_delivery() const { return false; }

   private:
    Transport transport_;
    MessageStats* stats_;
    std::vector<Point2> cache_;  ///< last known position per stream
  };

  Rect query_;
  FractionTolerance tolerance_;
  PlaneContext ctx_;
  BasicFractionFilterCore<PlaneContext> core_;
};

}  // namespace asf

#endif  // ASF_GEO_RANGE2D_H_
