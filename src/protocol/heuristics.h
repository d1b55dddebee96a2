#ifndef ASF_PROTOCOL_HEURISTICS_H_
#define ASF_PROTOCOL_HEURISTICS_H_

#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "protocol/options.h"

/// \file
/// Silent-filter placement heuristics (paper §6.2 / Figure 14).

namespace asf {

/// Picks up to `count` stream ids out of `candidates` to receive silent
/// filters.
///
/// * kRandom: a uniform random subset (order randomized).
/// * kBoundaryNearest: the `count` candidates with the smallest `priority`
///   value, ascending (ties by id). Callers pass the distance from the
///   stream's cached value to the range boundary as the priority; it is
///   evaluated once per candidate.
///
/// The returned order is meaningful: later protocols consume the list
/// back-to-front when Fix_Error retires filters, so the front holds the
/// most boundary-prone streams.
std::vector<StreamId> SelectFilterHolders(
    const std::vector<StreamId>& candidates, std::size_t count,
    SelectionHeuristic heuristic,
    const std::function<double(StreamId)>& priority, Rng* rng);

}  // namespace asf

#endif  // ASF_PROTOCOL_HEURISTICS_H_
