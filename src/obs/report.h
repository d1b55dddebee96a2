#ifndef ASF_OBS_REPORT_H_
#define ASF_OBS_REPORT_H_

#include <string>
#include <utility>
#include <vector>

#include "engine/multi_system.h"
#include "net/network_model.h"

/// \file
/// The one renderer of a run's record (DESIGN.md §14): `asf_run`'s text
/// report and its --bench-json metrics, for one query or a churned
/// population alike.

namespace asf {
namespace obs {

/// Every numeric field the record's field list (engine/record_fields.h)
/// names, as (name, value): "queries" (the count), each query's record
/// under "queries[i].", the run totals ("updates_generated",
/// "net.crossings", ...), then the telemetry ("wall_seconds",
/// "dispatch.*", "spill.*").
std::vector<std::pair<std::string, double>> RunMetrics(
    const MultiQueryResult& result);

/// A table with one row per query, then one of the run totals. Net rows
/// appear only when `net` delays delivery, fault rows only when it also
/// injects faults, spill rows only when the run spilled.
std::string RunReport(const MultiQueryResult& result, const NetConfig& net);

}  // namespace obs
}  // namespace asf

#endif  // ASF_OBS_REPORT_H_
