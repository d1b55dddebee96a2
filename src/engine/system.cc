#include "engine/system.h"

#include <utility>

#include "engine/multi_system.h"

namespace asf {

Result<RunResult> RunSystem(const SystemConfig& config) {
  MultiQueryConfig multi;
  static_cast<RunOptions&>(multi) = config;
  multi.queries.push_back(config.Deployment());
  ASF_ASSIGN_OR_RETURN(MultiQueryResult run, RunMultiQuerySystem(multi));

  RunResult result;
  static_cast<QueryRunStats&>(result) = std::move(run.queries.front());
  static_cast<RunTotals&>(result) = std::move(run);
  return result;
}

}  // namespace asf
