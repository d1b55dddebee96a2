#ifndef ASF_ENGINE_SYSTEM_H_
#define ASF_ENGINE_SYSTEM_H_

#include <memory>

#include "common/result.h"
#include "engine/config.h"
#include "engine/run_result.h"

/// \file
/// The top-level entry point: wire streams, filters, channel, server and
/// protocol together (paper Figure 3) and run the simulation.
///
/// Quickstart:
/// \code
///   asf::SystemConfig config;
///   config.source = asf::SourceSpec::Walk({.num_streams = 1000});
///   config.query = asf::QuerySpec::Range(400, 600);
///   config.protocol = asf::ProtocolKind::kFtNrp;
///   config.fraction = {.eps_plus = 0.2, .eps_minus = 0.2};
///   config.duration = 2000;
///   auto result = asf::RunSystem(config);
///   if (result.ok()) std::cout << result->MaintenanceMessages() << "\n";
/// \endcode

namespace asf {

/// Builds and runs one simulated system: the one-query deployment
/// SystemConfig::Deployment() describes, run through RunMultiQuerySystem.
/// Returns that query's record plus the run totals, or an error status for
/// an invalid configuration (the checks of SystemConfig::Validate).
Result<RunResult> RunSystem(const SystemConfig& config);

}  // namespace asf

#endif  // ASF_ENGINE_SYSTEM_H_
