#ifndef ASF_METRICS_PROVENANCE_H_
#define ASF_METRICS_PROVENANCE_H_

#include <string>
#include <utility>
#include <vector>

/// \file
/// Build provenance for benchmark artifacts. A BENCH_*.json produced on
/// one machine is only comparable to another if both record what built
/// them: the git revision, the build type (Release numbers are not Debug
/// numbers) and which SIMD backend the filter kernel compiled to.
/// metrics::JsonWriter embeds these as a "provenance" object ahead of
/// "metrics".

namespace asf {

/// (key, value) pairs describing this binary: git_sha, build_type,
/// simd_backend. Values are compile-time constants baked into
/// provenance.cc (see CMakeLists.txt) plus the kernel backend string
/// from common/simd.h.
std::vector<std::pair<std::string, std::string>> BuildProvenance();

}  // namespace asf

#endif  // ASF_METRICS_PROVENANCE_H_
