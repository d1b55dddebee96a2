#include "common/simd.h"

#include <cstdio>
#include <cstdlib>

namespace asf {
namespace simd {

// These report the backend the *library* (and therefore the FilterArena
// crossing kernel) was compiled with. The header constants describe the
// including TU, which may be built without the library's vector flags —
// benches and tools must use these functions for attribution.
const char* KernelBackend() { return kBackend; }
int KernelLanes() { return kLanes; }

void AssertHostSupportsKernel() {
#if defined(__x86_64__) && defined(__AVX2__)
  // The library was compiled with vector codegen (CMake ASF_NATIVE_SIMD);
  // fail with a diagnosis instead of SIGILL on the first dispatch when
  // the host CPU predates the ISA (pre-Haswell, low-end N-series, …).
  static const bool supported = [] {
    const bool ok = __builtin_cpu_supports("avx2");
    if (!ok) {
      std::fprintf(stderr,
                   "asf: this build's filter kernel requires %s, which "
                   "this CPU lacks — rebuild with -DASF_NATIVE_SIMD=OFF "
                   "for the portable scalar kernel\n",
                   kBackend);
      std::abort();
    }
    return ok;
  }();
  (void)supported;
#endif
}

}  // namespace simd
}  // namespace asf
