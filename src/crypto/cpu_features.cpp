#include "crypto/cpu_features.h"

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace ibsec::crypto {
namespace {

CpuFeatures probe() {
  CpuFeatures features;
#if defined(__x86_64__)
  // Bit positions from the Intel SDM, vol. 2A, CPUID leaf 1 ECX and leaf 7
  // sub-leaf 0 EBX.
  constexpr unsigned kLeaf1EcxPclmulqdq = 1u << 1;
  constexpr unsigned kLeaf1EcxSsse3 = 1u << 9;
  constexpr unsigned kLeaf7EbxSha = 1u << 29;
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  bool ssse3 = false;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0) {
    features.pclmulqdq = (ecx & kLeaf1EcxPclmulqdq) != 0;
    ssse3 = (ecx & kLeaf1EcxSsse3) != 0;
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
    features.sha_ni = ssse3 && (ebx & kLeaf7EbxSha) != 0;
  }
#endif
  return features;
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures features = probe();
  return features;
}

}  // namespace ibsec::crypto
