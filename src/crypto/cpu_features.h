// The instruction-set extensions the crypto kernels can use, read from
// CPUID once per process.
//
// SHA-1 and the two reflected CRCs each have a portable kernel and an x86-64
// one (SHA-NI, PCLMULQDQ folding). The portable kernels run wherever these
// flags are false: on x86-64 hosts that lack the extension and on every
// other architecture. Both kernels of a primitive return the same bytes, so
// the choice changes speed only, never a simulated outcome. The choice is
// made from what the CPU reports and nothing else; tests reach the portable
// kernels by calling them by name (crc32_portable, crc16_iba_portable,
// Sha1Portable).
#pragma once

namespace ibsec::crypto {

struct CpuFeatures {
  /// SHA extensions plus SSSE3 (the byte shuffle that loads message words).
  bool sha_ni = false;
  /// PCLMULQDQ carry-less multiply.
  bool pclmulqdq = false;
};

/// What this CPU supports. Probed on first call (thread-safe, independent
/// of static-initialization order); all false off x86-64.
const CpuFeatures& cpu_features();

}  // namespace ibsec::crypto
