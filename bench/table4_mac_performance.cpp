// Table 4 — Time & forgery complexity of the authentication candidates.
//
// Google-benchmark microbenchmarks of this repository's own from-scratch
// implementations (CRC-32 slice-by-8, HMAC-MD5, HMAC-SHA1, UMAC-32/64),
// measured on 188-byte messages (the paper's 1500-bit reference) and on
// MTU-sized 1024-byte messages, followed by the paper's normalized analytic
// table. Absolute Gb/s differ from 2005 hardware, but the ranking —
// CRC > UMAC >> HMAC-MD5 > HMAC-SHA1 — and the orders of magnitude between
// them are the reproduction target.
//
// The paper compares software algorithms, so the reproduction rows time the
// portable kernels by name (crc32_portable, Hmac<Sha1Portable>) whatever the
// CPU supports. The simulator itself runs the hardware kernels where the
// CPU has them; the BM_Hw* rows time those as an extension, labelled as
// such, and skip on hosts without the instruction.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "analytic/mac_model.h"
#include "common/rng.h"
#include "crypto/cpu_features.h"
#include "crypto/crc32.h"
#include "crypto/hmac.h"
#include "crypto/mac.h"
#include "crypto/pmac.h"
#include "crypto/sha256.h"
#include "crypto/stream_mac.h"
#include "crypto/umac.h"

using namespace ibsec;

namespace {

std::vector<std::uint8_t> message(std::size_t n) {
  Rng rng(4242);
  std::vector<std::uint8_t> msg(n);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u32());
  return msg;
}

std::vector<std::uint8_t> key16() {
  return {'0', '1', '2', '3', '4', '5', '6', '7',
          '8', '9', 'a', 'b', 'c', 'd', 'e', 'f'};
}

void BM_Crc32(benchmark::State& state) {
  const auto msg = message(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::crc32_portable(msg));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_HmacMd5(benchmark::State& state) {
  const auto msg = message(static_cast<std::size_t>(state.range(0)));
  const auto key = key16();
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::HmacMd5::truncated_tag32(key, msg));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_HmacSha1(benchmark::State& state) {
  const auto msg = message(static_cast<std::size_t>(state.range(0)));
  const auto key = key16();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::Hmac<crypto::Sha1Portable>::truncated_tag32(key, msg));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_Umac32(benchmark::State& state) {
  const auto msg = message(static_cast<std::size_t>(state.range(0)));
  const crypto::Umac32 umac(key16());  // key schedule cached per connection
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(umac.tag(msg, ++nonce));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_Umac64(benchmark::State& state) {
  const auto msg = message(static_cast<std::size_t>(state.range(0)));
  const crypto::Umac64 umac(key16());
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(umac.tag(msg, ++nonce));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_HmacSha256(benchmark::State& state) {
  // Modern-baseline extension (not in the paper's table).
  const auto msg = message(static_cast<std::size_t>(state.range(0)));
  const auto key = key16();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::Hmac<crypto::Sha256>::truncated_tag32(key, msg));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_PmacAes(benchmark::State& state) {
  // The sec. 7 "parallelizable MAC" candidate; in software its AES calls
  // dominate, in hardware the blocks pipeline.
  const auto msg = message(static_cast<std::size_t>(state.range(0)));
  const crypto::Pmac pmac(key16());
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pmac.tag32(msg, ++nonce));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_StreamCrcMac(benchmark::State& state) {
  // The sec. 7 stream-cipher MAC: line-rate fast — and forgeable (see
  // tests/test_stream_mac.cpp); benchmarked for the speed comparison only.
  const auto msg = message(static_cast<std::size_t>(state.range(0)));
  const crypto::StreamCrcMac mac(key16());
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mac.tag32(msg, ++nonce));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

// Extension rows: the kernels the simulator runs on this CPU.

void BM_HwCrc32Pclmulqdq(benchmark::State& state) {
  if (!crypto::cpu_features().pclmulqdq) {
    state.SkipWithError("CPUID reports no PCLMULQDQ");
    return;
  }
  state.SetLabel("extension: hardware kernel");
  const auto msg = message(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::crc32(msg));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_HwHmacSha1ShaNi(benchmark::State& state) {
  if (!crypto::cpu_features().sha_ni) {
    state.SkipWithError("CPUID reports no SHA-NI");
    return;
  }
  state.SetLabel("extension: hardware kernel");
  const auto msg = message(static_cast<std::size_t>(state.range(0)));
  const auto key = key16();
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::HmacSha1::truncated_tag32(key, msg));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_Umac32KeySetup(benchmark::State& state) {
  // The cost the key-management layer pays once per secret.
  const auto key = key16();
  for (auto _ : state) {
    crypto::Umac32 umac(key);
    benchmark::DoNotOptimize(&umac);
  }
}

// The paper's two message sizes of interest: 188 B (~1500 bits, the UMAC
// reference point) and the IBA MTU.
constexpr std::int64_t kSizes[] = {188, 1024};

}  // namespace

BENCHMARK(BM_Crc32)->Arg(kSizes[0])->Arg(kSizes[1]);
BENCHMARK(BM_HmacMd5)->Arg(kSizes[0])->Arg(kSizes[1]);
BENCHMARK(BM_HmacSha1)->Arg(kSizes[0])->Arg(kSizes[1]);
BENCHMARK(BM_Umac32)->Arg(kSizes[0])->Arg(kSizes[1]);
BENCHMARK(BM_Umac64)->Arg(kSizes[0])->Arg(kSizes[1]);
BENCHMARK(BM_HmacSha256)->Arg(kSizes[0])->Arg(kSizes[1]);
BENCHMARK(BM_PmacAes)->Arg(kSizes[0])->Arg(kSizes[1]);
BENCHMARK(BM_StreamCrcMac)->Arg(kSizes[0])->Arg(kSizes[1]);
BENCHMARK(BM_HwCrc32Pclmulqdq)->Arg(kSizes[0])->Arg(kSizes[1]);
BENCHMARK(BM_HwHmacSha1ShaNi)->Arg(kSizes[0])->Arg(kSizes[1]);
BENCHMARK(BM_Umac32KeySetup);

int main(int argc, char** argv) {
  std::printf("=== Table 4: time & forgery complexity ===\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("\nPaper's normalized analytic table (350 MHz):\n");
  std::printf("%-12s %14s %12s %16s\n", "Algorithm", "Cycles/byte",
              "Gbits/sec", "Forgery prob.");
  for (const auto& row : analytic::paper_table4(350.0)) {
    std::printf("%-12s %14.2f %12.2f %16s\n", row.algorithm.c_str(),
                row.cycles_per_byte, row.gbits_per_second,
                row.forgery_text.c_str());
  }
  std::printf("\nUMAC link-rate feasibility: needs %.1f MHz to keep up with a "
              "2.5 Gbps 1x link (paper: ~200 MHz)\n",
              analytic::required_clock_mhz(0.7, 2.5));
  std::printf("HMAC-SHA1 would need %.0f MHz for the same link.\n",
              analytic::required_clock_mhz(12.6, 2.5));
  return 0;
}
