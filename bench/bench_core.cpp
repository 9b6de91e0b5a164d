// Core performance harness: the measuring stick for every hot-path PR.
//
// Three tiers, all emitted as one BenchReport JSON (BENCH_core.json):
//   1. event-queue micro-bench — self-rescheduling events whose captures
//      mirror the switch-crossing lambda (~40 bytes of state), reporting
//      events/sec and heap allocations per event in steady state;
//   2. packet micro-benches — serialize / ICRC / VCRC / per-algorithm MAC
//      tag32 throughput on an MTU-sized UD packet;
//   3. Fig. 1 macro-bench — the DoS scenario (4 attackers, realtime and
//      best-effort variants) run back to back, reporting wall-clock.
//
// `--check <baseline.json>` is the CI regression gate: it fails (exit 1)
// when any gated metric regresses by more than 25% against the committed
// baseline. `--quick` shrinks iteration counts for the perf-smoke lane.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/bench_util.h"
#include "common/alloc_probe.h"
#include "crypto/mac.h"
#include "ib/packet.h"
#include "sim/simulator.h"
#include "workload/scenario.h"

using namespace ibsec;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// --- 1. event-queue throughput ----------------------------------------------

// Mirrors the hottest real capture in the tree (the switch pipeline-delay
// continuation: this + packet slot + ingress port + route decision).
struct HotCapture {
  void* a = nullptr;
  void* b = nullptr;
  std::uint64_t c = 0;
  std::uint64_t d = 0;
  std::uint32_t e = 0;
};

struct EventChain {
  sim::Simulator* sim;
  std::uint64_t* fired;
  std::uint64_t quota;

  void step() {
    if (*fired >= quota) return;
    ++*fired;
    HotCapture state;
    state.c = *fired;
    sim->after(100, [this, state]() mutable {
      state.d ^= state.c;
      step();
    });
  }
};

void bench_event_queue(bench::BenchReport& report, bool quick) {
  const std::uint64_t quota = quick ? 400'000 : 4'000'000;
  sim::Simulator sim;
  std::uint64_t fired = 0;
  constexpr int kChains = 64;
  std::vector<EventChain> chains(
      kChains, EventChain{&sim, &fired, quota});
  for (auto& chain : chains) chain.step();

  // Warmup: let the queue and any pools reach steady state, then measure
  // wall time and the allocation delta over the remaining events.
  const std::uint64_t warmup_quota = quota / 8;
  sim.run_until(100 * static_cast<SimTime>(warmup_quota / kChains));
  const std::uint64_t warm_fired = fired;
  const std::uint64_t allocs_before = alloc_count();
  const auto start = std::chrono::steady_clock::now();
  sim.run();
  const double elapsed = seconds_since(start);
  const std::uint64_t allocs = alloc_count() - allocs_before;
  const std::uint64_t measured = fired - warm_fired;

  report.set("event_queue.events_per_sec",
             static_cast<double>(measured) / elapsed);
  report.set("event_queue.allocs_per_event",
             static_cast<double>(allocs) / static_cast<double>(measured));
  std::printf("event_queue        %12.0f events/s   %.3f allocs/event\n",
              static_cast<double>(measured) / elapsed,
              static_cast<double>(allocs) / static_cast<double>(measured));
}

// --- 2. packet + MAC micro-benches ------------------------------------------

ib::Packet make_bench_packet(std::size_t payload_size) {
  ib::Packet pkt;
  pkt.lrh.vl = 1;
  pkt.lrh.slid = 3;
  pkt.lrh.dlid = 9;
  pkt.bth.opcode = ib::OpCode::kUdSendOnly;
  pkt.bth.pkey = 0x8123;
  pkt.bth.dest_qp = 42;
  pkt.bth.psn = 77;
  pkt.deth = ib::Deth{0xDEADBEEF, 7};
  pkt.payload.assign(payload_size, 0x5A);
  pkt.finalize();
  return pkt;
}

void bench_packet(bench::BenchReport& report, bool quick) {
  const ib::Packet pkt = make_bench_packet(1024);
  const double wire_bytes = static_cast<double>(pkt.wire_size());
  const int iters = quick ? 20'000 : 200'000;

  {
    std::uint32_t sink = 0;
    std::vector<std::uint8_t> scratch;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      pkt.serialize_into(scratch);
      sink ^= scratch.back();
    }
    const double elapsed = seconds_since(start);
    report.set("packet.serialize_mb_per_sec",
               wire_bytes * iters / elapsed / 1e6);
    std::printf("serialize          %12.1f MB/s (sink %u)\n",
                wire_bytes * iters / elapsed / 1e6, sink & 1u);
  }
  {
    std::uint32_t sink = 0;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) sink ^= pkt.compute_icrc();
    const double elapsed = seconds_since(start);
    report.set("packet.icrc_mb_per_sec", wire_bytes * iters / elapsed / 1e6);
    std::printf("compute_icrc       %12.1f MB/s (sink %u)\n",
                wire_bytes * iters / elapsed / 1e6, sink & 1u);
  }
  {
    std::uint32_t sink = 0;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) sink ^= pkt.compute_vcrc();
    const double elapsed = seconds_since(start);
    report.set("packet.vcrc_mb_per_sec", wire_bytes * iters / elapsed / 1e6);
    std::printf("compute_vcrc       %12.1f MB/s (sink %u)\n",
                wire_bytes * iters / elapsed / 1e6, sink & 1u);
  }
}

void bench_macs(bench::BenchReport& report, bool quick) {
  const std::vector<std::uint8_t> key(16, 0x42);
  std::vector<std::uint8_t> message(1024);
  for (std::size_t i = 0; i < message.size(); ++i)
    message[i] = static_cast<std::uint8_t>(i * 31 + 7);

  struct Algo {
    crypto::AuthAlgorithm alg;
    const char* name;
  };
  const Algo algos[] = {
      {crypto::AuthAlgorithm::kNone, "crc32"},
      {crypto::AuthAlgorithm::kUmac32, "umac32"},
      {crypto::AuthAlgorithm::kHmacSha256, "hmac_sha256"},
      {crypto::AuthAlgorithm::kPmac, "pmac"},
  };
  const int iters = quick ? 10'000 : 100'000;
  for (const auto& algo : algos) {
    const auto mac = crypto::make_mac(algo.alg, key);
    std::uint32_t sink = 0;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i)
      sink ^= mac->tag32(message, static_cast<std::uint64_t>(i));
    const double elapsed = seconds_since(start);
    const double mbps =
        static_cast<double>(message.size()) * iters / elapsed / 1e6;
    report.set(std::string("mac.") + algo.name + "_mb_per_sec", mbps);
    std::printf("mac %-14s %12.1f MB/s (sink %u)\n", algo.name, mbps,
                sink & 1u);
  }
}

// --- 3. Fig. 1 DoS macro-bench ----------------------------------------------

void bench_fig1(bench::BenchReport& report, bool quick) {
  // The Fig. 1 worst case: 4 attackers on each traffic class, run serially
  // on this thread so wall-clock is comparable across machines' core counts.
  workload::ScenarioConfig base;
  base.seed = 2005;
  base.duration =
      (quick ? 1 : 4) * time_literals::kMillisecond;
  base.warmup = 200 * time_literals::kMicrosecond;
  base.fabric.link.buffer_bytes_per_vl = 2176;

  workload::ScenarioConfig realtime = base;
  realtime.enable_best_effort = false;
  realtime.realtime_rate = 0.40;
  realtime.num_attackers = 4;
  realtime.attack_vl = fabric::kRealtimeVl;

  workload::ScenarioConfig best_effort = base;
  best_effort.enable_realtime = false;
  best_effort.best_effort_load = 0.4;
  best_effort.num_attackers = 4;
  best_effort.attack_vl = fabric::kBestEffortVl;

  const std::uint64_t allocs_before = alloc_count();
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t delivered = 0;
  for (const auto& cfg : {realtime, best_effort}) {
    workload::Scenario scenario(cfg);
    delivered += scenario.run().delivered;
  }
  const double elapsed = seconds_since(start);
  const std::uint64_t allocs = alloc_count() - allocs_before;

  report.set("fig1.wall_ms", elapsed * 1e3);
  report.set("fig1.allocs", static_cast<double>(allocs));
  report.set("fig1.delivered", static_cast<double>(delivered));
  std::printf("fig1 macro         %12.1f ms wall   %llu allocs   %llu "
              "delivered\n",
              elapsed * 1e3, static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(delivered));
}

// --- regression gate ---------------------------------------------------------

struct Gate {
  const char* key;
  bool higher_is_better;
};

// Gated metrics for --check. Throughputs must not drop >25%; fig1 wall-clock
// and the alloc counters must not grow >25% (allocs_per_event gets an
// absolute epsilon so a 0 -> 0.001 jitter never trips the gate).
constexpr Gate kGates[] = {
    {"event_queue.events_per_sec", true},
    {"packet.serialize_mb_per_sec", true},
    {"packet.icrc_mb_per_sec", true},
    {"packet.vcrc_mb_per_sec", true},
    {"mac.crc32_mb_per_sec", true},
    {"mac.umac32_mb_per_sec", true},
    {"mac.hmac_sha256_mb_per_sec", true},
    {"mac.pmac_mb_per_sec", true},
    {"fig1.wall_ms", false},
    {"fig1.allocs", false},
};

int check_against_baseline(const bench::BenchReport& report,
                           const std::string& baseline_path) {
  std::ifstream in(baseline_path);
  if (!in) {
    std::fprintf(stderr, "bench_core: cannot read baseline %s\n",
                 baseline_path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string baseline = buf.str();

  int failures = 0;
  for (const auto& gate : kGates) {
    const auto want = bench::BenchReport::read_metric(baseline, gate.key);
    if (!want) continue;  // metric not in baseline: nothing to gate
    double have = -1;
    for (const auto& kv : report.metrics())
      if (kv.first == gate.key) have = kv.second;
    if (have < 0) {
      std::fprintf(stderr, "FAIL %-32s missing from this run\n", gate.key);
      ++failures;
      continue;
    }
    const bool ok = gate.higher_is_better ? have >= *want * 0.75
                                          : have <= *want * 1.25 + 1e-9;
    std::printf("%s %-32s baseline %12.4g  now %12.4g\n",
                ok ? "  ok" : "FAIL", gate.key, *want, have);
    if (!ok) ++failures;
  }
  // Machine-independent: steady-state event scheduling must stay
  // allocation-free once it has been made so.
  const auto base_ape =
      bench::BenchReport::read_metric(baseline, "event_queue.allocs_per_event");
  if (base_ape && *base_ape < 0.01) {
    double have = 1;
    for (const auto& kv : report.metrics())
      if (kv.first == "event_queue.allocs_per_event") have = kv.second;
    const bool ok = have < 0.01;
    std::printf("%s %-32s baseline %12.4g  now %12.4g\n",
                ok ? "  ok" : "FAIL", "event_queue.allocs_per_event",
                *base_ape, have);
    if (!ok) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_core.json";
  std::string label = "run";
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--label" && i + 1 < argc) {
      label = argv[++i];
    } else if (arg == "--check" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_core [--quick] [--out file.json] "
                   "[--label name] [--check baseline.json]\n");
      return 2;
    }
  }

  std::printf("=== bench_core (%s) ===\n\n", quick ? "quick" : "full");
  bench::BenchReport report(label);
  bench_event_queue(report, quick);
  bench_packet(report, quick);
  bench_macs(report, quick);
  bench_fig1(report, quick);

  if (!report.write(out_path)) {
    std::fprintf(stderr, "bench_core: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());

  if (!baseline_path.empty())
    return check_against_baseline(report, baseline_path);
  return 0;
}
