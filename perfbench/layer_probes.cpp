#include "layer_probes.h"

#include <vector>

#include "common/alloc_probe.h"
#include "crypto/ctr_drbg.h"
#include "crypto/mac.h"
#include "crypto/rsa.h"
#include "fabric/topology.h"
#include "ib/packet.h"
#include "sim/simulator.h"
#include "timing.h"

namespace perfbench {

namespace {

// Results feed this sink so the timed loops cannot be optimised away.
volatile std::uint64_t g_sink = 0;

// Median over `batches` of the per-call nanoseconds of `calls` calls of
// fn(i), which returns a value folded into the sink.
template <typename F>
double ns_per_call(int batches, int calls, F&& fn) {
  std::vector<double> per_call;
  std::uint64_t sink = 0;
  for (int b = 0; b < batches; ++b) {
    const auto start = Clock::now();
    for (int i = 0; i < calls; ++i) sink ^= fn(i);
    per_call.push_back(seconds_since(start) * 1e9 / calls);
  }
  g_sink = g_sink ^ sink;
  return median(std::move(per_call));
}

// The CA's key DRBG seed (transport/channel_adapter.cpp), so the probe
// generates the same keypairs Scenario construction does.
std::uint64_t ca_key_seed(std::uint64_t scenario_seed, int node) {
  return scenario_seed ^ (0x1BA5EC0000ULL + static_cast<std::uint64_t>(node));
}

ibsec::ib::Packet mtu_ud_packet() {
  ibsec::ib::Packet pkt;
  pkt.lrh.vl = 1;
  pkt.lrh.slid = 3;
  pkt.lrh.dlid = 9;
  pkt.bth.opcode = ibsec::ib::OpCode::kUdSendOnly;
  pkt.bth.pkey = 0x8123;
  pkt.bth.dest_qp = 42;
  pkt.bth.psn = 77;
  pkt.deth = ibsec::ib::Deth{0xDEADBEEF, 7};
  pkt.payload.assign(1024, 0x5A);
  pkt.finalize();
  return pkt;
}

// A chain of events that each schedule the next, as the fabric's
// continuations do.
struct EventChain {
  ibsec::sim::Simulator* sim;
  std::uint64_t* fired;
  std::uint64_t quota;

  void step() {
    if (*fired >= quota) return;
    ++*fired;
    sim->after(100, [this] { step(); });
  }
};

double event_ns() {
  constexpr int kChains = 64;
  constexpr std::uint64_t kEvents = 400'000;
  std::vector<double> per_event;
  for (int rep = 0; rep < 5; ++rep) {
    ibsec::sim::Simulator sim;
    std::uint64_t fired = 0;
    std::vector<EventChain> chains(kChains, EventChain{&sim, &fired, kEvents});
    for (auto& chain : chains) chain.step();
    const std::uint64_t before = sim.events_processed();
    const auto start = Clock::now();
    sim.run();
    per_event.push_back(seconds_since(start) * 1e9 /
                        static_cast<double>(sim.events_processed() - before));
  }
  return median(std::move(per_event));
}

}  // namespace

LayerProbes run_layer_probes(const ibsec::workload::ScenarioConfig& config,
                             SpanRecorder& spans) {
  LayerProbes p;
  const int nodes = config.fabric.node_count();
  {
    auto span = spans.open("crypto.rsa_keygen");
    std::vector<double> secs;
    for (int rep = 0; rep < 3; ++rep) {
      const std::uint64_t allocs_before = ibsec::alloc_count();
      const auto start = Clock::now();
      for (int node = 0; node < nodes; ++node) {
        ibsec::crypto::CtrDrbg drbg(ca_key_seed(config.seed, node));
        const auto keys = ibsec::crypto::rsa_generate(config.rsa_bits, drbg);
        g_sink = g_sink ^ keys.public_key.modulus_bytes();
      }
      secs.push_back(seconds_since(start));
      const std::uint64_t allocs = ibsec::alloc_count() - allocs_before;
      if (rep > 0 && allocs != p.rsa_keygen_allocs) p.alloc_drift = true;
      p.rsa_keygen_allocs = allocs;
    }
    p.rsa_keygen_s = median(std::move(secs));
  }
  {
    std::vector<std::uint8_t> key(16);
    std::vector<std::uint8_t> message(1024);
    for (std::size_t i = 0; i < key.size(); ++i) {
      key[i] = static_cast<std::uint8_t>(config.seed + i);
    }
    for (std::size_t i = 0; i < message.size(); ++i) {
      message[i] = static_cast<std::uint8_t>(i * 31 + 7);
    }
    const auto tag_ns = [&](ibsec::crypto::AuthAlgorithm alg) {
      const auto mac = ibsec::crypto::make_mac(alg, key);
      return ns_per_call(9, 2000, [&](int i) {
        return mac->tag32(message, static_cast<std::uint64_t>(i));
      });
    };
    auto span = spans.open("crypto.mac_tag32");
    p.mac_tag_ns_none = tag_ns(ibsec::crypto::AuthAlgorithm::kNone);
    p.mac_tag_ns_umac32 = tag_ns(ibsec::crypto::AuthAlgorithm::kUmac32);
    p.mac_tag_ns_hmac_sha1 = tag_ns(ibsec::crypto::AuthAlgorithm::kHmacSha1);
  }
  {
    auto span = spans.open("ib.packet");
    const ibsec::ib::Packet pkt = mtu_ud_packet();
    std::vector<std::uint8_t> scratch;
    p.vcrc_ns = ns_per_call(9, 4000, [&](int) { return pkt.compute_vcrc(); });
    p.icrc_ns = ns_per_call(9, 4000, [&](int) { return pkt.compute_icrc(); });
    p.serialize_ns = ns_per_call(9, 4000, [&](int) {
      pkt.serialize_into(scratch);
      return scratch.back();
    });
  }
  {
    auto span = spans.open("sim.event_chain");
    p.event_ns = event_ns();
  }
  {
    auto span = spans.open("fabric.build");
    std::vector<double> secs;
    for (int rep = 0; rep < 5; ++rep) {
      const auto start = Clock::now();
      ibsec::fabric::Fabric fabric(config.fabric);
      secs.push_back(seconds_since(start));
      g_sink = g_sink ^ static_cast<std::uint64_t>(fabric.node_count());
    }
    p.fabric_build_s = median(std::move(secs));
  }
  return p;
}

double snapshot_us(const ibsec::obs::Registry& registry, SpanRecorder& spans) {
  auto span = spans.open("obs.snapshot");
  std::vector<double> us;
  for (int rep = 0; rep < 21; ++rep) {
    const auto start = Clock::now();
    const auto snap = registry.snapshot();
    us.push_back(seconds_since(start) * 1e6);
    g_sink = g_sink ^ snap.values.size();
  }
  return median(std::move(us));
}

}  // namespace perfbench
