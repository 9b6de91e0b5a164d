// Standalone timings of single lower-layer calls (crypto, ib, sim, fabric,
// obs), made with a workload's own parameters. They attribute host time to
// layers from outside the simulator: nothing inside it is instrumented.
#pragma once

#include <cstdint>

#include "obs/registry.h"
#include "spans.h"
#include "workload/scenario.h"

namespace perfbench {

struct LayerProbes {
  /// node_count x crypto::rsa_generate with the CAs' DRBG seeds (median of
  /// repetitions) and the allocations one such pass makes.
  double rsa_keygen_s = 0;
  std::uint64_t rsa_keygen_allocs = 0;
  /// MacFunction::tag32 over a 1024-byte payload, per call.
  double mac_tag_ns_none = 0;
  double mac_tag_ns_umac32 = 0;
  double mac_tag_ns_hmac_sha1 = 0;
  /// One call each on an MTU UD packet.
  double vcrc_ns = 0;
  double icrc_ns = 0;
  double serialize_ns = 0;
  /// Host ns per event of a self-rescheduling Simulator::after chain.
  double event_ns = 0;
  /// fabric::Fabric construction from the workload's fabric config.
  double fabric_build_s = 0;
  /// An allocation count that differed between repetitions of one probe.
  bool alloc_drift = false;
};

LayerProbes run_layer_probes(const ibsec::workload::ScenarioConfig& config,
                             SpanRecorder& spans);

/// Median host microseconds of one Registry::snapshot() on `registry`.
double snapshot_us(const ibsec::obs::Registry& registry, SpanRecorder& spans);

}  // namespace perfbench
