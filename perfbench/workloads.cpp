#include "workloads.h"

#include <map>

#include "common/hex.h"
#include "crypto/sha256.h"

namespace perfbench {

using ibsec::SimTime;
using ibsec::fabric::FilterMode;
using ibsec::workload::KeyManagement;
using ibsec::workload::ScenarioConfig;
using ibsec::workload::ScenarioResult;
using namespace ibsec::time_literals;

namespace {

constexpr std::uint64_t kFig1Seed = 2005;  // bench/fig1_dos_attack.cpp
constexpr std::uint64_t kFig6Seed = 606;   // bench/fig6_auth_overhead.cpp

// Fig. 1 testbed: 2-MTU-deep VL buffers and a 200 us warmup.
ScenarioConfig testbed(std::uint64_t seed, SimTime duration) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.duration = duration;
  cfg.warmup = 200 * kMicrosecond;
  cfg.fabric.link.buffer_bytes_per_vl = 2176;
  return cfg;
}

// Fig. 1 (a): CBR 40% on the realtime VL, flooders on the same VL.
ScenarioConfig fig1_realtime(std::uint64_t seed, SimTime duration,
                             int attackers) {
  ScenarioConfig cfg = testbed(seed, duration);
  cfg.enable_best_effort = false;
  cfg.realtime_rate = 0.40;
  cfg.num_attackers = attackers;
  cfg.attack_vl = ibsec::fabric::kRealtimeVl;
  return cfg;
}

// Fig. 1 (b): Poisson 40% on the best-effort VL, flooders on the same VL.
ScenarioConfig fig1_best_effort(std::uint64_t seed, SimTime duration,
                                int attackers) {
  ScenarioConfig cfg = testbed(seed, duration);
  cfg.enable_realtime = false;
  cfg.best_effort_load = 0.4;
  cfg.num_attackers = attackers;
  cfg.attack_vl = ibsec::fabric::kBestEffortVl;
  return cfg;
}

Workload dos_plain(std::uint64_t seed) {
  return {"dos_plain",
          {{"fig1.realtime.a4", fig1_realtime(seed, 40 * kMillisecond, 4)},
           {"fig1.best_effort.a4",
            fig1_best_effort(seed, 40 * kMillisecond, 4)}}};
}

Workload dos_observed(std::uint64_t seed) {
  ScenarioConfig cfg = fig1_realtime(seed, 5 * kMillisecond, 4);
  cfg.trace.enabled = true;
  cfg.trace.sample_every = 1;
  cfg.audit.enabled = true;
  cfg.timeseries_dt = 10 * kMicrosecond;
  return {"dos_observed", {{"fig1.realtime.a4.observed", cfg}}};
}

Workload auth_qp(std::uint64_t seed) {
  // Fig. 6 "With Key" at its top input load (70% of the mesh's ~80%
  // saturation point), with a paper Table 4 MAC instead of UMAC.
  ScenarioConfig cfg = testbed(seed, 10 * kMillisecond);
  cfg.enable_realtime = false;
  cfg.best_effort_load = 0.7 * 0.8;
  cfg.key_management = KeyManagement::kQpLevel;
  cfg.auth_enabled = true;
  cfg.replay_protection = true;
  cfg.auth_alg = ibsec::crypto::AuthAlgorithm::kHmacSha1;
  cfg.per_message_auth_overhead = 3200;
  return {"auth_qp", {{"fig6.with_key.hmac_sha1.load70", cfg}}};
}

Workload sweep(std::uint64_t seed) {
  // Fig. 1 cells (0-3 flooders on each traffic class) with and without the
  // Fig. 5 stateful ingress filter.
  Workload w{"sweep", {}};
  for (FilterMode mode : {FilterMode::kNone, FilterMode::kSif}) {
    for (int a = 0; a <= 3; ++a) {
      const std::string suffix = ".a" + std::to_string(a) + "." +
                                 (mode == FilterMode::kSif ? "sif" : "none");
      ScenarioConfig rt = fig1_realtime(seed, 2 * kMillisecond, a);
      rt.fabric.filter_mode = mode;
      w.scenarios.push_back({"fig1.realtime" + suffix, rt});
      ScenarioConfig be = fig1_best_effort(seed, 2 * kMillisecond, a);
      be.fabric.filter_mode = mode;
      w.scenarios.push_back({"fig1.best_effort" + suffix, be});
    }
  }
  return w;
}

// SHA-256 of ScenarioResult::obs.to_json() for every scenario at the
// default seed. A change that only speeds the simulator up leaves these
// unchanged; one that changes simulated behaviour on purpose updates them
// from the "digest" lines the benchmark prints.
const std::map<std::string, std::string>& pinned_digests() {
  static const std::map<std::string, std::string> kDigests = {
      {"dos_plain/fig1.realtime.a4",
       "952e6979381ed851de6d0f5d44b88d68d1e5e59e7a9e160cab982c64060b68cd"},
      {"dos_plain/fig1.best_effort.a4",
       "b87d61f5f0c140e2078d204993050bd98605bdf113732daeae04b1db79300344"},
      {"dos_observed/fig1.realtime.a4.observed",
       "885cb1763a72c9f06b6575d17fb56f19d49cf26a138f2b32497b023622720ce4"},
      {"auth_qp/fig6.with_key.hmac_sha1.load70",
       "871b0ea13d0c6739706e668285491ce75ab14e125df1d21b9e7617dc22fac3d1"},
      {"sweep/fig1.realtime.a0.none",
       "36989c299a41b63278b2ea6206d350a3072ab1f03341c961f835f200797e11f7"},
      {"sweep/fig1.best_effort.a0.none",
       "afeaf574162a733e9f486cf522ec5662a4177392a3176c236a61bc63a6c6c24d"},
      {"sweep/fig1.realtime.a1.none",
       "0e74253dc4b51c8b61d9333d32b06de5b4b4248b91fe7e70ba1b4f07a2ab02eb"},
      {"sweep/fig1.best_effort.a1.none",
       "f33827d966a09a3c755c073bb867ac624bb63e70e975a38fd95118670d16bf5d"},
      {"sweep/fig1.realtime.a2.none",
       "c4d75c4086d212a640d9601d79bcd3658e27083ea21052e77a57feac244b7bd6"},
      {"sweep/fig1.best_effort.a2.none",
       "5dd00df922f02b08609f0d43f4a0c38e80771208f2e333f44afe81f8c299d3d8"},
      {"sweep/fig1.realtime.a3.none",
       "1e548276313fbd3604a309b24ad2c47a02f7ec7856934be9423736ae618c4a22"},
      {"sweep/fig1.best_effort.a3.none",
       "754047a45c926557158bc2ae8b41a38557802025d11502945c65d51109f76d5e"},
      {"sweep/fig1.realtime.a0.sif",
       "36989c299a41b63278b2ea6206d350a3072ab1f03341c961f835f200797e11f7"},
      {"sweep/fig1.best_effort.a0.sif",
       "afeaf574162a733e9f486cf522ec5662a4177392a3176c236a61bc63a6c6c24d"},
      {"sweep/fig1.realtime.a1.sif",
       "84baf2295576e2eacafbfb1a028ff449f5f85cbf2c8452bab9cee1362b600776"},
      {"sweep/fig1.best_effort.a1.sif",
       "dcaee7ae41ebf172ad4d1517df953340e1bca94d965c7906a2e09c289488cf3b"},
      {"sweep/fig1.realtime.a2.sif",
       "0b18a1ffde7529f6ba798170cbc2a140e4ae7f23daf2218167b2d2b7acf34a20"},
      {"sweep/fig1.best_effort.a2.sif",
       "7d8c388d699705dcd91f6afc5ef9474811dd270809fb354918c662c26b0e1bb5"},
      {"sweep/fig1.realtime.a3.sif",
       "c8e7abec408ac9b724a0c30730cfc3fa663a8b8d23e248c3fe98f5f887f5acbf"},
      {"sweep/fig1.best_effort.a3.sif",
       "d14006a391749100f39af3440fcefe3286362446a8f194877013e98caaf5026b"},
  };
  return kDigests;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"dos_plain", "dos_observed",
                                                  "auth_qp", "sweep"};
  return kNames;
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed_offset) {
  std::optional<Workload> w;
  if (name == "dos_plain") w = dos_plain(kFig1Seed + seed_offset);
  if (name == "dos_observed") w = dos_observed(kFig1Seed + seed_offset);
  if (name == "auth_qp") w = auth_qp(kFig6Seed + seed_offset);
  if (name == "sweep") w = sweep(kFig1Seed + seed_offset);
  if (w) w->digests_pinned = seed_offset == 0;
  return w;
}

ScenarioConfig without_obs(ScenarioConfig config) {
  config.trace.enabled = false;
  config.audit.enabled = false;
  config.timeseries_dt = 0;
  return config;
}

std::string snapshot_digest(const ibsec::obs::Snapshot& snapshot) {
  const std::string json = snapshot.to_json();
  const auto digest = ibsec::crypto::Sha256::hash(std::span(
      reinterpret_cast<const std::uint8_t*>(json.data()), json.size()));
  return ibsec::to_hex(digest);
}

std::optional<std::string> pinned_digest(const std::string& workload,
                                         const std::string& scenario) {
  const auto& digests = pinned_digests();
  const auto it = digests.find(workload + "/" + scenario);
  if (it == digests.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> check_conservation(
    const ibsec::obs::Snapshot& drained, int nodes) {
  // The identity tests/test_invariants.cpp checks, on the drained fabric.
  std::vector<std::string> failures;
  const std::int64_t injected = drained.sum_matching("hca.*.injected");
  const std::int64_t switch_drops = drained.sum_matching("switch.*.drop.*");
  const std::int64_t link_drops =
      drained.sum_matching("link.*.faults.dropped") +
      drained.sum_matching("link.*.faults.flap_dropped");
  const std::int64_t received = drained.sum_matching("hca.*.received");
  const std::int64_t retired = drained.sum_matching("ca.*.retired.*");
  if (injected <= 0) failures.push_back("no packet was injected");
  if (injected != switch_drops + link_drops + received) {
    failures.push_back("injected " + std::to_string(injected) +
                       " != switch drops + link drops + received " +
                       std::to_string(switch_drops + link_drops + received));
  }
  if (received != retired) {
    failures.push_back("received " + std::to_string(received) +
                       " != retired " + std::to_string(retired));
  }
  for (int n = 0; n < nodes; ++n) {
    const std::string id = std::to_string(n);
    const std::int64_t rx = drained.at("hca." + id + ".received");
    const std::int64_t rt = drained.sum_matching("ca." + id + ".retired.*");
    if (rx != rt) {
      failures.push_back("node " + id + ": received " + std::to_string(rx) +
                         " != retired " + std::to_string(rt));
    }
  }
  return failures;
}

std::vector<std::string> check_exports(const ScenarioConfig& config,
                                       const ScenarioResult& result) {
  std::vector<std::string> failures;
  if (config.trace.enabled && result.trace_json.empty()) {
    failures.push_back("trace export is empty");
  }
  if (config.trace.enabled && result.trace_breakdown_csv.empty()) {
    failures.push_back("trace breakdown export is empty");
  }
  if (config.audit.enabled && result.audit_jsonl.empty()) {
    failures.push_back("audit export is empty");
  }
  if (config.timeseries_dt > 0 && result.timeseries_csv.empty()) {
    failures.push_back("time-series export is empty");
  }
  return failures;
}

}  // namespace perfbench
