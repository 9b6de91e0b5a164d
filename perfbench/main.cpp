// The repo benchmark: one workload per invocation, timed from outside the
// simulator through its public entry points.
//
//   ibsec_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--out-dir DIR]
//
// Each repetition constructs and runs the workload's scenarios serially
// (setup and run timed apart), checks every output, then runs the same
// configs through run_sweep() at min(nproc, 4) workers. Repetitions continue
// until S seconds have been measured; end-to-end metrics are their medians.
// With --trace 1 the repetitions also record spans and exact work counts,
// and the standalone layer probes run afterwards; the output then carries
// the per-layer metrics instead. The last stdout line is the result JSON.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_probe.h"
#include "layer_probes.h"
#include "spans.h"
#include "timing.h"
#include "workload/experiment.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ibsec::workload::Scenario;
using ibsec::workload::ScenarioConfig;
using ibsec::workload::ScenarioResult;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

unsigned sweep_workers() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool optimized_build() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

std::string fingerprint_json() {
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "gcc " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  return "{\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" + compiler + "\", \"build_type\": \"" +
         PERFBENCH_BUILD_TYPE + "\", \"optimized\": " +
         (optimized_build() ? "true" : "false") +
         ", \"ndebug\": " + (ndebug ? "true" : "false") +
         ", \"workers\": " + std::to_string(sweep_workers()) + "}";
}

bool parse_options(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || value[0] == '-' || *end != '\0') return false;
    } else if (key == "--seconds") {
      opt.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || opt.seconds < 1 || opt.seconds > 600) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      opt.trace = value == "1";
    } else if (key == "--out-dir") {
      opt.out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty();
}

// Exact work counts summed over one repetition's serial scenarios.
struct WorkCounts {
  std::uint64_t setup_allocs = 0;
  std::uint64_t run_allocs = 0;
  std::uint64_t events = 0;
  double delivered = 0;
  double forwarded = 0;
  double switch_drops = 0;
  double injected = 0;
  double retired = 0;
  double mac_ops = 0;
  double verify_fails = 0;
  double verifies = 0;
  double export_bytes = 0;

  bool operator==(const WorkCounts&) const = default;
};

void add_result_counts(const ScenarioResult& r, WorkCounts& w) {
  const auto& s = r.obs;
  w.delivered += static_cast<double>(r.delivered);
  w.forwarded += static_cast<double>(s.sum_matching("switch.*.forwarded"));
  w.switch_drops += static_cast<double>(s.sum_matching("switch.*.drop.*"));
  w.injected += static_cast<double>(s.sum_matching("hca.*.injected"));
  w.retired += static_cast<double>(s.sum_matching("ca.*.retired.*"));
  const double fails = static_cast<double>(s.sum_matching("auth.fail.*"));
  const double ok = static_cast<double>(s.at("auth.verify_ok"));
  w.mac_ops += static_cast<double>(s.at("auth.signed")) + ok + fails;
  w.verify_fails += fails;
  w.verifies += ok + fails;
  w.export_bytes += static_cast<double>(
      r.trace_json.size() + r.trace_breakdown_csv.size() +
      r.timeseries_csv.size() + r.audit_jsonl.size());
}

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool drift = false;

  void record(const std::string& what, const std::vector<std::string>& errs) {
    ++attempted;
    if (errs.empty()) return;
    ++failed;
    for (const auto& e : errs) {
      std::printf("FAIL %s: %s\n", what.c_str(), e.c_str());
    }
  }
};

class Bench {
 public:
  Bench(Options opt, Workload w)
      : opt_(std::move(opt)), w_(std::move(w)), spans_(opt_.trace) {}

  int run();

 private:
  void repetition(int rep);
  ScenarioResult serial_scenario(const NamedConfig& sc, int rep,
                                 std::vector<std::string>& errs);
  std::vector<Metric> end_to_end() const;
  std::vector<Metric> per_layer(const LayerProbes& probes);
  void write_results(const std::vector<Metric>& metrics, bool correct) const;

  Options opt_;
  Workload w_;
  SpanRecorder spans_;
  Outcome outcome_;

  std::vector<double> setup_s_, run_s_, sweep_wall_s_, cost_x_;
  std::vector<WorkCounts> counts_;        // one per repetition
  std::vector<std::string> serial_json_;  // this repetition's snapshots
  std::vector<std::string> digests_;
  double snapshot_us_ = 0;
  double first_run_s_ = 0;  // the first scenario's run phase, this rep
};

ScenarioResult Bench::serial_scenario(const NamedConfig& sc, int rep,
                                      std::vector<std::string>& errs) {
  WorkCounts& w = counts_.back();
  // Constructed in place, so the setup window holds exactly the
  // constructor's allocations.
  std::optional<Scenario> scenario;
  const std::uint64_t a0 = ibsec::alloc_count();
  const auto t0 = Clock::now();
  {
    auto span = spans_.open("workload.setup");
    scenario.emplace(sc.config);
  }
  const double setup = seconds_since(t0);
  auto& sim = scenario->fabric().simulator();
  const std::uint64_t a1 = ibsec::alloc_count();
  const std::uint64_t e0 = sim.events_processed();
  const auto t1 = Clock::now();
  ScenarioResult result;
  {
    auto span = spans_.open("workload.run");
    result = scenario->run();
  }
  const double run = seconds_since(t1);
  w.setup_allocs += a1 - a0;
  w.run_allocs += ibsec::alloc_count() - a1;
  w.events += sim.events_processed() - e0;
  setup_s_.back() += setup;
  run_s_.back() += run;
  if (&sc == &w_.scenarios.front()) first_run_s_ = run;

  auto span = spans_.open("bench.check");
  add_result_counts(result, w);
  if (opt_.trace && rep == 0 && &sc == &w_.scenarios.front()) {
    snapshot_us_ = snapshot_us(sim.obs(), spans_);
  }
  const std::string digest = snapshot_digest(result.obs);
  if (rep == 0) digests_.push_back(digest);
  if (w_.digests_pinned) {
    const auto pinned = pinned_digest(w_.name, sc.name);
    if (!pinned) {
      errs.push_back("no pinned digest");
    } else if (*pinned != digest) {
      errs.push_back("snapshot digest " + digest + " != pinned " + *pinned);
    }
  }
  if (result.delivered == 0) errs.push_back("nothing delivered");
  for (auto& e : check_exports(sc.config, result)) errs.push_back(e);
  // Drain in-flight packets (sources are stopped), then check conservation.
  sim.run();
  for (auto& e : check_conservation(sim.obs().snapshot(),
                                    scenario->fabric().node_count())) {
    errs.push_back(e);
  }
  {
    auto destroy = spans_.open("workload.destroy");
    scenario.reset();
  }
  return result;
}

void Bench::repetition(int rep) {
  spans_.set_group(rep);
  auto rep_span = spans_.open("bench.repetition");
  setup_s_.push_back(0);
  run_s_.push_back(0);
  counts_.emplace_back();
  serial_json_.clear();

  for (const NamedConfig& sc : w_.scenarios) {
    std::vector<std::string> errs;
    const ScenarioResult result = serial_scenario(sc, rep, errs);
    serial_json_.push_back(result.obs.to_json());
    outcome_.record(sc.name + " (serial)", errs);
  }

  std::vector<ScenarioConfig> configs;
  for (const NamedConfig& sc : w_.scenarios) configs.push_back(sc.config);
  const auto t0 = Clock::now();
  std::vector<ScenarioResult> results;
  {
    auto span = spans_.open("workload.sweep");
    results = ibsec::workload::run_sweep(configs, sweep_workers());
  }
  sweep_wall_s_.push_back(seconds_since(t0));
  auto span = spans_.open("bench.check");
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::vector<std::string> errs;
    if (results[i].obs.to_json() != serial_json_[i]) {
      errs.push_back("run_sweep snapshot differs from the serial run");
    }
    outcome_.record(w_.scenarios[i].name + " (sweep)", errs);
  }

  if (opt_.trace) {
    // The first scenario again with every obs surface off; its run phase
    // against the serial one above is what the surfaces cost.
    auto twin_span = spans_.open("workload.obs_off_twin");
    Scenario twin(without_obs(w_.scenarios.front().config));
    const auto t1 = Clock::now();
    twin.run();
    cost_x_.push_back(ratio(first_run_s_, seconds_since(t1)));
  }

  if (rep > 0 && !(counts_.back() == counts_.front())) {
    std::printf("DRIFT repetition %d: allocation or work counts differ from "
                "repetition 0 (a benchmark bug, not noise)\n", rep);
    outcome_.drift = true;
  }
  std::printf("rep %d  setup_s %.6f  run_s %.6f  sweep_wall_s %.6f  "
              "setup_allocs %llu  run_allocs %llu\n",
              rep, setup_s_.back(), run_s_.back(), sweep_wall_s_.back(),
              static_cast<unsigned long long>(counts_.back().setup_allocs),
              static_cast<unsigned long long>(counts_.back().run_allocs));
}

std::vector<Metric> Bench::end_to_end() const {
  return {
      {"setup_s", median(setup_s_), "s"},
      {"run_s", median(run_s_), "s"},
      {"sweep_wall_s", median(sweep_wall_s_), "s"},
  };
}

std::vector<Metric> Bench::per_layer(const LayerProbes& p) {
  const WorkCounts& w = counts_.front();
  const double scenarios = static_cast<double>(w_.scenarios.size());
  std::vector<double> speedup;
  for (std::size_t i = 0; i < sweep_wall_s_.size(); ++i) {
    speedup.push_back(ratio(setup_s_[i] + run_s_[i], sweep_wall_s_[i]));
  }
  return {
      {"common.setup_allocs", static_cast<double>(w.setup_allocs) / scenarios,
       "count"},
      {"common.run_allocs_per_delivered",
       ratio(static_cast<double>(w.run_allocs), w.delivered), "count"},
      {"common.sweep_speedup", median(speedup), "x"},
      {"crypto.rsa_keygen_s", p.rsa_keygen_s, "s"},
      {"crypto.rsa_keygen_allocs", static_cast<double>(p.rsa_keygen_allocs),
       "count"},
      {"crypto.mac_tag_ns.none", p.mac_tag_ns_none, "ns"},
      {"crypto.mac_tag_ns.umac32", p.mac_tag_ns_umac32, "ns"},
      {"crypto.mac_tag_ns.hmac_sha1", p.mac_tag_ns_hmac_sha1, "ns"},
      {"ib.vcrc_ns", p.vcrc_ns, "ns"},
      {"ib.icrc_ns", p.icrc_ns, "ns"},
      {"ib.serialize_ns", p.serialize_ns, "ns"},
      {"sim.events_per_delivered",
       ratio(static_cast<double>(w.events), w.delivered), "count"},
      {"sim.events_per_s",
       ratio(static_cast<double>(w.events), median(run_s_)), "1/s"},
      {"sim.event_ns", p.event_ns, "ns"},
      {"fabric.forwarded_per_delivered", ratio(w.forwarded, w.delivered),
       "count"},
      {"fabric.drop_frac", ratio(w.switch_drops, w.injected), "frac"},
      {"fabric.build_s", p.fabric_build_s, "s"},
      {"transport.retired_per_delivered", ratio(w.retired, w.delivered),
       "count"},
      {"security.mac_ops_per_delivered", ratio(w.mac_ops, w.delivered),
       "count"},
      {"security.reject_frac", ratio(w.verify_fails, w.verifies), "frac"},
      {"obs.cost_x", median(cost_x_), "x"},
      {"obs.snapshot_us", snapshot_us_, "us"},
      {"obs.export_bytes", w.export_bytes, "bytes"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

void Bench::write_results(const std::vector<Metric>& metrics,
                          bool correct) const {
  if (opt_.out_dir.empty()) return;
  const std::string path = opt_.out_dir + "/" + w_.name + "-seed" +
                           std::to_string(opt_.seed) + "-trace" +
                           (opt_.trace ? "1" : "0") + ".json";
  std::ofstream out(path);
  std::string metrics_json;
  char buf[256];
  for (const Metric& m : metrics) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.10g",
                  metrics_json.empty() ? "" : ", ", m.name.c_str(), m.value);
    metrics_json += buf;
  }
  out << "{\"workload\": \"" << w_.name << "\", \"seed\": " << opt_.seed
      << ", \"trace\": " << opt_.trace
      << ", \"fingerprint\": " << fingerprint_json()
      << ", \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << outcome_.attempted
      << ", \"failed\": " << outcome_.failed << ",\n\"metrics\": {"
      << metrics_json << "},\n\"spans\": " << spans_.to_json() << "}\n";
  if (!out) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

int Bench::run() {
  const std::string fingerprint = fingerprint_json();
  std::printf("fingerprint %s\n", fingerprint.c_str());
  if (!optimized_build()) {
    std::printf("WARNING: non-optimised build; timings are not comparable\n");
  }
  std::printf("workload %s  seed offset %llu  scenarios %zu  digests %s\n",
              w_.name.c_str(), static_cast<unsigned long long>(opt_.seed),
              w_.scenarios.size(), w_.digests_pinned ? "pinned" : "unpinned");

  // Untimed warm-up construction: function-local statics and the allocator
  // settle here, so every timed repetition does the same work.
  { Scenario warmup(w_.scenarios.front().config); }

  const auto start = Clock::now();
  for (int rep = 0;; ++rep) {
    repetition(rep);
    const double elapsed = seconds_since(start);
    const double per_rep = elapsed / (rep + 1);
    if (rep + 1 >= 3 && elapsed + per_rep > opt_.seconds) break;
  }

  for (std::size_t i = 0; i < digests_.size(); ++i) {
    std::printf("digest %s/%s %s\n", w_.name.c_str(),
                w_.scenarios[i].name.c_str(), digests_[i].c_str());
  }

  std::vector<Metric> metrics;
  if (opt_.trace) {
    const LayerProbes probes =
        run_layer_probes(w_.scenarios.front().config, spans_);
    outcome_.drift = outcome_.drift || probes.alloc_drift;
    metrics = per_layer(probes);
    for (const auto& [name, self] : spans_.self_seconds()) {
      std::printf("span %-28s self %.6f s\n", name.c_str(), self);
    }
  } else {
    metrics = end_to_end();
  }
  std::printf("failed_frac %.6f (%llu of %llu scenario outputs)\n",
              ratio(static_cast<double>(outcome_.failed),
                    static_cast<double>(outcome_.attempted)),
              static_cast<unsigned long long>(outcome_.failed),
              static_cast<unsigned long long>(outcome_.attempted));
  for (const Metric& m : metrics) {
    std::printf("metric %-36s %.10g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const bool correct = outcome_.failed == 0 && !outcome_.drift;
  write_results(metrics, correct);

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome_.attempted) +
          ", \"failed\": " + std::to_string(outcome_.failed) +
          ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::parse_options(argc, argv, opt)) {
    std::string names;
    for (const auto& n : perfbench::workload_names()) names += " " + n;
    std::fprintf(stderr,
                 "usage: ibsec_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\nworkloads:%s\n",
                 names.c_str());
    return 2;
  }
  auto workload = perfbench::make_workload(opt.workload, opt.seed);
  if (!workload) {
    std::fprintf(stderr, "ibsec_perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  perfbench::Bench bench(std::move(opt), std::move(*workload));
  return bench.run();
}
