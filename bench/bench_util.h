// Shared helpers for the figure/table benches: consistent table printing,
// the Table 1 parameter banner every experiment leads with, and the metrics
// snapshot dump for machine-readable output.
#pragma once

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "workload/scenario.h"

namespace ibsec::bench {

/// Machine-readable bench output: an insertion-ordered {metric -> value} map
/// serialized as one flat JSON object per run label. BENCH_core.json stores
/// one such object per trajectory point ("before", "after", CI runs), so a
/// perf PR always carries its own measuring stick.
class BenchReport {
 public:
  explicit BenchReport(std::string label) : label_(std::move(label)) {}

  void set(const std::string& key, double value) {
    for (auto& kv : metrics_) {
      if (kv.first == key) {
        kv.second = value;
        return;
      }
    }
    metrics_.emplace_back(key, value);
  }

  const std::string& label() const { return label_; }
  const std::vector<std::pair<std::string, double>>& metrics() const {
    return metrics_;
  }

  /// {"label": "...", "metrics": {"k": v, ...}} with stable key order.
  std::string to_json() const {
    std::ostringstream out;
    out << "{\n  \"label\": \"" << label_ << "\",\n  \"metrics\": {\n";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.6g", metrics_[i].second);
      out << "    \"" << metrics_[i].first << "\": " << buf
          << (i + 1 < metrics_.size() ? ",\n" : "\n");
    }
    out << "  }\n}\n";
    return out.str();
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << to_json();
    return static_cast<bool>(out);
  }

  /// Pulls `"key": <number>` out of a BenchReport-shaped JSON text. Good
  /// enough for the perf-smoke regression gate reading files this class
  /// wrote; not a general JSON parser.
  static std::optional<double> read_metric(const std::string& json_text,
                                           const std::string& key) {
    const std::string needle = "\"" + key + "\":";
    const auto pos = json_text.find(needle);
    if (pos == std::string::npos) return std::nullopt;
    const char* start = json_text.c_str() + pos + needle.size();
    char* end = nullptr;
    const double value = std::strtod(start, &end);
    if (end == start) return std::nullopt;
    return value;
  }

 private:
  std::string label_;
  std::vector<std::pair<std::string, double>> metrics_;
};

inline void print_testbed_banner(const fabric::FabricConfig& cfg) {
  std::printf("Testbed (paper Table 1):\n");
  std::printf("  Physical link bandwidth : %.1f Gbps\n",
              static_cast<double>(cfg.link.bandwidth_bps) / 1e9);
  std::printf("  VLs per physical link   : %d\n", cfg.link.num_vls);
  std::printf("  MTU                     : %zu bytes\n", cfg.mtu_bytes);
  std::printf("  Topology                : %s\n",
              cfg.topology.describe().c_str());
  std::printf("\n");
}

/// Parses an optional `--topology SPEC` flag from a bench's argv (the only
/// flag the figure benches take — they are otherwise fixed reproductions).
/// Returns false (after printing a diagnostic) on a malformed spec or an
/// unknown argument; an absent flag leaves `out` untouched (mesh default).
inline bool parse_topology_arg(int argc, char** argv,
                               fabric::TopologySpec& out) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--topology" && i + 1 < argc) {
      const auto spec = fabric::TopologySpec::parse(argv[++i]);
      if (!spec) {
        std::fprintf(stderr, "bad --topology spec: %s\n", argv[i]);
        return false;
      }
      out = *spec;
    } else {
      std::fprintf(stderr,
                   "unknown argument %s (benches accept only "
                   "--topology SPEC)\n",
                   arg.c_str());
      return false;
    }
  }
  return true;
}

/// Writes a registry snapshot to `path` as JSON (".json" suffix) or CSV
/// (anything else). Returns false when the file cannot be written.
inline bool write_metrics_file(const obs::Snapshot& snap,
                               const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  const bool json = path.size() >= 5 &&
                    path.compare(path.size() - 5, 5, ".json") == 0;
  out << (json ? snap.to_json() : snap.to_csv());
  return static_cast<bool>(out);
}

inline void print_class_row(const char* label,
                            const workload::ClassMetrics& m) {
  std::printf("%-28s queuing %8.2f us (sd %7.2f)   network %8.2f us (sd %7.2f)   n=%llu\n",
              label, m.queuing_us.mean(), m.queuing_us.stddev(),
              m.latency_us.mean(), m.latency_us.stddev(),
              static_cast<unsigned long long>(m.queuing_us.count()));
}

}  // namespace ibsec::bench
