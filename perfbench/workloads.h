// The benchmark's four workloads and the checks every scenario output must
// pass. README.md in this directory says why each workload was chosen.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "workload/scenario.h"

namespace perfbench {

struct NamedConfig {
  std::string name;
  ibsec::workload::ScenarioConfig config;
};

struct Workload {
  std::string name;
  std::vector<NamedConfig> scenarios;
  /// True at the default seed (offset 0): every scenario's snapshot digest
  /// is pinned and checked.
  bool digests_pinned = false;
};

/// Names accepted by make_workload, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Builds workload `name` with every scenario seed shifted by `seed_offset`
/// from the paper's seed (offset 0 = the paper's seed); nullopt for an
/// unknown name.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed_offset);

/// The same configuration with the trace, audit log and time series off.
ibsec::workload::ScenarioConfig without_obs(
    ibsec::workload::ScenarioConfig config);

/// Hex SHA-256 of `snapshot.to_json()`.
std::string snapshot_digest(const ibsec::obs::Snapshot& snapshot);

/// The digest pinned for `workload`/`scenario` at the default seed, if any.
std::optional<std::string> pinned_digest(const std::string& workload,
                                         const std::string& scenario);

/// Packet conservation on a snapshot taken after the event queue drained:
/// every injected packet was dropped by a switch, lost on a link, or
/// received by an HCA and retired exactly once by its CA. Returns one line
/// per violated identity (empty = holds).
std::vector<std::string> check_conservation(
    const ibsec::obs::Snapshot& drained, int nodes);

/// Each export the configuration turns on is non-empty. Returns one line
/// per empty export.
std::vector<std::string> check_exports(
    const ibsec::workload::ScenarioConfig& config,
    const ibsec::workload::ScenarioResult& result);

}  // namespace perfbench
