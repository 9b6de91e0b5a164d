// Fabric-wide observability: a hierarchical metrics registry.
//
// Every Simulator owns one Registry (no globals — sweep determinism across
// ThreadPool workers depends on per-instance state). Components resolve
// handles once, at construction, by hierarchical name
// ("switch.3.drop.pkey_mismatch", "link.sw2.out1.credit_stall",
// "auth.verify_fail.umac") and record through the handle with a single
// inlined integer add — no map lookup on the hot path. Two components
// resolving the same name share one metric, which is how fabric-wide
// aggregates (auth.*, sm.*, attack.*) fall out for free.
//
// Snapshots are flat, name-sorted, integer-valued maps: byte-identical
// JSON/CSV for identical (topology, seed) runs regardless of wall clock,
// worker count, or sweep ordering — the property the determinism
// regression tests pin down.
//
// A registry cannot be switched off: a registered counter is often the only
// record of its event (component accessors such as Link::packets_sent()
// read the handle), so a disabled registry would silently zero them.
//
// Thread-safety: a Registry and every handle it hands out are deliberately
// NOT thread-safe — no atomics, no locks, by design: metrics record on the
// simulator hot path, and a Registry is owned by exactly one Simulator,
// which is single-threaded. Parallel sweeps give each worker its own
// Simulator (and thus Registry); workers must never record into or
// snapshot another worker's registry. The CI TSan lane runs the
// multi-worker sweep tests to keep that ownership rule honest.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/stats.h"
#include "common/time.h"

namespace ibsec::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Instantaneous level (queue depth, table size); tracks its high-water mark.
class Gauge {
 public:
  void set(std::int64_t v) {
    value_ = v;
    if (v > high_water_) high_water_ = v;
  }
  void add(std::int64_t delta) { set(value_ + delta); }
  std::int64_t value() const { return value_; }
  std::int64_t high_water() const { return high_water_; }

 private:
  std::int64_t value_ = 0;
  std::int64_t high_water_ = 0;
};

/// Accumulates simulated-time durations (credit stalls, SIF armed time).
class TimeAccumulator {
 public:
  void add(SimTime duration) {
    total_ += duration;
    ++count_;
  }
  SimTime total() const { return total_; }
  std::uint64_t count() const { return count_; }

 private:
  SimTime total_ = 0;
  std::uint64_t count_ = 0;
};

/// A point-in-time copy of every exported metric, flattened to integers:
///   counter           -> "<name>"
///   gauge             -> "<name>", "<name>.hwm"
///   time accumulator  -> "<name>.total_ps", "<name>.count"
///   histogram         -> "<name>.count", "<name>.overflow",
///                        "<name>.p50_x1000", "<name>.p99_x1000",
///                        "<name>.p999_x1000", "<name>.min_x1000",
///                        "<name>.max_x1000"
struct Snapshot {
  std::map<std::string, std::int64_t> values;

  bool operator==(const Snapshot&) const = default;

  /// Value by exact name; 0 when absent.
  std::int64_t at(const std::string& name) const;
  bool contains(const std::string& name) const {
    return values.count(name) != 0;
  }

  /// Sum of every entry whose name matches `pattern` ('*' matches any run
  /// of characters, may appear multiple times).
  std::int64_t sum_matching(std::string_view pattern) const;
  /// Number of entries matching `pattern`.
  std::size_t count_matching(std::string_view pattern) const;

  /// Flat JSON object, keys sorted, integer values only — byte-stable.
  std::string to_json() const;
  /// "name,value" rows with a header line, keys sorted.
  std::string to_csv() const;
  /// Parses the exact format to_json emits; nullopt on malformed input.
  static std::optional<Snapshot> from_json(std::string_view json);
};

/// Does `name` match `pattern` under the Snapshot wildcard rules? Exposed
/// for tests and ad-hoc filtering.
bool glob_match(std::string_view pattern, std::string_view name);

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Resolve-or-create by name. Resolving an existing name with the same
  /// kind returns the same object; with a *different* kind it returns a
  /// sink (the original keeps its data) and the mismatch is exported as
  /// "obs.kind_collisions".
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  TimeAccumulator& time_accumulator(const std::string& name);
  /// Histogram spec (upper, buckets) is fixed by the first resolution.
  Histogram& histogram(const std::string& name, double upper, int buckets);

  /// Number of registered (exported) metrics.
  std::size_t size() const { return metrics_.size(); }
  std::uint64_t kind_collisions() const { return kind_collisions_; }

  Snapshot snapshot() const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kTime, kHistogram };

  struct Metric {
    explicit Metric(Kind k) : kind(k) {}
    Kind kind;
    Counter counter;
    Gauge gauge;
    TimeAccumulator time;
    std::unique_ptr<Histogram> hist;
  };

  /// nullptr when the name exists with a different kind.
  Metric* resolve(const std::string& name, Kind kind);

  std::map<std::string, std::unique_ptr<Metric>> metrics_;
  std::uint64_t kind_collisions_ = 0;

  // Sinks absorb records from kind collisions; they are never exported.
  Counter sink_counter_;
  Gauge sink_gauge_;
  TimeAccumulator sink_time_;
  Histogram sink_hist_{1.0, 1};
};

}  // namespace ibsec::obs
