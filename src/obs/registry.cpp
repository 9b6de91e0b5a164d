#include "obs/registry.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace ibsec::obs {

// --- Snapshot ----------------------------------------------------------------

std::int64_t Snapshot::at(const std::string& name) const {
  const auto it = values.find(name);
  return it == values.end() ? 0 : it->second;
}

bool glob_match(std::string_view pattern, std::string_view name) {
  // Iterative glob with '*' backtracking (the classic two-pointer scan).
  std::size_t p = 0, n = 0;
  std::size_t star = std::string_view::npos, restart = 0;
  while (n < name.size()) {
    if (p < pattern.size() &&
        (pattern[p] == name[n])) {
      ++p;
      ++n;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      restart = n;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      n = ++restart;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::int64_t Snapshot::sum_matching(std::string_view pattern) const {
  std::int64_t sum = 0;
  for (const auto& [name, value] : values) {
    if (glob_match(pattern, name)) sum += value;
  }
  return sum;
}

std::size_t Snapshot::count_matching(std::string_view pattern) const {
  std::size_t n = 0;
  for (const auto& [name, value] : values) {
    if (glob_match(pattern, name)) ++n;
  }
  return n;
}

std::string Snapshot::to_json() const {
  std::string out = "{";
  bool first = true;
  char buf[32];
  for (const auto& [name, value] : values) {
    if (!first) out += ",";
    first = false;
    out += "\n  \"";
    out += name;  // metric names never contain quotes or backslashes
    out += "\": ";
    std::snprintf(buf, sizeof buf, "%" PRId64, value);
    out += buf;
  }
  out += first ? "}" : "\n}";
  out += "\n";
  return out;
}

std::string Snapshot::to_csv() const {
  std::string out = "name,value\n";
  char buf[32];
  for (const auto& [name, value] : values) {
    out += name;
    out += ",";
    std::snprintf(buf, sizeof buf, "%" PRId64, value);
    out += buf;
    out += "\n";
  }
  return out;
}

std::optional<Snapshot> Snapshot::from_json(std::string_view json) {
  Snapshot snap;
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < json.size() && (json[i] == ' ' || json[i] == '\n' ||
                               json[i] == '\t' || json[i] == '\r')) {
      ++i;
    }
  };
  skip_ws();
  if (i >= json.size() || json[i] != '{') return std::nullopt;
  ++i;
  skip_ws();
  if (i < json.size() && json[i] == '}') return snap;  // empty object
  for (;;) {
    skip_ws();
    if (i >= json.size() || json[i] != '"') return std::nullopt;
    const std::size_t key_start = ++i;
    while (i < json.size() && json[i] != '"') ++i;
    if (i >= json.size()) return std::nullopt;
    std::string key(json.substr(key_start, i - key_start));
    ++i;
    skip_ws();
    if (i >= json.size() || json[i] != ':') return std::nullopt;
    ++i;
    skip_ws();
    const bool neg = i < json.size() && json[i] == '-';
    if (neg) ++i;
    if (i >= json.size() || json[i] < '0' || json[i] > '9') {
      return std::nullopt;
    }
    std::int64_t value = 0;
    while (i < json.size() && json[i] >= '0' && json[i] <= '9') {
      value = value * 10 + (json[i] - '0');
      ++i;
    }
    snap.values[std::move(key)] = neg ? -value : value;
    skip_ws();
    if (i >= json.size()) return std::nullopt;
    if (json[i] == ',') {
      ++i;
      continue;
    }
    if (json[i] == '}') return snap;
    return std::nullopt;
  }
}

// --- Registry ----------------------------------------------------------------

Registry::Metric* Registry::resolve(const std::string& name, Kind kind) {
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    it = metrics_.emplace(name, std::make_unique<Metric>(kind)).first;
  } else if (it->second->kind != kind) {
    ++kind_collisions_;
    return nullptr;
  }
  return it->second.get();
}

Counter& Registry::counter(const std::string& name) {
  Metric* m = resolve(name, Kind::kCounter);
  return m != nullptr ? m->counter : sink_counter_;
}

Gauge& Registry::gauge(const std::string& name) {
  Metric* m = resolve(name, Kind::kGauge);
  return m != nullptr ? m->gauge : sink_gauge_;
}

TimeAccumulator& Registry::time_accumulator(const std::string& name) {
  Metric* m = resolve(name, Kind::kTime);
  return m != nullptr ? m->time : sink_time_;
}

Histogram& Registry::histogram(const std::string& name, double upper,
                               int buckets) {
  Metric* m = resolve(name, Kind::kHistogram);
  if (m == nullptr) return sink_hist_;
  if (m->hist == nullptr) {
    m->hist = std::make_unique<Histogram>(upper, buckets);
  }
  return *m->hist;
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  for (const auto& [name, metric] : metrics_) {
    switch (metric->kind) {
      case Kind::kCounter:
        snap.values[name] =
            static_cast<std::int64_t>(metric->counter.value());
        break;
      case Kind::kGauge:
        snap.values[name] = metric->gauge.value();
        snap.values[name + ".hwm"] = metric->gauge.high_water();
        break;
      case Kind::kTime:
        snap.values[name + ".total_ps"] = metric->time.total();
        snap.values[name + ".count"] =
            static_cast<std::int64_t>(metric->time.count());
        break;
      case Kind::kHistogram: {
        const Histogram& h = *metric->hist;
        snap.values[name + ".count"] =
            static_cast<std::int64_t>(h.total());
        snap.values[name + ".overflow"] =
            static_cast<std::int64_t>(h.overflow());
        snap.values[name + ".p50_x1000"] = std::llround(h.p50() * 1000.0);
        snap.values[name + ".p99_x1000"] = std::llround(h.p99() * 1000.0);
        snap.values[name + ".p999_x1000"] = std::llround(h.p999() * 1000.0);
        // Exact sample extremes: the tail anchors interpolated percentiles
        // can't provide (forensics reads the worst single observation).
        snap.values[name + ".min_x1000"] = std::llround(h.min() * 1000.0);
        snap.values[name + ".max_x1000"] = std::llround(h.max() * 1000.0);
        break;
      }
    }
  }
  if (kind_collisions_ > 0) {
    snap.values["obs.kind_collisions"] =
        static_cast<std::int64_t>(kind_collisions_);
  }
  return snap;
}

}  // namespace ibsec::obs
