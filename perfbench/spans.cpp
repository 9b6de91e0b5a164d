#include "spans.h"

#include <cstdio>

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {
  if (enabled_) {
    spans_.reserve(1u << 16);  // a 600 s run of the largest workload: ~11k
    open_.reserve(64);
  }
}

double SpanRecorder::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

SpanRecorder::Scope SpanRecorder::open(const char* name) {
  if (!enabled_) return Scope(nullptr, -1);
  Span span;
  span.name = name;
  span.id = static_cast<int>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.group = group_;
  span.start_s = now_s();
  spans_.push_back(span);
  open_.push_back(spans_.back().id);
  return Scope(this, spans_.back().id);
}

void SpanRecorder::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_s = now_s();
  // Scopes are stack objects, so the span closing is the innermost open one.
  open_.pop_back();
}

std::map<std::string, double> SpanRecorder::self_seconds() const {
  // Children never outlive their parent, so the part of a parent's interval
  // its children cover is the sum of their durations.
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    self[s.name] +=
        (s.end_s - s.start_s) - child_s[static_cast<std::size_t>(s.id)];
  }
  return self;
}

std::string SpanRecorder::to_json() const {
  std::string out = "[";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\": \"%s\", \"id\": %d, \"parent\": %d, "
                  "\"group\": %d, \"start_us\": %.3f, \"end_us\": %.3f}",
                  i == 0 ? "" : ",", s.name, s.id, s.parent, s.group,
                  s.start_s * 1e6, s.end_s * 1e6);
    out += buf;
  }
  out += "\n]";
  return out;
}

}  // namespace perfbench
