// In-memory span recorder for the benchmark's traced run.
//
// Spans wrap the benchmark's own calls into each layer (Scenario
// construction, Scenario::run(), run_sweep(), the standalone layer probes);
// nothing inside the simulator is instrumented. Spans nest by scope: a span
// opened while another is open becomes its child, and a span's self time is
// its duration minus the part of it its children cover. Spans are kept in
// memory and written out once, when the benchmark ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< a literal: opening a span never allocates
  int id = 0;
  int parent = -1;     ///< id of the enclosing span, -1 for a root
  int group = 0;       ///< spans of one repetition share a group
  double start_s = 0;  ///< seconds since the recorder was created
  double end_s = 0;
};

class SpanRecorder {
 public:
  /// A disabled recorder hands out scopes that record nothing. An enabled
  /// one reserves its storage up front: the benchmark counts allocations
  /// inside spans, and the recorder must not add to them.
  explicit SpanRecorder(bool enabled);

  class Scope {
   public:
    Scope(SpanRecorder* recorder, int id) : recorder_(recorder), id_(id) {}
    ~Scope() {
      if (recorder_ != nullptr) recorder_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    int id_;
  };

  /// Opens a span that closes when the returned scope is destroyed.
  /// `name` must be a string literal.
  [[nodiscard]] Scope open(const char* name);
  void set_group(int group) { group_ = group; }

  /// Self seconds summed per span name.
  std::map<std::string, double> self_seconds() const;
  /// JSON array of the spans, times in microseconds.
  std::string to_json() const;

 private:
  void close(int id);
  double now_s() const;

  bool enabled_;
  int group_ = 0;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span ids
};

}  // namespace perfbench
