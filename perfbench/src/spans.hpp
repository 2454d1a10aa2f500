// In-memory span log for the traced pass: one span per public call the
// benchmark makes into the simulator (make_run_config, the Cluster
// constructor, Cluster::run, run_metrics_json, the SweepService
// constructor and run_batch), nested under per-cell and per-pass spans.
// Spans are held in memory and written out once, when the run ends.
//
// The log is the only tracing in the traced pass besides the simulator's
// own sampled phase timer; untraced passes time the same calls with plain
// steady_clock reads and record nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class SpanLog {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    std::string name;          ///< the call, e.g. "Cluster::run"
    std::string label;         ///< the cell or request it served
    Clock::time_point begin;
    Clock::time_point end;
  };

  SpanLog() : origin_(Clock::now()) {}

  /// Spans are recorded only while enabled (the traced passes).
  void enable(bool on) { enabled_ = on; }

  /// Allocates an id, so a parent can be named before its children are
  /// recorded (parents are added when they close, after their children).
  std::uint32_t next_id() { return enabled_ ? ++last_id_ : 0; }

  /// Records a closed span and returns its id: `id` when the caller reserved
  /// one with next_id (so children could name it), else a fresh one.
  /// No-op returning 0 when disabled.
  std::uint32_t add(std::uint32_t parent, std::string name, std::string label,
                    Clock::time_point begin, Clock::time_point end,
                    std::uint32_t id = 0) {
    if (!enabled_) return 0;
    if (id == 0) id = next_id();
    spans_.push_back(Span{id, parent, std::move(name), std::move(label), begin, end});
    return id;
  }

  /// Writes every span as one JSON document (ids, parent, name, label,
  /// start/end in ns since the log was created, and self time = duration
  /// minus the time its direct children cover).  Returns false on I/O error.
  bool write_json(const std::string& path, const std::string& header_json) const;

  std::size_t size() const { return spans_.size(); }

 private:
  bool enabled_ = false;
  Clock::time_point origin_;
  std::uint32_t last_id_ = 0;
  std::vector<Span> spans_;
};

}  // namespace perfbench
