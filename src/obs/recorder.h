// RunRecorder: the structured event sink of a run.
//
// One recorder per Runtime; every process, the network, and the scheduler
// funnel their Events here.  Events are stored in recording order (which,
// on the deterministic kernel, is a total order consistent with virtual
// time) and counted per kind so reconciliation against SpecStats is O(1).
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "obs/events.h"

namespace ocsp::obs {

class RunRecorder {
 public:
  /// Recording is on by default; disabling makes record() a cheap no-op
  /// (counters included) for perf-sensitive sweeps.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Install a wall-clock source (ns since run start).  When set, every
  /// recorded event without an explicit wall_ns gets stamped, as the
  /// sharded executor's recorders are.  Simulator runs leave it unset and
  /// events keep wall_ns == -1.
  void set_wall_clock(std::function<std::int64_t()> clock) {
    wall_clock_ = std::move(clock);
  }

  void record(Event e) {
    if (!enabled_) return;
    if (wall_clock_ && e.wall_ns < 0) e.wall_ns = wall_clock_();
    ++counts_[static_cast<std::size_t>(e.kind)];
    if (e.kind == EventKind::kAbort) {
      ++abort_counts_[static_cast<std::size_t>(e.reason)];
    }
    events_.push_back(std::move(e));
  }

  const std::vector<Event>& events() const { return events_; }
  std::size_t count(EventKind k) const {
    return counts_[static_cast<std::size_t>(k)];
  }
  std::size_t abort_count(AbortReason r) const {
    return abort_counts_[static_cast<std::size_t>(r)];
  }

  void clear() {
    events_.clear();
    counts_.fill(0);
    abort_counts_.fill(0);
  }

 private:
  bool enabled_ = true;
  std::function<std::int64_t()> wall_clock_;
  std::vector<Event> events_;
  std::array<std::size_t, kEventKindCount> counts_{};
  std::array<std::size_t, kAbortReasonCount> abort_counts_{};
};

}  // namespace ocsp::obs
