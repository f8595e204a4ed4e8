// RunRecorder: the structured event sink of a run.
//
// One recorder per host; every process, the network, and the transport
// funnel their Events here.  Events are stored in recording order (which,
// on the deterministic kernel, is a total order consistent with virtual
// time).  The recorder keeps no tallies of its own: the run's counters
// (SpecStats, MetricsRegistry) are bumped by the recording funnel before an
// event reaches it, so they survive set_enabled(false).
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "obs/events.h"

namespace ocsp::obs {

class RunRecorder {
 public:
  /// Recording is on by default; disabling makes record() a cheap no-op
  /// for perf-sensitive sweeps.
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
    events_.push_back(std::move(e));
  }

  const std::vector<Event>& events() const { return events_; }

  /// Stored events of one kind (a scan; for tests and reports).
  std::size_t count(EventKind k) const {
    return std::count_if(events_.begin(), events_.end(),
                         [k](const Event& e) { return e.kind == k; });
  }
  /// Stored kAbort events with reason `r`.
  std::size_t abort_count(AbortReason r) const {
    return std::count_if(events_.begin(), events_.end(), [r](const Event& e) {
      return e.kind == EventKind::kAbort && e.reason == r;
    });
  }

  void clear() { events_.clear(); }

 private:
  bool enabled_ = true;
  std::function<std::int64_t()> wall_clock_;
  std::vector<Event> events_;
};

}  // namespace ocsp::obs
