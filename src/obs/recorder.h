// RunRecorder: the structured event sink of a run.
//
// One recorder per host; every process, the network, and the transport
// funnel their Events here.  Events are stored in recording order (which,
// on the deterministic kernel, is a total order consistent with virtual
// time).  The recorder keeps no tallies of its own: the run's counters
// (SpecStats, MetricsRegistry) are bumped by the recording funnel before an
// event reaches it, so they survive set_enabled(false).
//
// Detail strings (fork sites, message descriptions, fine reasons) are
// interned into one string table per recorder; an Event carries the id.
// Most events repeat a few strings (message kinds, fork sites), so the
// table holds far fewer strings than there are events, and each stored
// event is a fixed 72-byte record.  Recording reads no clock: an event's
// only time is its virtual `when`.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/events.h"
#include "util/check.h"

namespace ocsp::obs {

class RunRecorder {
 public:
  /// Recording is on by default; disabling makes record() a cheap no-op
  /// for perf-sensitive sweeps.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Store `e`.  A non-empty `detail` is interned and replaces e.detail;
  /// an empty one keeps e.detail, which must then be 0 or an id of this
  /// recorder's table.  Nothing is interned while recording is disabled.
  void record(Event e, std::string_view detail = {}) {
    if (!enabled_) return;
    if (!detail.empty()) e.detail = intern(detail);
    events_.push_back(e);
  }

  /// Id of `s` in this recorder's string table, adding it on first sight.
  /// The empty string is id 0 and is never stored.
  std::uint32_t intern(std::string_view s) {
    if (s.empty()) return 0;
    auto it = ids_.find(s);
    if (it != ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(strings_.size() + 1);
    strings_.push_back(&ids_.emplace(std::string(s), id).first->first);
    return id;
  }

  /// The string with id `id` in this recorder's table.  The view stays
  /// valid for the recorder's lifetime.
  std::string_view string(std::uint32_t id) const {
    if (id == 0) return {};
    OCSP_CHECK_MSG(id <= strings_.size(), "detail id of another recorder");
    return *strings_[id - 1];
  }
  /// Detail string of an event this recorder stored.
  std::string_view detail(const Event& e) const { return string(e.detail); }
  /// Distinct non-empty strings interned so far (ids 1 to string_count()).
  std::size_t string_count() const { return strings_.size(); }

  /// obs::to_string with this recorder's detail string.
  std::string to_string(const Event& e) const {
    return obs::to_string(e, detail(e));
  }

  const std::vector<Event>& events() const { return events_; }
  /// Make room for `n` events in all, so a caller that knows the count
  /// (merge_recorders) grows the vector once.
  void reserve(std::size_t n) { events_.reserve(n); }

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

 private:
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  bool enabled_ = true;
  std::vector<Event> events_;
  /// Interned strings by id - 1; each points at its key in ids_, whose
  /// nodes never move.
  std::vector<const std::string*> strings_;
  std::unordered_map<std::string, std::uint32_t, StringHash, std::equal_to<>>
      ids_;
};

}  // namespace ocsp::obs
