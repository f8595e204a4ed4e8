// Causal profiler, part 1: time accounting and critical-path extraction.
//
// build_profile() post-processes a RunRecorder stream into
//
//   (a) a time-accounting breakdown: every instant of every process's span
//       (first event .. last event) is classified into exactly one of five
//       categories — useful committed compute, wasted (later-discarded)
//       compute, rollback/restore cost, verification/control-protocol
//       overhead, or channel stall — so the per-process categories sum to
//       the span *exactly* and the global totals sum to the total virtual
//       process time.  "Where did the time go?" becomes a partition, not a
//       collection of overlapping counters.
//
//   (b) the critical path of the committed run: the longest dependency
//       chain through program order, fork-spawn edges, and message
//       send->deliver edges, with its own per-category breakdown.  A
//       committed speculative join adds *no* left->right edge — that
//       missing edge is the paper's win — so the path length is an honest
//       lower bound on completion time and useful/length an honest upper
//       bound on achievable speedup.
//
// All accounting runs on the event `when` clock, which is virtual time on
// every executor; events carry no wall-clock time.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/recorder.h"
#include "util/ids.h"

namespace ocsp::obs {

enum class TimeCategory : std::uint8_t {
  kUseful,    ///< compute that survived to commit
  kWasted,    ///< compute discarded by an abort or rollback
  kRollback,  ///< state restoration; the cost model charges it zero
              ///< virtual time, so this stays zero on every run
  kVerify,    ///< verification / control-protocol wait (guard resolution,
              ///< in-doubt join windows)
  kStall,     ///< waiting on a channel (receive/reply) or idle
};
inline constexpr std::size_t kTimeCategoryCount = 5;
const char* to_string(TimeCategory c);

struct TimeBreakdown {
  std::array<std::int64_t, kTimeCategoryCount> ns{};

  std::int64_t& operator[](TimeCategory c) {
    return ns[static_cast<std::size_t>(c)];
  }
  std::int64_t operator[](TimeCategory c) const {
    return ns[static_cast<std::size_t>(c)];
  }
  std::int64_t total() const;
  void add(const TimeBreakdown& other);
};

struct ProcessTimeProfile {
  ProcessId process = kNoProcess;
  std::string name;
  /// first event .. last event of this process.
  std::int64_t span_ns = 0;
  /// Exact partition of the span: breakdown.total() == span_ns.
  TimeBreakdown breakdown;
};

struct CriticalPathStep {
  ProcessId process = kNoProcess;
  std::uint32_t thread = 0;
  std::int64_t from_ns = 0;
  std::int64_t to_ns = 0;
  /// Step entered through a message edge (send at `from_ns` on the sender,
  /// delivery at `to_ns` here); the hop's latency is accounted as stall.
  bool via_message = false;
  MsgId msg_id = 0;
};

struct CriticalPath {
  std::int64_t length_ns = 0;
  /// Exact partition of the path: breakdown.total() == length_ns.
  TimeBreakdown breakdown;
  std::vector<CriticalPathStep> steps;
  /// Vector-clock check over the extracted steps: every adjacent pair is
  /// causally ordered (same-process program order or happens-before across
  /// a message hop).  False means the extraction itself is broken.
  bool causally_valid = false;
};

struct RunProfile {
  /// First event .. last event across all processes.
  std::int64_t run_span_ns = 0;
  /// Sum of per-process spans ("total virtual process time").
  std::int64_t total_process_ns = 0;
  /// Sum of the per-process breakdowns; global.total() == total_process_ns.
  TimeBreakdown global;
  std::vector<ProcessTimeProfile> per_process;
  CriticalPath critical_path;
  /// kWorkDiscarded nanoseconds that could not be matched to recorded
  /// compute segments (replay-reconstructed compute has no kComputeDone of
  /// its own); should be 0 on checkpoint-strategy runs.
  std::int64_t unmatched_wasted_ns = 0;
};

/// `process_names[id]`, or "P<id>" for a process the list does not name.
std::string process_label(const std::vector<std::string>& process_names,
                          ProcessId id);

/// Post-process a recorded run.  `process_names` maps ProcessId to a
/// display name (ids beyond the vector render as "P<id>").
RunProfile build_profile(const RunRecorder& recorder,
                         const std::vector<std::string>& process_names);

/// Human-readable report: global + per-process breakdown table and the
/// critical-path summary.
std::string profile_table(const RunProfile& profile);

}  // namespace ocsp::obs
