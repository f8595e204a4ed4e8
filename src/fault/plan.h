// Seeded, fully deterministic fault plans.
//
// A FaultPlan describes everything hostile the simulated substrate will do
// to one run: per-plane message drop/duplicate/corrupt probabilities, link
// partition windows with heal times, and process crash/restart events at
// virtual times.  Plans are plain data — the same plan plus the same seeds
// always yields the same committed trace, which is what lets the chaos
// sweep use Theorem 1 trace equality as its oracle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"
#include "util/ids.h"

namespace ocsp::fault {

/// Per-plane message fault probabilities, applied independently per send.
struct PlaneFaults {
  /// Probability a message is silently dropped in flight.
  double drop = 0.0;
  /// Probability one extra copy of the message is delivered later.
  double duplicate = 0.0;
  /// Probability the payload is mangled in flight; the receiver's checksum
  /// detects and discards it, so protocol-wise this is a counted loss.
  double corrupt = 0.0;

  bool any() const { return drop > 0.0 || duplicate > 0.0 || corrupt > 0.0; }
};

/// Bidirectional partition of the (a, b) link over [start, end): every
/// message between the pair in the window is dropped; the link heals at
/// `end`.
struct PartitionWindow {
  ProcessId a = 0;
  ProcessId b = 0;
  sim::Time start = 0;
  sim::Time end = 0;
};

/// Crash `process` at virtual time `at`; restart it at `restart_at`.  State
/// committed before the crash survives (stable storage); uncommitted
/// speculation is aborted through the normal cascade machinery with an
/// incarnation bump.
struct CrashEvent {
  ProcessId process = 0;
  sim::Time at = 0;
  sim::Time restart_at = 0;
};

struct FaultPlan {
  bool enabled = false;
  PlaneFaults data;
  PlaneFaults control;
  std::vector<PartitionWindow> partitions;
  std::vector<CrashEvent> crashes;

  bool has_crashes() const { return enabled && !crashes.empty(); }

  /// Compact human-readable summary ("drop(d=0.21,c=0.21)+crash(p1)").
  std::string describe() const;
};

/// Knobs for the seeded chaos-plan generator.  Defaults are tuned so every
/// generated plan is survivable by the recovery stack: drop rates stay well
/// under the retransmit budget, partition windows heal inside the control
/// retry window, and crash downtime is shorter than both.
struct ChaosSpec {
  double max_drop = 0.35;
  double max_duplicate = 0.30;
  double max_corrupt = 0.25;
  int max_partitions = 2;
  sim::Time partition_min_len = sim::milliseconds(10);
  sim::Time partition_max_len = sim::milliseconds(200);
  int max_crashes = 2;
  sim::Time crash_min_downtime = sim::milliseconds(10);
  sim::Time crash_max_downtime = sim::milliseconds(120);
  /// Window in which partition starts and crash times are drawn.
  sim::Time horizon = sim::seconds(2);
};

/// Deterministically generate fault plan #seed.  `seed % 6` picks the plan
/// category — 0 drop, 1 duplicate, 2 corrupt, 3 partition, 4 crash,
/// 5 mixed — so any contiguous block of 6+ seeds spans every fault class;
/// the remaining seed bits drive the magnitudes.  Processes are assumed
/// densely numbered [0, num_processes).
FaultPlan make_chaos_plan(std::uint64_t seed, const ChaosSpec& spec,
                          std::uint32_t num_processes);

}  // namespace ocsp::fault
