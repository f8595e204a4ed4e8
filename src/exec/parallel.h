// exec::ParallelRuntime: the speculation protocol on sharded worker threads.
//
// The deterministic simulator (spec::Runtime) runs every process on one
// host; this executor builds one host per shard (speculation/host.h: event
// kernel, network, transport, injector, recorder) and runs the
// shards on real threads.  Processes live in the executor's process table
// (speculation/process_table.h), assigned round-robin to shards, and the
// protocol implementation is untouched: a SpeculativeProcess runs against
// its shard's host exactly as it runs against the simulator.
//
// One send path: every shard's net::Network runs in per-link mode over the
// same seed base, so net::Network::send is the only code that decides a
// message's fate (loss, latency, bandwidth, FIFO, fault verdict, send
// trace, duplicates) on every executor.  An envelope for a process on
// another shard goes to the network's routing hook, which parks it in the
// sending shard's outbox for that destination; when the next window opens,
// the destination shard moves it into its own network's
// net::Network::deliver before it runs any event.
//
// Synchronization is a conservative window barrier (bounded-lag / YAWNS
// style), which in OCSP's setting is exactly a GVT fence:
//
//   * lookahead L = the minimum latency any configured link can produce
//     (net::Network::min_link_delay); a message sent at virtual time t is
//     delivered no earlier than t + L.
//   * GVT = min over shards of the earliest pending event and the earliest
//     parked envelope.  All events in the window [GVT, GVT + L) are
//     mutually independent across shards — any message one of them sends
//     lands at or after GVT + L — so the shards execute the window
//     concurrently with no locks.  Outboxes are double-buffered by window
//     parity: during a window each shard appends only under the current
//     parity and the destinations empty the other one.  At the window
//     barrier the coordinator recomputes GVT, flips the parity, and opens
//     the next window; every shard then queues what the last window parked
//     for it, in parallel with the others, and runs.
//   * Commit/abort/cascade below GVT are final: no in-flight message can
//     land before it, which is what makes the fence a GVT in the Time Warp
//     sense.  Speculation state is freed by each process's own
//     resolved-state sweep, exactly as on the simulator, so the barrier
//     makes no pass over the processes.
//
// Determinism: the committed trace — and, with one shard, the entire
// recorder stream — is bit-identical to the sequential simulator running
// with RuntimeOptions::per_link_net = true.  Per-link network mode makes
// message ids, latency/loss draws, and same-time delivery priorities pure
// functions of (src, dst, per-link sequence number), so the delivery
// schedule does not depend on the order in which an executor discovers
// sends.  Within a shard, the scheduler's (when, prio, seq) order preserves
// the relative firing order of the shard's processes exactly as in the
// global sequential run (deliveries carry unique (when, prio) keys; local
// events of one process keep their relative insertion order).
//
// Memory ordering: all shard state (hosts and the processes on them) is
// owned by exactly one thread during a window and by the coordinator
// between windows; every ownership handoff goes through the barrier mutex,
// which establishes the happens-before edges.  An outbox row changes hands
// the same way: its sender fills it in one window, the barrier passes it
// on, and its destination empties it in the next.  The barrier mutex is the
// only lock.
//
// Faults under sharding (DESIGN.md section 13): fault plans and the
// reliable transport run here with the same semantics as the simulator.
// Fault decisions draw from per-link fault streams
// (net::Network::link_fault_stream), so drop/duplicate/corrupt/partition
// outcomes are pure functions of (link, per-link seq) — identical at every
// worker count.  Each shard's host has its own ReliableTransport over its
// own scheduler, so retransmission timers are shard-local events fenced by
// the window barrier like any other (a retransmit fired at t lands at or
// after t + L, hence never below GVT).  Crash/restart events are scheduled
// into the victim's shard queue at their plan times: a crash at virtual
// time T fires inside the window containing T, and the incarnation bump it
// causes reaches remote dependents as ordinary messages (explicit ABORTs,
// or tags piggybacked on reliable frames) through the outboxes,
// driving SpeculativeProcess::observe_peer_incarnation's rollback fixpoint
// across shard boundaries.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "baseline/scenario.h"
#include "fault/plan.h"
#include "net/network.h"
#include "net/reliable.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "sim/time.h"
#include "speculation/config.h"
#include "speculation/host.h"
#include "speculation/process_table.h"
#include "util/ids.h"

namespace ocsp::exec {

struct ParallelOptions {
  std::uint64_t seed = 42;
  /// Worker threads == shards; processes are assigned round-robin
  /// (ProcessId mod workers).  1 runs the single shard inline on the
  /// calling thread — the fair serial baseline for speedup curves.
  int workers = 1;
  net::LinkConfig default_link;
  spec::SpecConfig spec;
  /// Seeded fault plan (drop/duplicate/corrupt/partition/crash), identical
  /// semantics to spec::RuntimeOptions::fault_plan.  Plans with crashes
  /// force `reliable.enabled` on, exactly as the sequential runtime does.
  fault::FaultPlan fault_plan;
  /// Ack/retransmit transport config; one transport per shard host.
  net::ReliableConfig reliable;
  /// Wall-nanoseconds of real busy-spin per virtual nanosecond of Compute.
  /// 0 (default) burns nothing: virtual time, traces, and counters are
  /// identical either way — the scale only decides how much real work the
  /// speedup benchmarks have to parallelize.
  double compute_scale = 0.0;
  /// Burn by sleeping instead of spinning.  A sleeping worker yields its
  /// core, so the curve measures how well the executor *overlaps*
  /// independent shards' compute — meaningful even when the host has fewer
  /// cores than workers.  Spin (the default) measures raw CPU scaling and
  /// needs as many cores as workers to show speedup.
  bool compute_sleep = false;
};

/// One GVT window as the coordinator saw it (the fencing audit trail the
/// GVT unit tests assert over).
struct WindowStats {
  /// Earliest pending event or parked envelope when the window opened.
  sim::Time gvt = 0;
  sim::Time end = 0;  ///< exclusive window end: min(gvt + L, deadline + 1)
  /// Earliest delivery time among the cross-shard messages the shards
  /// drained from their peers' outboxes at this window's start (kTimeNever
  /// if none); never below `gvt` — the straggler-safety invariant.
  sim::Time min_drained_delivery = sim::kTimeNever;
};

class ParallelRuntime final : public spec::ProcessTable {
 public:
  explicit ParallelRuntime(ParallelOptions options = {});
  ~ParallelRuntime();

  ParallelRuntime(const ParallelRuntime&) = delete;
  ParallelRuntime& operator=(const ParallelRuntime&) = delete;

  /// Override the link for the ordered pair (src, dst).  Call before run().
  void set_link(ProcessId src, ProcessId dst, net::LinkConfig config);

  /// Run to completion (or `deadline`).  Single-shot.  With a finite
  /// deadline returns `deadline` (as the sequential run_until does); with
  /// kTimeNever returns the time of the last event that actually fired on
  /// any shard — the sequential scheduler's post-drain clock, never the
  /// window end.
  sim::Time run(sim::Time deadline = sim::kTimeNever);

  int workers() const { return workers_; }
  /// Every shard's event queue and outbox is empty: the run ended because
  /// nothing was left to do, not at its deadline.
  bool drained() const;
  /// Window length: minimum latency over all configured links.  Valid
  /// after run() started.
  sim::Time lookahead() const { return lookahead_; }
  const std::vector<WindowStats>& windows() const { return windows_; }

  /// Run-wide metrics, as spec::Runtime::metrics with every shard's host
  /// counters summed, plus the executor's own gvt_windows.
  obs::MetricsRegistry metrics() const;

  /// Network counters summed over shards (sends/drops count on the
  /// sender's shard, deliveries on the receiver's).
  net::NetworkStats network_stats() const;

  /// All shard event streams merged by (virtual time, shard); each
  /// process's events keep their recording order, as in the sequential
  /// per-link run.
  std::shared_ptr<obs::RunRecorder> merged_recorder() const;

  /// Per-shard recorder (shards=1 oracle compares stream 0 bit-for-bit).
  std::shared_ptr<obs::RunRecorder> shard_recorder(int shard) const;

 private:
  struct Shard;

  /// Epoch barrier between the coordinator and the worker pool.  All shard
  /// state handoffs ride on `m`: workers read `target` under it and report
  /// back under it, so everything a worker wrote during a window
  /// happens-before everything the coordinator reads at the fence.
  struct Barrier {
    std::mutex m;
    std::condition_variable cv;
    std::uint64_t epoch = 0;
    int running = 0;
    sim::Time target = 0;
    bool shutdown = false;
  };

  std::size_t shard_of(ProcessId id) const {
    return static_cast<std::size_t>(id % static_cast<ProcessId>(workers_));
  }
  spec::Host& host_for(ProcessId id) override;
  void burn(sim::Time duration) const;
  /// Queue what the last window parked for shard `i`, then run it to
  /// `target`.
  void run_shard(std::size_t i, sim::Time target);
  void run_window(sim::Time target);
  void start_workers();
  void stop_workers();

  ParallelOptions options_;
  int workers_ = 1;
  sim::Time lookahead_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<WindowStats> windows_;
  /// Outbox parity that sends park under: written by the coordinator only
  /// between windows, read by the shards' routers during one.
  std::size_t parity_ = 0;
  Barrier bar_;
  std::vector<std::thread> pool_;
};

/// run_scenario's parallel counterpart: the RunResult fields are filled
/// exactly as baseline::run_scenario fills them (finished_at excepted; see
/// ParallelRuntime::run), plus the executor's wall clock and window log.
struct ParallelRunResult {
  baseline::RunResult result;
  std::int64_t wall_ns = 0;  ///< real time spent inside run()
  std::vector<WindowStats> windows;
  int workers = 1;
  sim::Time lookahead = 0;
};

/// Run `scenario` on `workers` threads — fault plans and the reliable
/// transport included.  scenario.options.per_link_net is implied — compare
/// against run_scenario on a scenario with that flag set to get the
/// matching sequential schedule.
ParallelRunResult run_scenario_parallel(const baseline::Scenario& scenario,
                                        int workers, bool speculation = true,
                                        double compute_scale = 0.0,
                                        sim::Time deadline = sim::kTimeNever,
                                        bool compute_sleep = false);

}  // namespace ocsp::exec
