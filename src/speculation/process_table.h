// ProcessTable: the processes of one run, whichever hosts they run on.
//
// The table owns every SpeculativeProcess of a run and answers, once for
// both executors, what a run is asked about its processes: name
// resolution, the committed trace (the Theorem 1 oracle), summed protocol
// counters and merged metrics, completion, and the fault plan's
// crash/restart orchestration.  spec::Runtime is a table over one host;
// exec::ParallelRuntime is a table over one host per shard.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "csp/env.h"
#include "csp/program.h"
#include "fault/plan.h"
#include "obs/metrics.h"
#include "sim/time.h"
#include "speculation/config.h"
#include "speculation/host.h"
#include "speculation/process.h"
#include "speculation/stats.h"
#include "trace/events.h"
#include "util/ids.h"
#include "util/rng.h"

namespace ocsp::spec {

class ProcessTable {
 public:
  ProcessTable(const ProcessTable&) = delete;
  ProcessTable& operator=(const ProcessTable&) = delete;

  /// Register a process on its host.  `spec_override` (if given) replaces
  /// the run's SpecConfig for this process only.  RNG streams are split off
  /// the run seed in registration order.
  ProcessId add_process(std::string name, csp::StmtPtr program,
                        csp::Env initial_env = {},
                        std::optional<SpecConfig> spec_override = {});

  SpeculativeProcess& process(ProcessId id);
  const SpeculativeProcess& process(ProcessId id) const;
  ProcessId find(const std::string& name) const;
  std::size_t process_count() const { return processes_.size(); }
  std::vector<ProcessId> all_process_ids() const;

  /// Process names indexed by ProcessId (for trace export).
  std::vector<std::string> process_names() const;

  /// Committed observable events of every process, appended in process-id
  /// order (Theorem 1 oracle).
  trace::CommittedTrace committed_trace() const;

  /// Sum of all processes' protocol counters.  Legacy view; each runtime's
  /// metrics() carries the same counters plus histograms and derived gauges.
  SpecStats total_stats() const;

  /// Metrics of one process: SpecStats counters + live histograms.
  obs::MetricsRegistry process_metrics(ProcessId id) const;

  /// Latest completion time among processes that completed.
  sim::Time last_completion_time() const;

  /// True if every client completed, and there is at least one.  A process
  /// whose program is one top-level `while (true)` loop — the shape
  /// csp::service_loop, native_service, and echo_service build — is a
  /// server and never completes, so it is not waited for.
  bool all_clients_completed() const;

 protected:
  ProcessTable(std::uint64_t seed, SpecConfig spec);
  ~ProcessTable() = default;

  /// The host process `id` runs on.
  virtual Host& host_for(ProcessId id) = 0;

  /// The network's stream: the first split off the run seed, taken before
  /// any process's.
  const util::Rng& net_stream() const { return net_stream_; }

  /// Start every process, then queue the plan's crashes and restarts on the
  /// victims' hosts.  Once per run; add_process is refused afterwards.
  void start(const fault::FaultPlan& plan);
  bool started() const { return started_; }

  /// Per-process registries merged, with the derived gauges recomputed.
  obs::MetricsRegistry merged_process_metrics() const;

 private:
  /// Fault-plan crash orchestration.  A crash takes the process's NIC down
  /// first, so in-flight frames are acked and parked from this instant on.
  /// A restart brings the process back from its last committed state, then
  /// the NIC up, which flushes the parked frames.
  void crash_process(ProcessId id);
  void restart_process(ProcessId id);

  util::Rng rng_;
  util::Rng net_stream_;
  SpecConfig spec_;
  struct Entry {
    std::unique_ptr<SpeculativeProcess> process;
    bool server = false;  ///< see all_clients_completed
  };
  std::vector<Entry> processes_;
  std::map<std::string, ProcessId> names_;
  bool started_ = false;
};

}  // namespace ocsp::spec
