// Runtime: the deterministic simulator, one host running every process of
// a run on one event kernel.
//
// A Runtime owns everything a run needs; benchmarks construct one per data
// point, run it to completion on virtual time, and read the stats,
// committed trace, and recorded events back out.  Its host
// (speculation/host.h) supplies the kernel, network, transport, injector,
// and recorder; its process table (speculation/process_table.h) holds the
// processes and answers everything asked about them.
#pragma once

#include <cstdint>

#include "fault/plan.h"
#include "net/network.h"
#include "net/reliable.h"
#include "obs/metrics.h"
#include "sim/time.h"
#include "speculation/config.h"
#include "speculation/host.h"
#include "speculation/process_table.h"
#include "util/ids.h"

namespace ocsp::spec {

struct RuntimeOptions {
  std::uint64_t seed = 42;
  net::LinkConfig default_link;
  SpecConfig spec;
  /// Deterministic fault schedule (disabled by default).  Crash plans
  /// force the reliable transport on — committed data must survive
  /// downtime via its parked-delivery NIC model.
  fault::FaultPlan fault_plan;
  /// Data-plane ack/retransmit transport (disabled by default).
  net::ReliableConfig reliable;
  /// Deterministic per-link network streams (net::Network's per-link
  /// mode).  Off by default — enabling it changes latency/loss draws and
  /// same-time delivery ordering, so existing seeds keep their schedules.
  /// The parallel executor always runs per-link; turn this on to obtain
  /// the sequential run it must match trace-for-trace.
  bool per_link_net = false;
};

class Runtime final : public ProcessTable, public Host {
 public:
  explicit Runtime(RuntimeOptions options = {});

  /// Run until the event queue drains or virtual time reaches `deadline`.
  /// Returns the virtual time at the end of the run.
  sim::Time run(sim::Time deadline = sim::kTimeNever);

  /// Run-wide metrics: per-process registries merged, plus kernel, network,
  /// transport, and injector counters and the recomputed gauges.
  obs::MetricsRegistry metrics() const;

 private:
  Host& host_for(ProcessId /*id*/) override { return *this; }

  fault::FaultPlan fault_plan_;
};

}  // namespace ocsp::spec
