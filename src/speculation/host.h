// Host: one event kernel and the wire its processes share.
//
// A host owns the discrete-event scheduler, the simulated network, the
// reliable transport bound to that network, the fault injector, and the
// run recorder, and wires the observers between them: every send,
// delivery, injected fault, retransmission, and suppressed duplicate is
// recorded here and nowhere else.  spec::Runtime is
// one host.  Each shard of exec::ParallelRuntime is one host in per-link
// mode, whose network routes envelopes for other shards' processes to the
// executor (net::Network::set_router).  A SpeculativeProcess runs against
// its host: it schedules its steps on it and sends through it.
#pragma once

#include <functional>
#include <memory>

#include "fault/injector.h"
#include "fault/plan.h"
#include "net/network.h"
#include "net/reliable.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace ocsp::spec {

class Host {
 public:
  /// `net_rng` is the network's stream, the first split off the run seed;
  /// `per_link` selects the network's per-link mode.  A fault plan with
  /// crashes forces the reliable transport on: committed data survives
  /// downtime through its parked-delivery NIC model.
  Host(util::Rng net_rng, const net::LinkConfig& default_link, bool per_link,
       const fault::FaultPlan& fault_plan, net::ReliableConfig reliable);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  sim::Scheduler& scheduler() { return scheduler_; }
  net::Network& network() { return network_; }
  net::ReliableTransport& transport() { return transport_; }

  /// Structured event sink shared by the processes and the wire.
  obs::RunRecorder& recorder() { return *recorder_; }
  const obs::RunRecorder& recorder() const { return *recorder_; }
  std::shared_ptr<obs::RunRecorder> shared_recorder() const {
    return recorder_;
  }

  /// Real work standing in for a Compute statement of `duration` virtual
  /// nanoseconds.  The simulator burns nothing; the parallel executor
  /// installs a hook so its speedup curves measure genuine work.
  void set_compute_hook(std::function<void(sim::Time)> hook) {
    compute_hook_ = std::move(hook);
  }
  void on_compute(sim::Time duration) {
    if (compute_hook_) compute_hook_(duration);
  }

  /// Add this host's kernel, network, transport, and injector counters to
  /// `m`.  Counters add and sim_peak_pending keeps the maximum, so adding
  /// every shard's host yields the run-wide view.
  void add_counters(obs::MetricsRegistry& m) const;

 private:
  void record_msg_event(obs::EventKind kind, const net::Envelope& env);

  sim::Scheduler scheduler_;
  net::Network network_;
  net::ReliableTransport transport_;
  std::unique_ptr<fault::Injector> injector_;
  std::shared_ptr<obs::RunRecorder> recorder_;
  std::function<void(sim::Time)> compute_hook_;
};

}  // namespace ocsp::spec
