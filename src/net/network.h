// Simulated network: routes envelopes between registered endpoints through
// per-pair links with configurable latency, bandwidth, ordering, and loss.
//
// Figure 4 of the paper (a time fault) requires a network where X's direct
// call to Z can overtake the Y->Z call it logically follows; setting
// fifo=false on a link (or giving pairs different latencies) reproduces
// exactly that.  Loss is used to exercise the control-broadcast liveness
// argument of section 4.2.5.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/envelope.h"
#include "net/latency.h"
#include "sim/scheduler.h"
#include "util/ids.h"
#include "util/rng.h"

namespace ocsp::net {

struct LinkConfig {
  LatencyModelPtr latency = fixed_latency(sim::microseconds(10));
  /// Bytes per virtual second; 0 disables the bandwidth term.
  std::uint64_t bandwidth_bytes_per_sec = 0;
  /// Deliver messages on this link in send order.
  bool fifo = true;
  /// Probability a message is silently dropped.  Loss applies to both
  /// planes: data-plane senders recover via the ack/retransmit transport
  /// (net/reliable.h) and control-plane senders via the blind re-broadcast
  /// of section 4.2.5 (SpecConfig::control_retry).
  double drop_probability = 0.0;

  /// When set, only messages matching the filter are subject to loss; the
  /// liveness experiments use it to target one plane at a time (e.g. drop
  /// COMMIT/ABORT/PRECEDENCE but leave data alone, or the reverse).  Leave
  /// unset to expose every message on the link to drop_probability.
  std::function<bool(const Message&)> drop_filter;
};

struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t bytes_sent = 0;
  /// Injected-fault outcomes (fault hook; disjoint from messages_dropped,
  /// which counts LinkConfig::drop_probability losses).
  std::uint64_t faults_dropped = 0;
  std::uint64_t faults_corrupted = 0;
  std::uint64_t faults_duplicated = 0;

  void merge(const NetworkStats& o) {
    messages_sent += o.messages_sent;
    messages_delivered += o.messages_delivered;
    messages_dropped += o.messages_dropped;
    bytes_sent += o.bytes_sent;
    faults_dropped += o.faults_dropped;
    faults_corrupted += o.faults_corrupted;
    faults_duplicated += o.faults_duplicated;
  }
};

/// Verdict of the fault hook for one send.  `corrupt` models a payload
/// mangled in flight and discarded by the receiver's checksum — from the
/// protocol's point of view it is a loss, but it is counted separately.
/// `duplicates` schedules that many extra deliveries of the same envelope.
struct FaultDecision {
  bool drop = false;
  bool corrupt = false;
  int duplicates = 0;
  const char* cause = "";
};

class Network {
 public:
  using Handler = std::function<void(const Envelope&)>;
  /// Trace hook observing every delivery (after the handler ran).
  using Tracer = std::function<void(const Envelope&)>;
  /// Fault hook consulted once per send (after latency/FIFO computation so
  /// fault decisions never perturb latency draws).  The util::Rng passed in
  /// is the network's dedicated fault stream.
  using FaultHook = std::function<FaultDecision(const Envelope&, util::Rng&)>;
  /// Routing hook consulted for every envelope send() is about to queue,
  /// duplicates included.  Returning true means the hook took the envelope:
  /// its destination lives on another network, whose deliver() queues it.
  using Router = std::function<bool(const Envelope&)>;

  Network(sim::Scheduler& sched, util::Rng rng);

  /// Register the receive handler for a process (id below kMaxProcesses).
  /// Re-registration replaces the previous handler.  Register every
  /// endpoint before the run: a new id may move the handler table, which
  /// must not happen while a handler runs.
  void register_endpoint(ProcessId id, Handler handler);

  /// Default link used for pairs without an override.
  void set_default_link(LinkConfig config);

  /// Override the link for the ordered pair (src, dst).
  void set_link(ProcessId src, ProcessId dst, LinkConfig config);

  /// Queue a message for delivery.  Returns the assigned message id.  This
  /// is the one place that decides a message's fate, in this order: link
  /// loss, then latency, bandwidth, and the FIFO horizon, then the fault
  /// hook's verdict, then the send trace, then routing, then duplicates.
  MsgId send(ProcessId src, ProcessId dst, MessagePtr payload);

  /// Queue the delivery of an envelope that send() produced, on this
  /// network or on one whose router handed it here.  The same-time priority
  /// is a pure function of the message identity in per-link mode, so the
  /// schedule does not depend on which network queues the envelope.  Takes
  /// the envelope by value: a caller that hands it over moves the payload
  /// pointer into the delivery instead of copying it.
  void deliver(Envelope env);

  // ---- deterministic per-link mode ----------------------------------------
  //
  // By default, latency and loss draws come from one global stream and
  // same-time deliveries tie-break on scheduler insertion order, so the
  // delivery schedule depends on the global interleaving of sends.  That is
  // fine for a single sequential executor, but it cannot be reproduced by a
  // sharded executor that discovers the same sends in a different order.
  //
  // Per-link mode makes the schedule a pure function of each sender's
  // program order: every ordered (src, dst) pair gets its own RNG stream
  // (seeded from a seed base and the pair), and message ids and same-time
  // delivery priorities are pure functions of (src, dst, per-link sequence
  // number).  exec::ParallelRuntime runs one network per shard, all in
  // per-link mode over the same seed base: each draws for the links whose
  // sender it hosts and routes envelopes for other shards' processes to the
  // destination network's deliver() (set_router).

  /// Switch send() to per-link determinism, seeded from
  /// link_seed_base() of this network's stream: networks built on equal
  /// streams share one seed base.  Call before the first send.
  void enable_per_link_streams();

  /// Seed base derived from the network RNG stream without advancing it
  /// (the fault_rng_ copy-split idiom), so runs that never enable per-link
  /// mode stay bit-identical.
  static std::uint64_t link_seed_base(const util::Rng& rng);

  /// Dedicated stream for the ordered pair (src, dst).
  static util::Rng link_stream(std::uint64_t seed_base, ProcessId src,
                               ProcessId dst);

  /// Dedicated fault-injection stream for the ordered pair (src, dst):
  /// split off a *copy* of link_stream, so the latency/loss draws of the
  /// link stream itself are bit-identical whether or not faults are
  /// enabled.  In per-link mode the fault hook and duplicate-delay draws
  /// use this stream, making every fault decision a pure function of
  /// (src, dst, per-link sequence number), whichever network sends.
  static util::Rng link_fault_stream(std::uint64_t seed_base, ProcessId src,
                                     ProcessId dst);

  /// Deterministic message id for the `seq`-th send on (src, dst).
  static MsgId link_msg_id(ProcessId src, ProcessId dst, std::uint64_t seq);

  /// Same-time delivery priority for the `seq`-th send on (src, dst).
  /// Lower than Scheduler::kDefaultPrio, so at equal virtual times
  /// deliveries fire before locally scheduled events in every executor.
  static std::uint64_t link_prio(ProcessId src, ProcessId dst,
                                 std::uint64_t seq);

  /// Smallest latency any configured link (default or override) can ever
  /// produce — the parallel executor's lookahead.
  sim::Time min_link_delay() const;

  void set_tracer(Tracer tracer) { tracer_ = std::move(tracer); }

  /// Trace hook observing every accepted send (before queueing; dropped
  /// messages are observed too, with delivered_at == 0).
  void set_send_tracer(Tracer tracer) { send_tracer_ = std::move(tracer); }

  /// Install (or clear) the fault-injection hook.  All fault randomness is
  /// drawn from a stream split off the link RNG at construction, so enabling
  /// faults leaves every latency/loss draw bit-identical to a fault-free run.
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  /// Install (or clear) the routing hook.
  void set_router(Router router) { router_ = std::move(router); }

  const NetworkStats& stats() const { return stats_; }
  sim::Scheduler& scheduler() { return sched_; }

 private:
  /// One entry of the [src][dst] link table: everything send() keeps per
  /// ordered pair.  Zero-initialized entries read as "default link, nothing
  /// sent yet".
  struct Link {
    /// Earliest permissible delivery time (FIFO enforcement).
    sim::Time fifo_horizon = 0;
    /// Sends so far (per-link mode: the message id's sequence number).
    std::uint64_t seq = 0;
    /// 0: default_link_; otherwise configs_[config - 1] (set_link).
    std::uint32_t config = 0;
    /// 0: no per-link draw yet; otherwise streams_[streams - 1].
    std::uint32_t streams = 0;
  };
  /// The per-link mode's RNG streams of one ordered pair.
  struct LinkStreams {
    util::Rng rng;
    /// Fault-decision draws for this link (link_fault_stream); keeps fault
    /// outcomes independent of which executor discovers the sends.
    util::Rng fault_rng;
  };

  /// The table entry of (src, dst), growing src's row on first use.  Both
  /// ids must be below kMaxProcesses.
  Link& link_entry(ProcessId src, ProcessId dst);
  const LinkConfig& config_of(const Link& link) const {
    return link.config == 0 ? default_link_ : configs_[link.config - 1];
  }
  LinkStreams& streams_of(Link& link, ProcessId src, ProcessId dst);
  /// Hand `env` to the router, or queue it here (moving it into the
  /// delivery).
  void route(Envelope env);

  sim::Scheduler& sched_;
  util::Rng rng_;
  /// Dedicated stream for fault-injection draws (split from rng_ without
  /// advancing it — see the constructor).
  util::Rng fault_rng_;
  LinkConfig default_link_;
  /// Link overrides, referenced from the table by Link::config.
  std::vector<LinkConfig> configs_;
  /// links_[src][dst]; a row grows to the highest destination src sent to.
  std::vector<std::vector<Link>> links_;
  std::vector<LinkStreams> streams_;
  /// Receive handlers indexed by ProcessId (empty: not registered).
  std::vector<Handler> endpoints_;
  Tracer tracer_;
  Tracer send_tracer_;
  FaultHook fault_hook_;
  Router router_;
  NetworkStats stats_;
  MsgId next_msg_id_ = 1;
  bool per_link_ = false;
  std::uint64_t per_link_seed_base_ = 0;
};

}  // namespace ocsp::net
