// Ack/retransmit transport for the data plane.
//
// The paper assumes reliable data transport and only argues liveness for the
// re-broadcast control plane (section 4.2.5).  This layer earns that
// assumption over a lossy substrate: every data payload is wrapped in a
// ReliableFrame carrying (sender, seq, incarnation); receivers ack every
// frame, suppress duplicates keyed on (sender, seq), and senders retransmit
// with exponential backoff until acked or the attempt budget is exhausted.
//
// Recovery model: the retransmit buffer and the receiver dedup table live in
// what the fault model treats as stable storage (pessimistic message
// logging), so a crash loses neither — frames addressed to a down endpoint
// are acked and parked by the "NIC" and flushed at restart, which is what
// makes committed data durable across crashes.  Incarnation tags piggyback
// on frames so receivers learn about a sender's rollbacks even when the
// explicit ABORT is still in flight.
//
// With Config::enabled == false (the default) the transport is a strict
// passthrough: registration and sends go straight to the network, no frame,
// no ack, no behavioural drift.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <utility>

#include "net/message.h"
#include "net/network.h"
#include "sim/scheduler.h"
#include "util/ids.h"

namespace ocsp::net {

/// A sender's speculation lineage at frame (re)build time: its current
/// incarnation number and the thread index at which that incarnation began.
/// Receivers feed this to PeerHistory::observe_incarnation, implicitly
/// aborting guesses of dead incarnations without waiting for the ABORT.
struct IncarnationTag {
  std::uint32_t incarnation = 0;
  std::uint32_t start_index = 0;
};

/// Data payload wrapped for reliable delivery.
class ReliableFrame final : public Message {
 public:
  ReliableFrame(MessagePtr inner, std::uint64_t seq, IncarnationTag tag,
                int attempt)
      : inner_(std::move(inner)), seq_(seq), tag_(tag), attempt_(attempt) {}

  std::string kind() const override { return "FRAME(" + inner_->kind() + ")"; }
  std::size_t wire_size() const override { return inner_->wire_size() + 16; }
  bool control_plane() const override { return inner_->control_plane(); }
  std::string describe() const override {
    return "frame#" + std::to_string(seq_) + " inc=" +
           std::to_string(tag_.incarnation) + " try=" +
           std::to_string(attempt_) + " " + inner_->describe();
  }

  const MessagePtr& inner() const { return inner_; }
  std::uint64_t seq() const { return seq_; }
  IncarnationTag tag() const { return tag_; }
  int attempt() const { return attempt_; }

 private:
  MessagePtr inner_;
  std::uint64_t seq_;
  IncarnationTag tag_;
  int attempt_;
};

/// Receiver -> sender acknowledgement of one frame.
class AckFrame final : public Message {
 public:
  explicit AckFrame(std::uint64_t seq) : seq_(seq) {}

  std::string kind() const override { return "ACK"; }
  std::size_t wire_size() const override { return 16; }
  std::string describe() const override {
    return "ack#" + std::to_string(seq_);
  }

  std::uint64_t seq() const { return seq_; }

 private:
  std::uint64_t seq_;
};

struct ReliableConfig {
  bool enabled = false;
  /// First retransmission timeout; doubles (rto_backoff) per attempt up to
  /// rto_max.  Defaults comfortably above the default 10us link latency and
  /// below the speculation layer's fork/join timeouts.
  sim::Time rto_initial = sim::milliseconds(4);
  double rto_backoff = 2.0;
  sim::Time rto_max = sim::milliseconds(200);
  /// Total transmission attempts (first send + retransmissions) before the
  /// sender gives up and leaves recovery to the speculation-layer timeouts.
  int max_attempts = 16;
};

struct ReliableStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t retransmit_exhausted = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t parked_deliveries = 0;
};

class ReliableTransport {
 public:
  /// Supplies the sender's current incarnation tag at frame (re)build time.
  using IncarnationFn = std::function<IncarnationTag()>;
  /// Notified when a frame from `src` carrying `tag` reaches this endpoint.
  using IncarnationObserver =
      std::function<void(ProcessId src, IncarnationTag tag)>;
  /// Observability hooks (retransmit: sender side; duplicate: receiver side).
  using RetransmitObserver = std::function<void(
      ProcessId src, ProcessId dst, std::uint64_t seq, int attempt)>;
  using DuplicateObserver =
      std::function<void(ProcessId dst, ProcessId src, std::uint64_t seq)>;

  /// Bind to `net`: frames and acks go out through net.send(), receive
  /// slots are claimed on net, and RTO timers run on net.scheduler().
  ReliableTransport(Network& net, ReliableConfig config);

  /// Register a process behind the transport.  With the transport disabled
  /// this is a plain Network::register_endpoint.
  void register_endpoint(ProcessId id, Network::Handler handler,
                         IncarnationFn incarnation = nullptr,
                         IncarnationObserver observer = nullptr);

  /// Send a data payload reliably (or straight through when disabled).
  MsgId send(ProcessId src, ProcessId dst, MessagePtr payload);

  /// Crash/restart support: while down, framed deliveries are acked and
  /// parked (stable NIC), unframed ones pass through to the handler (which
  /// drops them while crashed).  Bringing the endpoint back up flushes the
  /// parked frames in arrival order on the next scheduler step.
  void set_down(ProcessId id, bool down);

  void set_retransmit_observer(RetransmitObserver obs) {
    retransmit_observer_ = std::move(obs);
  }
  void set_duplicate_observer(DuplicateObserver obs) {
    duplicate_observer_ = std::move(obs);
  }

  const ReliableConfig& config() const { return config_; }
  const ReliableStats& stats() const { return stats_; }

 private:
  struct PendingSend {
    ProcessId src = kNoProcess;
    ProcessId dst = kNoProcess;
    MessagePtr payload;
    int attempt = 0;
    sim::Time rto = 0;
    sim::Scheduler::Handle timer;
  };
  struct Endpoint {
    Network::Handler handler;
    IncarnationFn incarnation;
    IncarnationObserver observer;
    /// (sender, seq) pairs already delivered to this endpoint.
    std::set<std::pair<ProcessId, std::uint64_t>> seen;
  };
  struct ParkedDelivery {
    Envelope env;
    ProcessId src = kNoProcess;
    IncarnationTag tag;
  };

  void on_network_delivery(ProcessId id, const Envelope& env);
  MsgId transmit(std::uint64_t seq);
  void deliver_frame(Endpoint& ep, const Envelope& env, ProcessId src,
                     IncarnationTag tag);

  Network& net_;
  sim::Scheduler& sched_;
  ReliableConfig config_;
  ReliableStats stats_;
  std::map<ProcessId, Endpoint> endpoints_;
  std::map<std::uint64_t, PendingSend> pending_;
  std::set<ProcessId> down_;
  std::map<ProcessId, std::deque<ParkedDelivery>> parked_;
  RetransmitObserver retransmit_observer_;
  DuplicateObserver duplicate_observer_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace ocsp::net
