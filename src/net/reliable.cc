#include "net/reliable.h"

#include <algorithm>
#include <memory>

#include "util/check.h"
#include "util/logging.h"

namespace ocsp::net {

ReliableTransport::ReliableTransport(Network& net, ReliableConfig config)
    : net_(net), sched_(net.scheduler()), config_(config) {}

void ReliableTransport::register_endpoint(ProcessId id,
                                          Network::Handler handler,
                                          IncarnationFn incarnation,
                                          IncarnationObserver observer) {
  OCSP_CHECK(handler != nullptr);
  if (!config_.enabled) {
    net_.register_endpoint(id, std::move(handler));
    return;
  }
  Endpoint& ep = endpoints_[id];
  ep.handler = std::move(handler);
  ep.incarnation = std::move(incarnation);
  ep.observer = std::move(observer);
  net_.register_endpoint(
      id, [this, id](const Envelope& env) { on_network_delivery(id, env); });
}

MsgId ReliableTransport::send(ProcessId src, ProcessId dst,
                              MessagePtr payload) {
  if (!config_.enabled) return net_.send(src, dst, std::move(payload));
  const std::uint64_t seq = next_seq_++;
  PendingSend& p = pending_[seq];
  p.src = src;
  p.dst = dst;
  p.payload = std::move(payload);
  p.attempt = 0;
  p.rto = config_.rto_initial;
  return transmit(seq);
}

MsgId ReliableTransport::transmit(std::uint64_t seq) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) return 0;
  PendingSend& p = it->second;
  ++p.attempt;

  IncarnationTag tag;
  auto ep = endpoints_.find(p.src);
  if (ep != endpoints_.end() && ep->second.incarnation) {
    tag = ep->second.incarnation();
  }

  ++stats_.frames_sent;
  if (p.attempt > 1) {
    ++stats_.retransmissions;
    OCSP_DLOG << "reliable: retransmit #" << seq << " " << p.src << "->"
              << p.dst << " try=" << p.attempt;
    if (retransmit_observer_) {
      retransmit_observer_(p.src, p.dst, seq, p.attempt);
    }
  }
  const MsgId id = net_.send(
      p.src, p.dst,
      std::make_shared<ReliableFrame>(p.payload, seq, tag, p.attempt));

  p.timer = sched_.after(p.rto, [this, seq]() {
    auto pit = pending_.find(seq);
    if (pit == pending_.end()) return;  // acked in the meantime
    if (pit->second.attempt >= config_.max_attempts) {
      ++stats_.retransmit_exhausted;
      OCSP_DLOG << "reliable: give up on #" << seq << " after "
                << pit->second.attempt << " attempts";
      pending_.erase(pit);
      return;
    }
    transmit(seq);
  });
  p.rto = std::min(static_cast<sim::Time>(static_cast<double>(p.rto) *
                                          config_.rto_backoff),
                   config_.rto_max);
  return id;
}

void ReliableTransport::on_network_delivery(ProcessId id, const Envelope& env) {
  auto epit = endpoints_.find(id);
  OCSP_CHECK_MSG(epit != endpoints_.end(), "reliable: unknown endpoint");
  Endpoint& ep = epit->second;

  if (const auto* ack = dynamic_cast<const AckFrame*>(env.payload.get())) {
    auto it = pending_.find(ack->seq());
    if (it != pending_.end()) {
      sched_.cancel(it->second.timer);
      pending_.erase(it);
    }
    return;
  }

  if (const auto* frame =
          dynamic_cast<const ReliableFrame*>(env.payload.get())) {
    // Ack unconditionally — even duplicates and frames parked while the
    // endpoint is down.  Retransmits of messages a rollback has since
    // orphaned thus self-terminate at the sender without any coupling
    // between the transport and the speculation layer.
    ++stats_.acks_sent;
    net_.send(id, env.src, std::make_shared<AckFrame>(frame->seq()));

    if (!ep.seen.insert({env.src, frame->seq()}).second) {
      ++stats_.duplicates_suppressed;
      OCSP_DLOG << "reliable: suppress duplicate #" << frame->seq() << " "
                << env.src << "->" << id;
      if (duplicate_observer_) duplicate_observer_(id, env.src, frame->seq());
      return;
    }

    Envelope inner = env;
    inner.payload = frame->inner();
    if (down_.count(id) > 0) {
      ++stats_.parked_deliveries;
      parked_[id].push_back({inner, env.src, frame->tag()});
      return;
    }
    deliver_frame(ep, inner, env.src, frame->tag());
    return;
  }

  // Unframed payload (control plane): straight through.  A crashed process
  // drops these itself — control liveness rests on the blind re-broadcast.
  ep.handler(env);
}

void ReliableTransport::deliver_frame(Endpoint& ep, const Envelope& env,
                                      ProcessId src, IncarnationTag tag) {
  if (ep.observer) ep.observer(src, tag);
  ep.handler(env);
}

void ReliableTransport::set_down(ProcessId id, bool down) {
  if (!config_.enabled) return;
  if (down) {
    down_.insert(id);
    return;
  }
  if (down_.erase(id) == 0) return;
  auto it = parked_.find(id);
  if (it == parked_.end() || it->second.empty()) return;
  // Flush on the next scheduler step so the restart that brought the
  // endpoint up finishes before parked traffic arrives.
  sched_.after(0, [this, id]() {
    auto pit = parked_.find(id);
    auto epit = endpoints_.find(id);
    if (pit == parked_.end() || epit == endpoints_.end()) return;
    while (!pit->second.empty()) {
      if (down_.count(id) > 0) return;  // crashed again mid-flush
      ParkedDelivery pd = std::move(pit->second.front());
      pit->second.pop_front();
      OCSP_DLOG << "reliable: flush parked delivery " << pd.src << "->" << id;
      deliver_frame(epit->second, pd.env, pd.src, pd.tag);
    }
  });
}

}  // namespace ocsp::net
