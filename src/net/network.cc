#include "net/network.h"

#include <algorithm>

#include "util/check.h"
#include "util/logging.h"

namespace ocsp::net {

Network::Network(sim::Scheduler& sched, util::Rng rng)
    : sched_(sched), rng_(rng), fault_rng_(0) {
  // Derive the fault stream from a *copy* so rng_ itself never advances:
  // runs with fault injection disabled draw exactly the same latency/loss
  // sequence as before this stream existed.
  util::Rng tmp = rng_;
  fault_rng_ = tmp.split();
}

void Network::register_endpoint(ProcessId id, Handler handler) {
  OCSP_CHECK(handler != nullptr);
  OCSP_CHECK_MSG(id < kMaxProcesses, "process id out of range");
  if (id >= endpoints_.size()) endpoints_.resize(std::size_t{id} + 1);
  endpoints_[id] = std::move(handler);
}

void Network::set_default_link(LinkConfig config) {
  OCSP_CHECK(config.latency != nullptr);
  default_link_ = std::move(config);
}

void Network::set_link(ProcessId src, ProcessId dst, LinkConfig config) {
  OCSP_CHECK(config.latency != nullptr);
  Link& l = link_entry(src, dst);
  if (l.config == 0) {
    configs_.push_back(std::move(config));
    l.config = static_cast<std::uint32_t>(configs_.size());
  } else {
    configs_[l.config - 1] = std::move(config);
  }
}

Network::Link& Network::link_entry(ProcessId src, ProcessId dst) {
  OCSP_CHECK_MSG(src < kMaxProcesses && dst < kMaxProcesses,
                 "process id out of range");
  if (src >= links_.size()) links_.resize(std::size_t{src} + 1);
  std::vector<Link>& row = links_[src];
  if (dst >= row.size()) row.resize(std::size_t{dst} + 1);
  return row[dst];
}

void Network::enable_per_link_streams() {
  OCSP_CHECK_MSG(stats_.messages_sent == 0,
                 "enable_per_link_streams after the first send");
  per_link_ = true;
  per_link_seed_base_ = link_seed_base(rng_);
}

std::uint64_t Network::link_seed_base(const util::Rng& rng) {
  // Derive from a copy so the caller's stream never advances: runs that
  // never enable per-link mode draw exactly the same sequence as before.
  util::Rng tmp = rng;
  return tmp.next();
}

util::Rng Network::link_stream(std::uint64_t seed_base, ProcessId src,
                               ProcessId dst) {
  std::uint64_t state = seed_base ^ (static_cast<std::uint64_t>(src) << 32) ^
                        (static_cast<std::uint64_t>(dst) << 1);
  return util::Rng(util::splitmix64(state));
}

util::Rng Network::link_fault_stream(std::uint64_t seed_base, ProcessId src,
                                     ProcessId dst) {
  // Split off a copy: the link stream proper never advances, so enabling
  // faults leaves its latency/loss draws bit-identical.
  util::Rng tmp = link_stream(seed_base, src, dst);
  return tmp.split();
}

MsgId Network::link_msg_id(ProcessId src, ProcessId dst, std::uint64_t seq) {
  return (static_cast<MsgId>(src & 0xffff) << 48) |
         (static_cast<MsgId>(dst & 0xffff) << 32) | (seq & 0xffffffff);
}

std::uint64_t Network::link_prio(ProcessId src, ProcessId dst,
                                 std::uint64_t seq) {
  return (seq << 32) | (static_cast<std::uint64_t>(src & 0xffff) << 16) |
         static_cast<std::uint64_t>(dst & 0xffff);
}

sim::Time Network::min_link_delay() const {
  sim::Time lo = default_link_.latency->min_delay();
  for (const LinkConfig& config : configs_) {
    lo = std::min(lo, config.latency->min_delay());
  }
  return lo;
}

Network::LinkStreams& Network::streams_of(Link& l, ProcessId src,
                                          ProcessId dst) {
  if (l.streams == 0) {
    streams_.push_back(LinkStreams{link_stream(per_link_seed_base_, src, dst),
                                   link_fault_stream(per_link_seed_base_, src,
                                                     dst)});
    l.streams = static_cast<std::uint32_t>(streams_.size());
  }
  return streams_[l.streams - 1];
}

MsgId Network::send(ProcessId src, ProcessId dst, MessagePtr payload) {
  OCSP_CHECK(payload != nullptr);
  Link& l = link_entry(src, dst);
  LinkStreams* ls = per_link_ ? &streams_of(l, src, dst) : nullptr;
  const MsgId id = ls ? link_msg_id(src, dst, ++l.seq) : next_msg_id_++;
  util::Rng& draws = ls ? ls->rng : rng_;
  const LinkConfig& link = config_of(l);

  ++stats_.messages_sent;
  stats_.bytes_sent += payload->wire_size();

  if (link.drop_probability > 0.0 &&
      (!link.drop_filter || link.drop_filter(*payload)) &&
      draws.bernoulli(link.drop_probability)) {
    ++stats_.messages_dropped;
    OCSP_DLOG << "net: drop #" << id << " " << payload->kind() << " " << src
              << "->" << dst;
    if (send_tracer_) {
      Envelope env;
      env.id = id;
      env.src = src;
      env.dst = dst;
      env.sent_at = sched_.now();
      env.delivered_at = 0;  // dropped
      env.payload = std::move(payload);
      send_tracer_(env);
    }
    return id;
  }

  sim::Time delay = link.latency->sample(draws);
  if (link.bandwidth_bytes_per_sec > 0) {
    const double serialize =
        static_cast<double>(payload->wire_size()) /
        static_cast<double>(link.bandwidth_bytes_per_sec) * 1e9;
    delay += static_cast<sim::Time>(serialize);
  }

  sim::Time deliver_at = sched_.now() + delay;
  if (link.fifo) {
    deliver_at = std::max(deliver_at, l.fifo_horizon);
    l.fifo_horizon = deliver_at;
  }

  Envelope env;
  env.id = id;
  env.src = src;
  env.dst = dst;
  env.sent_at = sched_.now();
  env.delivered_at = deliver_at;
  env.payload = std::move(payload);

  // Fault injection runs after the latency/FIFO computation above: every
  // send consumes its latency draw whether or not it survives, so the fault
  // plan never perturbs the delivery schedule of unaffected messages.  In
  // per-link mode the decision draws come from the link's own fault stream,
  // making fault outcomes a pure function of (src, dst, link seq).
  util::Rng& fault_draws = ls ? ls->fault_rng : fault_rng_;
  FaultDecision fault;
  if (fault_hook_) fault = fault_hook_(env, fault_draws);

  if (fault.drop || fault.corrupt) {
    if (fault.corrupt) {
      ++stats_.faults_corrupted;
    } else {
      ++stats_.faults_dropped;
    }
    OCSP_DLOG << "net: fault " << (fault.corrupt ? "corrupt" : "drop") << " #"
              << id << " " << env.payload->kind() << " " << src << "->" << dst
              << " (" << fault.cause << ")";
    if (send_tracer_) {
      Envelope lost = env;
      lost.delivered_at = 0;  // never delivered
      send_tracer_(lost);
    }
    return id;
  }

  if (send_tracer_) send_tracer_(env);
  // The original first, then its duplicates, each a copy of it; with none
  // to follow, the original is handed over whole.
  if (fault.duplicates == 0) {
    route(std::move(env));
    return id;
  }
  route(env);
  for (int i = 0; i < fault.duplicates; ++i) {
    ++stats_.faults_duplicated;
    Envelope dup = env;
    dup.delivered_at =
        deliver_at + sim::microseconds(1 + fault_draws.uniform_int(0, 200));
    OCSP_DLOG << "net: fault duplicate #" << id << " " << src << "->" << dst
              << " @" << dup.delivered_at << " (" << fault.cause << ")";
    route(std::move(dup));
  }
  return id;
}

void Network::route(Envelope env) {
  if (router_ && router_(env)) return;
  deliver(std::move(env));
}

void Network::deliver(Envelope env) {
  // The low 32 bits of a per-link id are the link sequence number.
  const std::uint64_t prio =
      per_link_ ? link_prio(env.src, env.dst, env.id & 0xffffffff)
                : sim::Scheduler::kDefaultPrio;
  const sim::Time when = env.delivered_at;
  auto fire = [this, env = std::move(env)]() {
    OCSP_CHECK_MSG(env.dst < endpoints_.size() && endpoints_[env.dst],
                   "delivery to unknown endpoint");
    ++stats_.messages_delivered;
    OCSP_DLOG << "net: deliver #" << env.id << " " << env.payload->kind()
              << " " << env.src << "->" << env.dst << " @" << env.delivered_at;
    endpoints_[env.dst](env);
    if (tracer_) tracer_(env);
  };
  // Every message passes here: a larger Envelope must not bring back a
  // heap allocation per delivery.
  static_assert(sim::Scheduler::Callback::kStoredInline<decltype(fire)>,
                "delivery closure outgrew the scheduler's inline storage");
  sched_.at(when, prio, std::move(fire));
}

}  // namespace ocsp::net
