#include "speculation/host.h"

#include <algorithm>

#include "speculation/messages.h"

namespace ocsp::spec {

namespace {

net::ReliableConfig with_crash_recovery(const fault::FaultPlan& plan,
                                        net::ReliableConfig reliable) {
  if (plan.has_crashes()) reliable.enabled = true;
  return reliable;
}

}  // namespace

Host::Host(util::Rng net_rng, const net::LinkConfig& default_link,
           bool per_link, const fault::FaultPlan& fault_plan,
           net::ReliableConfig reliable)
    : network_(scheduler_, net_rng),
      transport_(network_, with_crash_recovery(fault_plan, reliable)),
      recorder_(std::make_shared<obs::RunRecorder>()) {
  network_.set_default_link(default_link);
  if (per_link) network_.enable_per_link_streams();
  network_.set_send_tracer([this](const net::Envelope& env) {
    record_msg_event(obs::EventKind::kMsgSent, env);
  });
  network_.set_tracer([this](const net::Envelope& env) {
    record_msg_event(obs::EventKind::kMsgDelivered, env);
  });
  if (fault_plan.enabled) {
    injector_ = std::make_unique<fault::Injector>(fault_plan);
    injector_->set_observer([this](const net::Envelope& env,
                                   const net::FaultDecision& fd) {
      obs::Event ev;
      ev.kind = obs::EventKind::kFaultInjected;
      ev.when = scheduler_.now();
      ev.process = env.src;
      ev.peer = env.dst;
      ev.msg_id = env.id;
      ev.a = fd.drop ? 1 : (fd.corrupt ? 2 : 3);
      recorder_->record(ev, fd.cause);
    });
    network_.set_fault_hook([this](const net::Envelope& env, util::Rng& rng) {
      return injector_->decide(env, rng);
    });
  }
  transport_.set_retransmit_observer(
      [this](ProcessId src, ProcessId dst, std::uint64_t seq, int attempt) {
        obs::Event ev;
        ev.kind = obs::EventKind::kRetransmit;
        ev.when = scheduler_.now();
        ev.process = src;
        ev.peer = dst;
        ev.msg_id = seq;
        ev.a = static_cast<std::uint64_t>(attempt);
        recorder_->record(ev);
      });
  transport_.set_duplicate_observer(
      [this](ProcessId dst, ProcessId src, std::uint64_t seq) {
        obs::Event ev;
        ev.kind = obs::EventKind::kDuplicateSuppressed;
        ev.when = scheduler_.now();
        ev.process = dst;
        ev.peer = src;
        ev.msg_id = seq;
        recorder_->record(ev);
      });
}

void Host::record_msg_event(obs::EventKind kind, const net::Envelope& env) {
  if (!recorder_->enabled()) return;  // skip describing the payload
  std::string detail;
  const obs::Event ev = make_msg_event(kind, env, scheduler_.now(), detail);
  recorder_->record(ev, detail);
}

void Host::add_counters(obs::MetricsRegistry& m) const {
  m.counter("sim_events_fired") += scheduler_.fired_count();
  double& peak = m.gauge("sim_peak_pending");
  peak = std::max(peak, static_cast<double>(scheduler_.peak_pending()));
  const net::NetworkStats& ns = network_.stats();
  m.counter("net_messages_sent") += ns.messages_sent;
  m.counter("net_messages_delivered") += ns.messages_delivered;
  m.counter("net_messages_dropped") += ns.messages_dropped;
  m.counter("net_bytes_sent") += ns.bytes_sent;
  m.counter("net_faults_dropped") += ns.faults_dropped;
  m.counter("net_faults_corrupted") += ns.faults_corrupted;
  m.counter("net_faults_duplicated") += ns.faults_duplicated;
  if (transport_.config().enabled) {
    const net::ReliableStats& rs = transport_.stats();
    m.counter("reliable_frames_sent") += rs.frames_sent;
    m.counter("retransmissions") += rs.retransmissions;
    m.counter("retransmit_exhausted") += rs.retransmit_exhausted;
    m.counter("acks_sent") += rs.acks_sent;
    m.counter("duplicates_suppressed") += rs.duplicates_suppressed;
    m.counter("parked_deliveries") += rs.parked_deliveries;
  }
  if (injector_) {
    const fault::InjectorStats& fs = injector_->stats();
    m.counter("faults_injected") += fs.total();
    m.counter("fault_partition_drops") += fs.partition_drops;
  }
}

}  // namespace ocsp::spec
