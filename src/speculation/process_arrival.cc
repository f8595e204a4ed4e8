// Message arrival and receive processing (sections 4.2.3 and 4.2.4).
//
// Arriving data messages sit in a pending queue until a thread can accept
// them.  Each delivery attempt re-checks the orphan test (a queued message
// may become an orphan when an abort lands), enforces the future-thread
// rule, and picks the waiting thread that acquires the fewest new
// dependencies.  Accepting a message that introduces new dependencies
// checkpoints the thread first and starts a new interval.
#include "speculation/process.h"
#include "util/check.h"
#include "util/logging.h"

namespace ocsp::spec {

void SpeculativeProcess::on_message(const net::Envelope& env) {
  if (crashed_) {
    // Down.  Framed data never reaches this point (the transport parks it);
    // whatever does — control traffic, unframed data — is genuinely lost,
    // exactly like a dead machine's NIC.  Control liveness rests on the
    // blind re-broadcast (SpecConfig::control_retry).
    ++stats_.crash_messages_dropped;
    return;
  }
  if (auto ctl = std::dynamic_pointer_cast<const ControlMessage>(env.payload)) {
    {
      obs::Event ev = make_event(obs::EventKind::kControlReceived);
      ev.peer = env.src;
      ev.guess = guess_ref(ctl->subject);
      ev.control = obs_control(ctl->control);
      ev.msg_id = env.id;
      recorder().record(std::move(ev));
    }
    switch (ctl->control) {
      case ControlKind::kCommit:
        on_commit_msg(ctl->subject);
        break;
      case ControlKind::kAbort:
        on_abort_msg(ctl->subject);
        break;
      case ControlKind::kPrecedence:
        on_precedence_msg(ctl->subject, ctl->guard);
        break;
    }
    // Targeted control plane (4.2.5): the guess's owner only knows its own
    // direct dependents; anyone who propagated the guess onward (recorded
    // at data-send time) must forward the resolution along the same edges.
    if (config_.control == ControlPlane::kTargeted &&
        ctl->control != ControlKind::kPrecedence) {
      forward_control(ctl->control, ctl->subject, env.src);
    }
    after_guard_change();
    return;
  }
  pending_.push_back(env);
  process_arrivals();
}

void SpeculativeProcess::forward_control(ControlKind kind,
                                         const GuessId& subject,
                                         ProcessId from) {
  const auto key = std::pair(subject, static_cast<int>(kind));
  if (!control_forwarded_.insert(key).second) return;  // already forwarded
  auto it = spread_.find(subject);
  if (it == spread_.end()) return;
  auto msg = std::make_shared<ControlMessage>();
  msg->control = kind;
  msg->subject = subject;
  std::uint64_t fanout = 0;
  for (ProcessId dst : it->second) {
    if (dst == id_ || dst == from || dst == subject.owner) continue;
    ++stats_.control_sent;
    ++fanout;
    host_.network().send(id_, dst, msg);
  }
  if (fanout > 0) {
    obs::Event ev = make_event(obs::EventKind::kControlSent);
    ev.guess = guess_ref(subject);
    ev.control = obs_control(kind);
    ev.a = fanout;
    ev.detail = "forward";
    recorder().record(std::move(ev));
    obs::control_fanout_hist(live_metrics_).add(static_cast<double>(fanout));
  }
}

void SpeculativeProcess::process_arrivals() {
  // Delivery can trigger aborts and rollbacks that requeue messages and
  // call back into this function; the guard makes the nested call a no-op
  // (the outer loop rescans anyway).
  if (in_process_arrivals_) return;
  in_process_arrivals_ = true;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      const net::Envelope env = pending_[i];  // copy: delivery mutates
      const auto msg =
          std::static_pointer_cast<const DataMessage>(env.payload);
      // Orphan test (4.2.3): discard messages from aborted computations.
      if (history_.any_aborted(msg->guard)) {
        ++stats_.orphans_discarded;
        OCSP_DLOG << name_ << ": orphan discarded " << msg->describe();
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        progressed = true;
        break;  // indices shifted; rescan
      }
      // Remove before delivering: try_deliver may abort/roll back, which
      // requeues other messages and would invalidate any saved position.
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      if (try_deliver(env)) {
        progressed = true;
        break;
      }
      // Not deliverable right now; put it back where it was (try_deliver
      // without a delivery does not mutate the queue).
      pending_.insert(pending_.begin() + static_cast<std::ptrdiff_t>(i), env);
    }
  }
  in_process_arrivals_ = false;
}

bool SpeculativeProcess::try_deliver(const net::Envelope& env) {
  const auto msg = std::static_pointer_cast<const DataMessage>(env.payload);

  // Which of OUR guesses does this message depend on?  A tag mentioning our
  // own future guess means the sender interacted with a speculative thread
  // of ours.
  const GuessId own_in_tag = msg->guard.for_owner(id_);

  if (msg->data_kind == DataKind::kReturn) {
    auto call_it = outstanding_calls_.find(msg->reqid);
    if (call_it == outstanding_calls_.end()) {
      // The caller thread was rolled back; its re-issued call has a fresh
      // reqid and the server will answer that one.  This return is stale.
      ++stats_.orphans_discarded;
      return true;  // consume (drop)
    }
    const std::uint32_t tidx = call_it->second;
    auto th = threads_.find(tidx);
    OCSP_CHECK_MSG(th != threads_.end(), "outstanding call without thread");
    ThreadCtx& t = th->second;
    if (t.phase != ThreadCtx::Phase::kAwaitReply ||
        t.outstanding_reqid != msg->reqid) {
      return false;  // should not happen, but stay safe: keep queued
    }
    // Future-thread detection (4.2.3): a return that depends on one of our
    // later speculative threads would make that thread causally precede
    // itself.  Abort the future guess; the return then becomes an orphan
    // (the server will roll back and re-reply untainted).
    if (own_in_tag.valid() && own_in_tag.incarnation == incarnation_ &&
        own_in_tag.index > tidx &&
        history_.status(own_in_tag) == GuessStatus::kUnknown) {
      ++stats_.aborts_time_fault;
      record_abort(own_in_tag, obs::AbortReason::kTimeFault,
                   "future-thread-return");
      abort_own_guess(own_in_tag, "future-thread-return");
      after_guard_change();
      ++stats_.orphans_discarded;
      return true;  // consume: it now depends on an aborted guess
    }
    accept_message(t, env);
    t.machine.resume_with_value(msg->result);
    t.phase = ThreadCtx::Phase::kRunning;
    t.outstanding_reqid = -1;
    outstanding_calls_.erase(msg->reqid);
    trace::ObservableEvent ev;
    ev.kind = trace::ObservableEvent::Kind::kCallReturn;
    ev.process = id_;
    ev.peer = env.src;
    ev.data = msg->result;
    record_event(t, std::move(ev));
    schedule_step(t.index);
    return true;
  }

  // Requests and one-way sends go to a thread blocked in Receive.  Eligible
  // threads must not logically precede a guess the message depends on.
  ThreadCtx* best = nullptr;
  std::size_t best_new_deps = 0;
  for (auto& [idx, t] : threads_) {
    if (t.phase != ThreadCtx::Phase::kAwaitMessage) continue;
    if (own_in_tag.valid() && own_in_tag.incarnation == incarnation_ &&
        idx < own_in_tag.index) {
      continue;  // would make our own guess depend on itself
    }
    const std::size_t new_deps = [&] {
      std::size_t n = 0;
      for (const auto& g : msg->guard.minus(t.guard)) {
        if (history_.status(g) == GuessStatus::kUnknown) ++n;
      }
      return n;
    }();
    // Minimize new dependencies; tie-break on the earliest thread.
    if (best == nullptr || new_deps < best_new_deps) {
      best = &t;
      best_new_deps = new_deps;
    }
  }
  if (best == nullptr) return false;

  ThreadCtx& t = *best;
  accept_message(t, env);
  t.machine.deliver(msg->op, msg->args, static_cast<std::int64_t>(env.src),
                    msg->reqid,
                    /*is_call=*/msg->data_kind == DataKind::kCall);
  t.phase = ThreadCtx::Phase::kRunning;
  trace::ObservableEvent ev;
  ev.kind = trace::ObservableEvent::Kind::kReceive;
  ev.process = id_;
  ev.peer = env.src;
  ev.op = msg->op;
  ev.data = csp::Value(msg->args);
  record_event(t, std::move(ev));
  schedule_step(t.index);
  return true;
}

void SpeculativeProcess::accept_message(ThreadCtx& t,
                                        const net::Envelope& env) {
  const auto msg = std::static_pointer_cast<const DataMessage>(env.payload);

  // New dependencies = tag members not covered locally and not already
  // resolved (a committed guess is no dependency at all).
  std::vector<GuessId> newguards;
  for (const auto& g : msg->guard.minus(t.guard)) {
    if (history_.status(g) == GuessStatus::kUnknown) newguards.push_back(g);
  }

  // The pre-acceptance state index is the rollback point if any of the new
  // guesses aborts (4.1.3).  Intervals advance on *every* acceptance so
  // state indexes identify acceptances uniquely (which the replay strategy
  // depends on); checkpoints/metadata are only taken for the acceptances
  // that actually introduce dependencies.
  OCSP_CHECK_MSG(!replaying_, "accept_message during replay");
  const StateIndex rollback_point = current_index(t);
  if (!newguards.empty()) {
    if (config_.rollback == RollbackStrategy::kCheckpointEveryInterval ||
        ++t.accepts_since_checkpoint >=
            static_cast<std::uint32_t>(
                std::max(1, config_.replay_checkpoint_every))) {
      take_checkpoint(t);
      t.accepts_since_checkpoint = 0;
    } else {
      replay_meta_[rollback_point] =
          ReplayMeta{t.sent_count, t.flushed_count, t.outstanding_reqid};
    }
  }
  ++t.interval;
  for (const auto& g : newguards) {
    t.guard.add(g);
    t.cdg.add_node(g);
    t.rollbacks[g] = rollback_point;
    history_.peer(g.owner).set_status(g, GuessStatus::kUnknown);
  }
  if (!newguards.empty()) {
    obs::speculation_depth_hist(live_metrics_)
        .add(static_cast<double>(t.guard.size()));
  }

  input_log_.push_back(LoggedInput{current_index(t), rollback_point, env});
  timeline().record({trace::TimelineEntry::Kind::kMsgDeliver,
                     env.delivered_at, id_, env.src, msg->describe()});
}

}  // namespace ocsp::spec
