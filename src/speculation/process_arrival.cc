// Message arrival and receive processing (sections 4.2.3 and 4.2.4).
//
// Arriving data messages sit in a pending queue until a thread can accept
// them.  The queue is keyed by what blocks each message (a thread waiting in
// Receive for calls and sends, the caller of the reqid for returns), so a
// pass finds the first deliverable message without touching the others.
// The orphan test (a queued message may become an orphan when an abort
// lands) is re-run only when the history's abort epoch moves.  Delivery
// enforces the future-thread rule and picks the waiting thread that
// acquires the fewest new dependencies.  Accepting a message that
// introduces new dependencies checkpoints the thread first and starts a
// new interval.
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
  // A plain cast: the delivery holds `env`, and with it the payload, for
  // the whole handler, so no reference count need move.
  if (const auto* ctl =
          dynamic_cast<const ControlMessage*>(env.payload.get())) {
    {
      obs::Event ev = make_event(obs::EventKind::kControlReceived);
      ev.peer = env.src;
      ev.guess = guess_ref(ctl->subject);
      ev.control = obs_control(ctl->control);
      ev.msg_id = env.id;
      record(ev);
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
  queue_pending(env, /*front=*/false);
  process_arrivals();
}

void SpeculativeProcess::forward_control(ControlKind kind,
                                         const GuessId& subject,
                                         ProcessId from) {
  auto it = spread_.find(subject);
  if (it == spread_.end()) return;
  const auto key = std::pair(subject, static_cast<int>(kind));
  if (!control_forwarded_.insert(key).second) return;  // already forwarded
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
    record(ev, "forward");
    obs::control_fanout_hist(live_metrics_).add(static_cast<double>(fanout));
  }
}

void SpeculativeProcess::process_arrivals() {
  // Delivery can trigger aborts and rollbacks that requeue messages and
  // call back into this function; the guard makes the nested call a no-op
  // (the outer loop looks again anyway).
  if (in_process_arrivals_) return;
  in_process_arrivals_ = true;
  // Each pass handles the first message, in queue order, that is an
  // orphan or deliverable — an orphan first when it is both.
  for (;;) {
    refresh_orphans();
    const std::optional<std::int64_t> next = first_deliverable();
    if (!pending_orphans_.empty() &&
        (!next || *pending_orphans_.begin() <= *next)) {
      // Orphan test (4.2.3): discard messages from aborted computations.
      const net::Envelope env = unqueue_pending(*pending_orphans_.begin());
      ++stats_.orphans_discarded;
      OCSP_DLOG << name_ << ": orphan discarded "
                << std::static_pointer_cast<const DataMessage>(env.payload)
                       ->describe();
      continue;
    }
    if (!next) break;
    // Remove before delivering: deliver may abort/roll back, which
    // requeues other messages.
    deliver(unqueue_pending(*next));
  }
  in_process_arrivals_ = false;
}

void SpeculativeProcess::queue_pending(const net::Envelope& env,
                                       bool front) {
  const std::int64_t order = front ? --pending_front_ : pending_back_++;
  pending_.emplace(order, env);
  const auto msg = std::static_pointer_cast<const DataMessage>(env.payload);
  if (msg->data_kind == DataKind::kReturn) {
    pending_returns_.emplace(msg->reqid, order);
  } else {
    pending_receives_.insert(order);
  }
  // Verdicts of an older epoch are all redone by the next refresh.
  if (orphans_epoch_ == history_.abort_epoch() &&
      history_.any_aborted(msg->guard)) {
    pending_orphans_.insert(order);
  }
}

net::Envelope SpeculativeProcess::unqueue_pending(std::int64_t order) {
  auto it = pending_.find(order);
  net::Envelope env = std::move(it->second);
  pending_.erase(it);
  const auto msg = std::static_pointer_cast<const DataMessage>(env.payload);
  if (msg->data_kind == DataKind::kReturn) {
    auto [first, last] = pending_returns_.equal_range(msg->reqid);
    for (auto r = first; r != last; ++r) {
      if (r->second == order) {
        pending_returns_.erase(r);
        break;
      }
    }
  } else {
    pending_receives_.erase(order);
  }
  pending_orphans_.erase(order);
  return env;
}

void SpeculativeProcess::refresh_orphans() {
  if (orphans_epoch_ == history_.abort_epoch()) return;
  pending_orphans_.clear();
  for (const auto& [order, env] : pending_) {
    const auto msg = std::static_pointer_cast<const DataMessage>(env.payload);
    if (history_.any_aborted(msg->guard)) pending_orphans_.insert(order);
  }
  orphans_epoch_ = history_.abort_epoch();
}

bool SpeculativeProcess::return_blocked(std::int64_t reqid) const {
  // Mirrors deliver: a return whose call is gone is consumed as stale, and
  // a missing caller thread is deliver's CHECK to report.
  auto call = outstanding_calls_.find(reqid);
  if (call == outstanding_calls_.end()) return false;
  auto th = threads_.find(call->second);
  if (th == threads_.end()) return false;
  return th->second.phase != ThreadCtx::Phase::kAwaitReply ||
         th->second.outstanding_reqid != reqid;
}

std::optional<std::int64_t> SpeculativeProcess::first_deliverable() const {
  std::optional<std::int64_t> best;
  for (const auto& [reqid, order] : pending_returns_) {
    if (!return_blocked(reqid) && (!best || order < *best)) best = order;
  }
  if (pending_receives_.empty()) return best;
  // deliver only ever bounds the receiving thread from below, so a
  // call or send is deliverable iff the highest thread waiting in Receive
  // may take it.
  if (receiving_.empty()) return best;
  const ThreadCtx* top = &threads_.at(*receiving_.rbegin());
  for (std::int64_t order : pending_receives_) {
    if (best && order > *best) break;
    const auto msg = std::static_pointer_cast<const DataMessage>(
        pending_.at(order).payload);
    const GuessId own_in_tag = msg->guard.for_owner(id_);
    if (own_in_tag.valid() && own_in_tag.incarnation == incarnation_ &&
        top->index < own_in_tag.index) {
      continue;
    }
    best = order;
    break;
  }
  return best;
}

void SpeculativeProcess::deliver(const net::Envelope& env) {
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
      return;
    }
    const std::uint32_t tidx = call_it->second;
    auto th = threads_.find(tidx);
    OCSP_CHECK_MSG(th != threads_.end(), "outstanding call without thread");
    ThreadCtx& t = th->second;
    OCSP_CHECK(t.phase == ThreadCtx::Phase::kAwaitReply &&
               t.outstanding_reqid == msg->reqid);
    // Future-thread detection (4.2.3): a return that depends on one of our
    // later speculative threads would make that thread causally precede
    // itself.  Abort the future guess; the return then becomes an orphan
    // (the server will roll back and re-reply untainted).
    if (own_in_tag.valid() && own_in_tag.incarnation == incarnation_ &&
        own_in_tag.index > tidx &&
        history_.status(own_in_tag) == GuessStatus::kUnknown) {
      record_abort(own_in_tag, obs::AbortReason::kTimeFault,
                   "future-thread-return");
      abort_own_guess(own_in_tag);
      after_guard_change();
      ++stats_.orphans_discarded;
      return;  // consumed: it now depends on an aborted guess
    }
    accept_message(t, env);
    t.machine.resume_with_value(msg->result);
    set_phase(t, ThreadCtx::Phase::kRunning);
    t.outstanding_reqid = -1;
    outstanding_calls_.erase(msg->reqid);
    trace::ObservableEvent ev;
    ev.kind = trace::ObservableEvent::Kind::kCallReturn;
    ev.process = id_;
    ev.peer = env.src;
    ev.data = msg->result;
    record_event(t, std::move(ev));
    schedule_step(t.index);
    return;
  }

  // Requests and one-way sends go to a thread blocked in Receive.  Eligible
  // threads must not logically precede a guess the message depends on.
  ThreadCtx* best = nullptr;
  std::size_t best_new_deps = 0;
  for (std::uint32_t idx : receiving_) {
    ++bookkeeping_visits_;
    ThreadCtx& t = threads_.at(idx);
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
  OCSP_CHECK_MSG(best != nullptr, "no thread waits in Receive");

  ThreadCtx& t = *best;
  accept_message(t, env);
  t.machine.deliver(msg->op, msg->args, static_cast<std::int64_t>(env.src),
                    msg->reqid,
                    /*is_call=*/msg->data_kind == DataKind::kCall);
  set_phase(t, ThreadCtx::Phase::kRunning);
  trace::ObservableEvent ev;
  ev.kind = trace::ObservableEvent::Kind::kReceive;
  ev.process = id_;
  ev.peer = env.src;
  ev.op = msg->op;
  ev.data = csp::Value(msg->args);
  record_event(t, std::move(ev));
  schedule_step(t.index);
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
      log_for(rollback_point).replay_meta[rollback_point] =
          ReplayMeta{t.sent_count, t.flushed_count, t.outstanding_reqid};
    }
  }
  ++t.interval;
  for (const auto& g : newguards) {
    t.guard.add(g);
    cdg_.add_node(g);
    ++bookkeeping_visits_;
    rollback_index_.add(t.index, g, rollback_point);
    history_.set_status(g, GuessStatus::kUnknown);
  }
  if (!newguards.empty()) {
    obs::speculation_depth_hist(live_metrics_)
        .add(static_cast<double>(t.guard.size()));
  }

  const StateIndex at = current_index(t);
  const bool fresh =
      log_for(at)
          .inputs
          .emplace(at, LoggedInput{at, rollback_point, next_input_seq_++, env})
          .second;
  OCSP_CHECK_MSG(fresh, "two acceptances at one state index");
}

}  // namespace ocsp::spec
