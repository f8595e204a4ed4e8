// Control-message processing and rollback (sections 4.1.3, 4.2.5-4.2.8).
//
// COMMIT removes a guess (and its implied-committed CDG predecessors) from
// the process's CDG and every thread; ABORT computes the Abortset per
// thread, finds the earliest rollback point, kills every thread created
// after it, restores the target thread from its checkpoint, cascades ABORTs
// for our own guesses that died, and requeues the non-orphan input messages
// that were consumed after the restore point (Figure 5: "Z must re-read
// message C2 after rolling back").  PRECEDENCE adds edges to the process's
// one CDG and aborts our own guesses on any cycle (time fault, Figures 4
// and 7).
#include <algorithm>

#include "speculation/process.h"
#include "speculation/process_table.h"
#include "util/check.h"
#include "util/logging.h"

namespace ocsp::spec {

// ---------------------------------------------------------------------------
// Distribution
// ---------------------------------------------------------------------------

void SpeculativeProcess::distribute_control(ControlKind kind,
                                            const GuessId& subject,
                                            const GuardSet& guard) {
  auto msg = std::make_shared<ControlMessage>();
  msg->control = kind;
  msg->subject = subject;
  msg->guard = guard;

  std::vector<ProcessId> recipients;
  if (config_.control == ControlPlane::kBroadcast ||
      kind == ControlKind::kPrecedence) {
    // PRECEDENCE is always broadcast: cycle detection needs every involved
    // owner to learn the ordering constraint (Figure 7 has both X and Z
    // discover the cycle independently).
    recipients = table_.all_process_ids();
  } else {
    auto it = spread_.find(subject);
    if (it != spread_.end()) recipients = it->second;
  }
  {
    std::uint64_t fanout = 0;
    for (ProcessId dst : recipients) {
      if (dst != id_) ++fanout;
    }
    obs::Event ev = make_event(obs::EventKind::kControlSent);
    ev.guess = guess_ref(subject);
    ev.control = obs_control(kind);
    ev.a = fanout;
    record(std::move(ev));
    obs::control_fanout_hist(live_metrics_).add(static_cast<double>(fanout));
  }
  // Control goes straight onto the network, bypassing the reliable
  // transport: its liveness story is the blind re-broadcast of section
  // 4.2.5, which retransmission would duplicate.
  const int repeats =
      config_.control_retry ? config_.control_retry_limit : 1;
  for (ProcessId dst : recipients) {
    if (dst == id_) continue;  // local processing already happened
    for (int i = 0; i < repeats; ++i) {
      const sim::Time delay =
          static_cast<sim::Time>(i) * config_.control_retry_interval;
      if (i == 0) {
        ++stats_.control_sent;
        host_.network().send(id_, dst, msg);
      } else {
        host_.scheduler().after(delay, [this, dst, msg]() {
          ++stats_.control_sent;
          host_.network().send(id_, dst, msg);
        });
      }
    }
  }
}

// ---------------------------------------------------------------------------
// COMMIT (4.2.6)
// ---------------------------------------------------------------------------

void SpeculativeProcess::on_commit_msg(const GuessId& g) {
  commit_guess_local(g);
}

void SpeculativeProcess::commit_guess_local(const GuessId& g) {
  std::vector<GuessId> queue{g};
  while (!queue.empty()) {
    GuessId h = queue.back();
    queue.pop_back();
    history_.set_status(h, GuessStatus::kCommitted);
    // Predecessors of a committed guess must have committed too: a guess
    // only commits after everything in its guard resolved.
    for (const auto& p : cdg_.predecessors(h)) {
      if (history_.status(p) != GuessStatus::kCommitted) queue.push_back(p);
    }
    cdg_.remove_node(h);
    // Only threads holding h in their rollback map can carry it in a guard
    // (a guard member always has a rollback entry).
    for (std::uint32_t idx : rollback_index_.holders(h)) {
      ThreadCtx& t = threads_.at(idx);
      t.guard.erase(h);
      erase_rollback(t, h);
    }
  }
}

// ---------------------------------------------------------------------------
// ABORT (4.2.7) and rollback (4.1.3)
// ---------------------------------------------------------------------------

void SpeculativeProcess::on_abort_msg(const GuessId& g) {
  if (history_.status(g) == GuessStatus::kAborted) return;
  record_abort(g, obs::AbortReason::kCascade, "remote-abort");
  abort_guess_local(g);
}

void SpeculativeProcess::abort_guess_local(const GuessId& g) {
  // Everything the abort-processing loop below destroys is collateral
  // damage of `g`; stamp the cause so attribution can walk it back.
  const GuessId saved_cause = rollback_cause_;
  rollback_cause_ = g;
  history_.set_status(g, GuessStatus::kAborted);
  // The abort of x_{i,n} starts incarnation i+1 at index n: every guess
  // x_{i,m} with m >= n is implicitly aborted (4.1.2).
  history_.observe_incarnation(g.owner, g.incarnation + 1, g.index);

  rollback_aborted_dependencies();
  cdg_.remove_node(g);
  rollback_cause_ = saved_cause;
}

void SpeculativeProcess::rollback_aborted_dependencies() {
  // Abortset per thread: guard members now aborted, plus guard members
  // that follow an aborted guess in the CDG.  Roll back to the earliest
  // rollback point among them (4.2.7).  Several threads may have acquired
  // the dependency independently, and a rollback only scrubs the threads it
  // touches, so iterate until no thread carries an aborted dependency.
  for (int pass = 0;; ++pass) {
    OCSP_CHECK_MSG(pass < 1024, "abort rollback did not converge");
    bool found = false;
    StateIndex target{};
    for (auto& [idx, t] : threads_) {
      std::vector<GuessId> abortset;
      // Walk the full acquisition record, not just the guard set: the
      // one-guess-per-owner subsumption (4.1.5) may have replaced an
      // earlier aborted guess, but the state became contaminated at the
      // earlier acquisition point.
      for (const auto& [a, rb] : t.rollbacks) {
        if (history_.status(a) == GuessStatus::kAborted) {
          abortset.push_back(a);
        }
      }
      // Followers of aborted guesses in the CDG also roll back.
      for (std::size_t i = 0; i < abortset.size(); ++i) {
        for (const auto& f : cdg_.closure_from(abortset[i])) {
          if (t.guard.contains(f) &&
              std::find(abortset.begin(), abortset.end(), f) ==
                  abortset.end()) {
            abortset.push_back(f);
          }
        }
      }
      for (const auto& a : abortset) {
        auto rb = t.rollbacks.find(a);
        OCSP_CHECK_MSG(rb != t.rollbacks.end(),
                       "guard member without rollback");
        if (!found || rb->second < target) {
          found = true;
          target = rb->second;
        }
      }
    }
    if (!found) break;
    rollback_to(target);
  }
}

void SpeculativeProcess::abort_own_guess(const GuessId& g) {
  if (history_.status(g) != GuessStatus::kUnknown) return;
  OCSP_CHECK(g.owner == id_);
  history_.set_status(g, GuessStatus::kAborted);
  history_.observe_incarnation(id_, g.incarnation + 1, g.index);

  // Track consecutive failures of the fork site for the liveness limit L.
  auto site_of = [this](std::uint32_t index) -> std::string {
    auto it = threads_.find(index);
    return it != threads_.end() && it->second.has_own_guess
               ? it->second.own_site
               : std::string();
  };
  if (auto site = site_of(g.index); !site.empty()) {
    ++site_aborts_[site];
    governor_outcome(site, /*aborted=*/true);
  }

  // Kill the guarded thread and everything the chain forked after it.
  const GuessId saved_cause = rollback_cause_;
  rollback_cause_ = g;
  std::vector<GuessId> cascade;
  std::vector<std::uint32_t> doomed;
  for (auto& [idx, t] : threads_) {
    if (idx >= g.index) doomed.push_back(idx);
  }
  for (auto it = doomed.rbegin(); it != doomed.rend(); ++it) {
    kill_thread(*it, cascade);
  }
  rollback_cause_ = saved_cause;
  if (!doomed.empty()) {
    ++incarnation_;
    incarnation_start_ = g.index;
    max_thread_ = g.index == 0 ? 0 : g.index - 1;
  }
  distribute_control(ControlKind::kAbort, g, {});
  std::uint64_t cascaded = 0;
  for (const auto& c : cascade) {
    if (c == g) continue;
    if (history_.status(c) == GuessStatus::kUnknown) {
      history_.set_status(c, GuessStatus::kAborted);
      history_.observe_incarnation(id_, c.incarnation + 1, c.index);
      ++cascaded;
      record_abort(c, obs::AbortReason::kCascade, "killed-with-thread", g);
      distribute_control(ControlKind::kAbort, c, {});
    }
  }
  obs::abort_cascade_depth_hist(live_metrics_)
      .add(static_cast<double>(cascaded));

  // Threads below g.index may have been contaminated by g through message
  // tags (the Figure 4 time fault); run the generic abort machinery.
  abort_guess_local(g);
  for (const auto& c : cascade) {
    if (!(c == g)) abort_guess_local(c);
  }

  // Mark the parent join so the left thread re-executes S2 when it
  // completes; if it is already waiting at the join, re-execute now.
  for (auto& [idx, t] : threads_) {
    if (t.has_pending_join && t.join_guess == g) {
      t.join_guess_aborted = true;
      cancel_fork_timer(g);
      if (t.phase == ThreadCtx::Phase::kJoinWait) {
        OCSP_CHECK(threads_.count(t.join_right_index) == 0);
        reexecute_right(t);
      }
      break;
    }
  }
  process_arrivals();
}

void SpeculativeProcess::kill_thread(std::uint32_t index,
                                     std::vector<GuessId>& own_aborted,
                                     bool emit_discard) {
  auto it = threads_.find(index);
  if (it == threads_.end()) return;
  ThreadCtx& t = it->second;
  if (emit_discard) {
    record_work_discarded(t, t.compute_ns, rollback_cause_);
  }
  if (t.phase == ThreadCtx::Phase::kDoneWaitGuard) {
    obs::Event ev = make_event(obs::EventKind::kThreadResolved);
    ev.thread = t.index;
    ev.interval = t.interval;
    ev.detail = "killed";
    record(std::move(ev));
  }
  if (t.has_own_guess) own_aborted.push_back(t.own_guess);
  if (t.has_pending_join && t.join_guess.valid()) {
    own_aborted.push_back(t.join_guess);
    cancel_fork_timer(t.join_guess);
  }
  auto timer = compute_timers_.find(index);
  if (timer != compute_timers_.end()) {
    host_.scheduler().cancel(timer->second);
    compute_timers_.erase(timer);
  }
  if (t.phase == ThreadCtx::Phase::kAwaitReply && t.outstanding_reqid >= 0) {
    outstanding_calls_.erase(t.outstanding_reqid);
  }
  for (std::size_t i = t.flushed_count; i < t.event_log.size(); ++i) {
    if (t.event_log[i].kind == trace::ObservableEvent::Kind::kExternalOutput) {
      obs::Event ev = make_event(obs::EventKind::kExternalDiscarded);
      ev.thread = t.index;
      ev.a = i;
      ev.detail = t.event_log[i].data.to_string();
      record(std::move(ev));
      external_buffered_at_.erase({t.index, i});
    }
  }
  erase_thread(it);
}

void SpeculativeProcess::rollback_to(const StateIndex& target) {
  gc_stale_ = true;  // checkpoints, replay metadata and inputs are purged

  // Rollback distance: how many intervals the target thread is wound back.
  std::uint32_t pre_interval = target.interval;
  if (auto tgt = threads_.find(target.thread); tgt != threads_.end()) {
    pre_interval = std::max(pre_interval, tgt->second.interval);
  }

  // Kill every thread created after the restore point; the target thread
  // itself is restored.
  std::vector<std::uint32_t> doomed;
  for (auto& [idx, t] : threads_) {
    if (t.created_at > target) {
      doomed.push_back(idx);
    } else if (idx == target.thread) {
      doomed.push_back(idx);  // replaced by the checkpoint
    }
  }

  // State recorded after the target by the rolled-back threads belongs to
  // the abandoned timeline; a later replay-base search must never pick it
  // up.  Threads that survive (forked before the restore point) keep
  // theirs.  The post-rollback re-execution records fresh state under the
  // bumped incarnation, created after this purge.
  auto abandoned = [&](const StateIndex& key) {
    if (!(target < key)) return false;
    if (key.thread == target.thread) return true;
    return std::find(doomed.begin(), doomed.end(), key.thread) !=
           doomed.end();
  };
  for (auto it = checkpoints_.upper_bound(target);
       it != checkpoints_.end();) {
    it = abandoned(it->first) ? checkpoints_.erase(it) : std::next(it);
  }
  for (auto it = replay_meta_.upper_bound(target);
       it != replay_meta_.end();) {
    it = abandoned(it->first) ? replay_meta_.erase(it) : std::next(it);
  }
  // The rollback target is restored from a checkpoint, not killed outright:
  // its discarded compute is whatever it accumulated beyond what the
  // restored checkpoint retains, so defer the accounting until after the
  // restore.  (If the checkpoint turns out to be a zombie and gets dropped,
  // the retained amount is simply zero.)
  sim::Time target_pre_compute = 0;
  ThreadCtx target_snapshot{};
  bool have_target = false;
  if (auto tgt = threads_.find(target.thread); tgt != threads_.end()) {
    target_pre_compute = tgt->second.compute_ns;
    target_snapshot.index = tgt->second.index;
    target_snapshot.interval = tgt->second.interval;
    target_snapshot.has_own_guess = tgt->second.has_own_guess;
    target_snapshot.own_guess = tgt->second.own_guess;
    target_snapshot.own_site = tgt->second.own_site;
    have_target = true;
  }
  std::vector<GuessId> cascade;
  for (auto it = doomed.rbegin(); it != doomed.rend(); ++it) {
    const bool is_target = *it == target.thread;
    kill_thread(*it, cascade, /*emit_discard=*/!is_target);
  }
  if (!doomed.empty()) ++incarnation_;

  restore_thread(target);
  if (have_target) {
    sim::Time retained = 0;
    if (auto tgt = threads_.find(target.thread); tgt != threads_.end()) {
      retained = tgt->second.compute_ns;
    }
    if (target_pre_compute > retained) {
      record_work_discarded(target_snapshot, target_pre_compute - retained,
                            rollback_cause_);
    }
  }
  max_thread_ = threads_.empty() ? 0 : threads_.rbegin()->first;

  // Cascade aborts for our own guesses that died with the killed threads.
  std::uint64_t cascaded = 0;
  for (const auto& c : cascade) {
    if (history_.status(c) == GuessStatus::kUnknown) {
      history_.set_status(c, GuessStatus::kAborted);
      history_.observe_incarnation(id_, c.incarnation + 1, c.index);
      ++cascaded;
      record_abort(c, obs::AbortReason::kCascade, "killed-by-rollback",
                   rollback_cause_);
      distribute_control(ControlKind::kAbort, c, {});
    }
  }
  obs::abort_cascade_depth_hist(live_metrics_)
      .add(static_cast<double>(cascaded));
  // Parents whose speculative child died must re-execute S2 at their join.
  for (auto& [idx, t] : threads_) {
    if (!t.has_pending_join || t.join_guess_aborted) continue;
    if (!t.join_guess.valid()) continue;
    if (history_.status(t.join_guess) == GuessStatus::kAborted) {
      t.join_guess_aborted = true;
      cancel_fork_timer(t.join_guess);
      if (t.phase == ThreadCtx::Phase::kJoinWait &&
          threads_.count(t.join_right_index) == 0) {
        reexecute_right(t);
      }
    }
  }

  // Requeue inputs consumed after the restore point (Figure 5); the orphan
  // filter runs again when they are re-delivered.
  std::vector<LoggedInput> kept;
  kept.reserve(input_log_.size());
  std::vector<net::Envelope> requeued;
  for (auto& entry : input_log_) {
    // Only the rolled-back threads' consumptions are undone; messages a
    // surviving thread consumed stay consumed.
    const bool undone = target < entry.at &&
                        (entry.at.thread == target.thread ||
                         std::find(doomed.begin(), doomed.end(),
                                   entry.at.thread) != doomed.end());
    if (undone) {
      requeued.push_back(entry.env);
      ++stats_.messages_redelivered;
    } else {
      kept.push_back(std::move(entry));
    }
  }
  input_log_ = std::move(kept);
  {
    obs::Event ev = make_event(obs::EventKind::kRollback);
    ev.thread = target.thread;
    ev.interval = target.interval;
    ev.a = doomed.size();
    ev.b = requeued.size();
    ev.detail = target.to_string();
    record(std::move(ev));
    obs::rollback_distance_hist(live_metrics_)
        .add(static_cast<double>(pre_interval - target.interval));
  }
  for (auto it = requeued.rbegin(); it != requeued.rend(); ++it) {
    queue_pending(*it, /*front=*/true);
  }

  process_arrivals();
}

ThreadCtx SpeculativeProcess::rebuild_by_replay(const StateIndex& base,
                                                const StateIndex& target) {
  ++stats_.replays;
  ThreadCtx t = checkpoints_.at(base);
  stats_.rollback_restore_bytes += restore_cost_bytes(t.machine);
  if (config_.state == StateStrategy::kDeepCopy) {
    t.machine.deep_copy_state();
  }
  auto meta_it = replay_meta_.find(target);
  OCSP_CHECK_MSG(meta_it != replay_meta_.end(),
                 ("missing replay metadata at " + target.to_string() +
                  " base " + base.to_string() + " in " + name_)
                     .c_str());
  const ReplayMeta meta = meta_it->second;

  replaying_ = true;
  for (const auto& entry : input_log_) {
    if (entry.at.thread != target.thread) continue;
    if (!(base < entry.at) || target < entry.at) continue;
    // A periodic (mid-wait) checkpoint base starts out already blocked at
    // the receive/reply the first logged entry answers.
    if (t.machine.state() == csp::MachineState::kReady) {
      replay_until_blocked(t);
    }
    replay_feed(t, entry);
  }
  if (t.machine.state() == csp::MachineState::kReady) {
    replay_until_blocked(t);
  }
  replaying_ = false;

  // Deterministic replay must land exactly where the original execution
  // was when the dependency arrived.
  OCSP_CHECK_MSG(t.sent_count == meta.sent_count,
                 ("replay diverged: sent=" + std::to_string(t.sent_count) +
                  " expected=" + std::to_string(meta.sent_count) + " base=" +
                  base.to_string() + " target=" + target.to_string() +
                  " in " + name_)
                     .c_str());
  OCSP_CHECK(t.event_log.size() >= meta.flushed_count);
  t.flushed_count = meta.flushed_count;
  t.outstanding_reqid = meta.outstanding_reqid;
  return t;
}

void SpeculativeProcess::replay_until_blocked(ThreadCtx& t) {
  using K = csp::Effect::Kind;
  for (;;) {
    csp::Effect e = t.machine.step();
    switch (e.kind) {
      case K::kCall: {
        trace::ObservableEvent ev;
        ev.kind = trace::ObservableEvent::Kind::kSend;
        ev.process = id_;
        ev.peer = resolve(e.target);
        ev.op = e.op;
        ev.data = csp::Value(e.args);
        record_event(t, std::move(ev));
        ++t.sent_count;  // the original send already went out
        t.phase = ThreadCtx::Phase::kAwaitReply;
        return;
      }
      case K::kSend: {
        trace::ObservableEvent ev;
        ev.kind = trace::ObservableEvent::Kind::kSend;
        ev.process = id_;
        ev.peer = resolve(e.target);
        ev.op = e.op;
        ev.data = csp::Value(e.args);
        record_event(t, std::move(ev));
        ++t.sent_count;
        break;
      }
      case K::kReply:
        ++t.sent_count;
        break;
      case K::kPrint: {
        trace::ObservableEvent ev;
        ev.kind = trace::ObservableEvent::Kind::kExternalOutput;
        ev.process = id_;
        ev.data = e.value;
        record_event(t, std::move(ev));
        break;
      }
      case K::kCompute:
        // State reconstruction is instantaneous; the original already paid
        // the virtual time.  The replayed durations re-enter compute_ns so
        // the rebuilt thread accounts for the same useful work the original
        // had done by the target point (see ThreadCtx::compute_ns).
        t.compute_ns += e.duration;
        t.machine.resume();
        break;
      case K::kReceive:
        t.phase = ThreadCtx::Phase::kAwaitMessage;
        return;
      case K::kFork:
      case K::kDone:
        // Fork checkpoints bound every replay segment, and rollback targets
        // are always pre-acceptance states of a live thread.
        OCSP_CHECK_MSG(false, "unexpected effect during replay");
        return;
    }
  }
}

void SpeculativeProcess::replay_feed(ThreadCtx& t, const LoggedInput& entry) {
  const net::Envelope& env = entry.env;
  const auto msg = std::static_pointer_cast<const DataMessage>(env.payload);

  // Reproduce the original acceptance bookkeeping verbatim: the rebuilt
  // state must carry the *original* state indexes (incarnations included),
  // because rollback entries, replay metadata, and the input log are all
  // keyed by them.
  for (const auto& g : msg->guard.minus(t.guard)) {
    // Keep aborted guesses too: the original state at this point carried
    // them, and the abort-processing loop uses their presence to decide to
    // roll back even further.  Only committed guesses stopped being
    // dependencies.
    if (history_.status(g) == GuessStatus::kCommitted) continue;
    t.guard.add(g);
    t.rollbacks[g] = entry.pre;
  }
  t.interval = entry.at.interval;

  if (msg->data_kind == DataKind::kReturn) {
    OCSP_CHECK(t.phase == ThreadCtx::Phase::kAwaitReply);
    t.machine.resume_with_value(msg->result);
    t.phase = ThreadCtx::Phase::kRunning;
    t.outstanding_reqid = -1;
    trace::ObservableEvent ev;
    ev.kind = trace::ObservableEvent::Kind::kCallReturn;
    ev.process = id_;
    ev.peer = env.src;
    ev.data = msg->result;
    record_event(t, std::move(ev));
  } else {
    OCSP_CHECK(t.phase == ThreadCtx::Phase::kAwaitMessage);
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
  }
}

void SpeculativeProcess::restore_thread(const StateIndex& target) {
  ThreadCtx restored;
  auto cp = checkpoints_.find(target);
  if (cp != checkpoints_.end()) {
    restored = cp->second;  // copy: the checkpoint stays usable
    stats_.rollback_restore_bytes += restore_cost_bytes(restored.machine);
    if (config_.state == StateStrategy::kDeepCopy) {
      restored.machine.deep_copy_state();
    }
  } else {
    // Replay strategy: no per-interval checkpoint exists.  Find the latest
    // full checkpoint of this thread at or before the target (its creation
    // or a post-fork snapshot) and replay the logged inputs on top of it.
    OCSP_CHECK_MSG(config_.rollback == RollbackStrategy::kReplayFromLog,
                   "missing rollback checkpoint");
    StateIndex base{};
    bool found = false;
    for (auto it = checkpoints_.upper_bound(target);
         it != checkpoints_.begin();) {
      --it;
      if (it->first.thread == target.thread) {
        base = it->first;
        found = true;
        break;
      }
    }
    OCSP_CHECK_MSG(found, "no replay base checkpoint");
    restored = rebuild_by_replay(base, target);
  }
  const std::uint32_t idx = restored.index;

  if (restored.has_own_guess &&
      history_.status(restored.own_guess) == GuessStatus::kAborted) {
    // Zombie checkpoint: the guess guarding this thread's very existence
    // has aborted, so the parent's re-execution of S2 supersedes the whole
    // thread — restoring it would resurrect an aborted computation and the
    // abort-processing loop would never converge.  Make sure any guess this
    // state forked is dead too, then drop it.
    if (restored.has_pending_join && restored.join_guess.valid() &&
        history_.status(restored.join_guess) == GuessStatus::kUnknown) {
      history_.set_status(restored.join_guess, GuessStatus::kAborted);
      history_.observe_incarnation(id_, restored.join_guess.incarnation + 1,
                                   restored.join_guess.index);
      record_abort(restored.join_guess, obs::AbortReason::kCascade,
                   "zombie-checkpoint", rollback_cause_);
      distribute_control(ControlKind::kAbort, restored.join_guess, {});
    }
    return;
  }

  // The checkpoint predates everything we have since learned: scrub guard
  // members that have committed in the meantime (leaving aborted ones for
  // the abort-processing loop, which must roll back further for those).
  std::vector<GuessId> committed_since;
  for (const auto& g : restored.guard) {
    if (history_.status(g) == GuessStatus::kCommitted) {
      committed_since.push_back(g);
    }
  }
  for (const auto& g : committed_since) {
    restored.guard.erase(g);
    restored.rollbacks.erase(g);
  }

  switch (restored.phase) {
    case ThreadCtx::Phase::kRunning:
      schedule_step(idx);
      break;
    case ThreadCtx::Phase::kAwaitReply:
      OCSP_CHECK(restored.outstanding_reqid >= 0);
      outstanding_calls_[restored.outstanding_reqid] = idx;
      break;
    case ThreadCtx::Phase::kAwaitMessage:
      break;  // process_arrivals() follows the rollback
    default:
      OCSP_CHECK_MSG(false, "checkpoint captured an unexpected phase");
  }
  // Re-arm the fork timer if the restored state has an unresolved join
  // pending (conservatively with the full timeout).
  if (restored.has_pending_join && restored.join_guess.valid() &&
      !restored.join_guess_aborted) {
    if (history_.status(restored.join_guess) == GuessStatus::kUnknown) {
      arm_fork_timer(restored.join_guess, config_.fork_timeout);
    } else if (history_.status(restored.join_guess) ==
               GuessStatus::kAborted) {
      restored.join_guess_aborted = true;
    }
  }
  insert_thread(std::move(restored));
}

// ---------------------------------------------------------------------------
// PRECEDENCE (4.2.8)
// ---------------------------------------------------------------------------

void SpeculativeProcess::on_precedence_msg(const GuessId& subject,
                                           const GuardSet& guard) {
  // A PRECEDENCE can arrive after its subject resolved: over a non-FIFO
  // link the owner's later COMMIT or ABORT may overtake it.  The ordering
  // is moot then, and recording the subject as unknown would revive a
  // guess that an incarnation already aborted implicitly.
  if (history_.status(subject) != GuessStatus::kUnknown) return;
  history_.set_status(subject, GuessStatus::kUnknown);

  // Collect cycles first: aborting rolls threads back and removes nodes.
  std::vector<GuessId> own_to_abort;
  for (const auto& h : guard) {
    // The graph holds only unresolved guesses; only a guess this process
    // already knows needs the edge.
    if (history_.status(h) != GuessStatus::kUnknown) continue;
    if (!cdg_.has_node(h) && !cdg_.has_node(subject)) continue;
    if (cdg_.has_edge(h, subject)) continue;
    std::vector<GuessId> cycle = cdg_.add_edge(h, subject);
    {
      obs::Event ev = make_event(obs::EventKind::kCdgEdgeAdded);
      ev.guess = guess_ref(subject);
      ev.guess_from = guess_ref(h);
      record(std::move(ev));
    }
    if (!cycle.empty()) {
      obs::Event ev = make_event(obs::EventKind::kCdgCycleDetected);
      ev.guess = guess_ref(subject);
      ev.guess_from = guess_ref(h);
      ev.a = cycle.size();
      record(std::move(ev));
    }
    for (const auto& c : cycle) {
      if (c.owner == id_ &&
          history_.status(c) == GuessStatus::kUnknown &&
          std::find(own_to_abort.begin(), own_to_abort.end(), c) ==
              own_to_abort.end()) {
        own_to_abort.push_back(c);
      }
    }
  }
  for (const auto& c : own_to_abort) {
    record_abort(c, obs::AbortReason::kTimeFault, "precedence-cycle");
    abort_own_guess(c);
  }
}

// ---------------------------------------------------------------------------
// Post-change resolution: joins that can now commit, logs, completion
// ---------------------------------------------------------------------------

void SpeculativeProcess::after_guard_change() {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto& [idx, t] : threads_) {
      if (t.phase != ThreadCtx::Phase::kJoinWait) continue;
      if (t.join_guess_aborted) {
        if (threads_.count(t.join_right_index) == 0) {
          reexecute_right(t);
          progressed = true;
          break;
        }
        continue;
      }
      if (t.guard.empty()) {
        finalize_join_commit(t);
        progressed = true;
        break;
      }
    }
  }
  flush_logs();
  gc_resolved_state();
  check_completion();
}

void SpeculativeProcess::gc_resolved_state() {
  const RollbackSummary summary = rollback_summary();
  // The sweep is idempotent: against unchanged inputs it prunes nothing.
  if (gc_stale_ || !(summary == gc_summary_)) {
    sweep_resolved_state(summary);
    gc_summary_ = summary;
    gc_stale_ = false;
  }

  // Commits and explicit aborts remove their own node; guesses aborted
  // implicitly (through an incarnation, or killed with their thread) leave
  // the graph here, once per abort epoch.
  if (cdg_epoch_ != history_.abort_epoch()) {
    for (const auto& g : cdg_.nodes()) {
      if (history_.status(g) != GuessStatus::kUnknown) cdg_.remove_node(g);
    }
    cdg_epoch_ = history_.abort_epoch();
  }

  // Resolved guesses need no targeted-control bookkeeping either.  The
  // forward marks go with the recipients, so a control message retried
  // after this point still finds nothing to forward.
  for (auto it = spread_.begin(); it != spread_.end();) {
    if (history_.status(it->first) != GuessStatus::kUnknown) {
      for (ControlKind kind : {ControlKind::kCommit, ControlKind::kAbort,
                               ControlKind::kPrecedence}) {
        control_forwarded_.erase({it->first, static_cast<int>(kind)});
      }
      it = spread_.erase(it);
    } else {
      ++it;
    }
  }
  std::erase_if(safe_claimed_, [this](const GuessId& g) {
    return history_.status(g) != GuessStatus::kUnknown;
  });
}

void SpeculativeProcess::sweep_resolved_state(const RollbackSummary& summary) {
  // The earliest state a future rollback can target is the minimum
  // rollback point over every still-unresolved dependency.
  const bool any_unresolved = summary.any_unresolved;
  const StateIndex& low = summary.low;

  // Per thread, the replay strategy rebuilds from the latest full
  // checkpoint at or before the rollback target, so keep the greatest
  // checkpoint key <= low (or the greatest overall when nothing is in
  // doubt) and discard everything strictly older, along with the logged
  // inputs and replay metadata those checkpoints subsume.
  std::map<std::uint32_t, StateIndex> keep_from;
  for (const auto& [key, snapshot] : checkpoints_) {
    if (any_unresolved && low < key) continue;
    auto [it, inserted] = keep_from.try_emplace(key.thread, key);
    if (!inserted && it->second < key) it->second = key;
  }
  // Threads that are dead (terminated or gone) and targeted by no
  // unresolved rollback entry can never be resurrected; drop their state
  // wholesale.
  auto thread_dead = [&](std::uint32_t idx) {
    auto it = threads_.find(idx);
    return it == threads_.end() ||
           it->second.phase == ThreadCtx::Phase::kTerminated;
  };
  auto prunable = [&](const StateIndex& key) {
    if (thread_dead(key.thread) &&
        !std::binary_search(summary.targets.begin(), summary.targets.end(),
                            key.thread)) {
      return true;
    }
    auto keep = keep_from.find(key.thread);
    return keep != keep_from.end() && key < keep->second;
  };
  for (auto it = checkpoints_.begin(); it != checkpoints_.end();) {
    if (prunable(it->first)) {
      it = checkpoints_.erase(it);
      ++stats_.checkpoints_pruned;
    } else {
      ++it;
    }
  }
  for (auto it = replay_meta_.begin(); it != replay_meta_.end();) {
    if (prunable(it->first)) {
      it = replay_meta_.erase(it);
    } else {
      ++it;
    }
  }
  std::vector<LoggedInput> kept_inputs;
  kept_inputs.reserve(input_log_.size());
  for (auto& entry : input_log_) {
    if (prunable(entry.at)) {
      ++stats_.log_entries_pruned;
    } else {
      kept_inputs.push_back(std::move(entry));
    }
  }
  input_log_ = std::move(kept_inputs);
}

SpeculativeProcess::RollbackSummary SpeculativeProcess::rollback_summary()
    const {
  RollbackSummary out;
  for (const auto& [entry, refs] : rollback_index_) {
    const auto& [at, g] = entry;
    if (history_.status(g) != GuessStatus::kUnknown) continue;
    if (!out.any_unresolved) {
      out.any_unresolved = true;
      out.low = at;  // entries ascend by rollback point
    }
    out.targets.push_back(at.thread);
  }
  std::sort(out.targets.begin(), out.targets.end());
  out.targets.erase(std::unique(out.targets.begin(), out.targets.end()),
                    out.targets.end());
  return out;
}

SpeculativeProcess::RollbackSummary
SpeculativeProcess::rollback_summary_by_walk() const {
  RollbackSummary out;
  std::set<std::uint32_t> targets;
  for (const auto& [idx, t] : threads_) {
    for (const auto& [g, rb] : t.rollbacks) {
      if (history_.status(g) == GuessStatus::kUnknown) {
        out.any_unresolved = true;
        if (rb < out.low) out.low = rb;
        targets.insert(rb.thread);
      }
    }
  }
  out.targets.assign(targets.begin(), targets.end());
  return out;
}

std::string SpeculativeProcess::RollbackSummary::to_string() const {
  std::string out = any_unresolved ? "low=" + low.to_string() : "resolved";
  out += " targets={";
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(targets[i]);
  }
  return out + "}";
}

}  // namespace ocsp::spec
