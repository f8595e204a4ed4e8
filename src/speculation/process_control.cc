// Control-message processing and rollback (sections 4.1.3, 4.2.5-4.2.8).
//
// COMMIT removes a guess (and its implied-committed CDG predecessors) from
// the process's CDG and every thread; ABORT computes the Abortset per
// thread, finds the earliest rollback point, kills every thread created
// after it and restores the target thread from its checkpoint.  A rollback
// and an own-guess abort kill through one discard path: it drops the dead
// threads' rollback logs and rollback entries (the restored thread keeps
// the log up to the restore point and the entries acquired before it),
// requeues the input messages they had consumed (Figure 5: "Z must re-read
// message C2 after rolling back"; the orphan filter drops the tainted
// ones), and cascades ABORTs for our own guesses that died.  PRECEDENCE
// adds edges to the process's one CDG and aborts our own guesses on any
// cycle (time fault, Figures 4 and 7).
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
    record(ev);
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
        auto resend = [this, dst, msg]() {
          ++stats_.control_sent;
          host_.network().send(id_, dst, msg);
        };
        static_assert(
            sim::Scheduler::Callback::kStoredInline<decltype(resend)>,
            "control retry closure outgrew the scheduler's inline storage");
        host_.scheduler().after(delay, std::move(resend));
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
    // Only threads holding a rollback entry for h can carry it in a guard
    // (a guard member always has one).
    for (std::uint32_t idx : rollback_index_.holders(h)) {
      ThreadCtx& t = threads_.at(idx);
      t.guard.erase(h);
      ++bookkeeping_visits_;
      rollback_index_.remove(idx, h, dirty_threads_);
      if (t.phase == ThreadCtx::Phase::kTerminated) note_settled(t);
      if (t.phase == ThreadCtx::Phase::kJoinWait && t.guard.empty()) {
        join_candidates_.insert(idx);
      }
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
      ++bookkeeping_visits_;
      std::vector<GuessId> abortset;
      // Walk the full acquisition record, not just the guard set: the
      // one-guess-per-owner subsumption (4.1.5) may have replaced an
      // earlier aborted guess, but the state became contaminated at the
      // earlier acquisition point.
      for (const auto& [a, rb] : rollback_index_.entries(idx)) {
        ++bookkeeping_visits_;
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
        const StateIndex* rb = rollback_index_.point(idx, a);
        OCSP_CHECK_MSG(rb != nullptr, "guard member without rollback");
        if (!found || *rb < target) {
          found = true;
          target = *rb;
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

  // Kill the guarded thread and everything the chain forked after it.  No
  // retired thread is among them: a settled thread at or past g.index
  // means g committed.
  OCSP_CHECK_MSG(g.index >= retired_end_, "abort reaches a retired thread");
  std::vector<std::uint32_t> doomed;
  for (auto it = threads_.lower_bound(g.index); it != threads_.end(); ++it) {
    ++bookkeeping_visits_;
    doomed.push_back(it->first);
  }
  const GuessId saved_cause = rollback_cause_;
  rollback_cause_ = g;
  std::vector<GuessId> died;
  discard_threads(doomed, std::nullopt, g, died);
  rollback_cause_ = saved_cause;
  if (!doomed.empty()) {
    incarnation_start_ = g.index;
    max_thread_ = g.index == 0 ? 0 : g.index - 1;
  }

  // Threads below g.index may have been contaminated by g through message
  // tags (the Figure 4 time fault); run the generic abort machinery.
  abort_guess_local(g);
  for (const auto& c : died) {
    if (!(c == g)) abort_guess_local(c);
  }

  // Mark the parent join so the left thread re-executes S2 when it
  // completes; if it is already waiting at the join, re-execute now.
  for (auto& [idx, t] : threads_) {
    ++bookkeeping_visits_;
    if (t.has_pending_join && t.join_guess == g) {
      t.join_guess_aborted = true;
      if (t.phase == ThreadCtx::Phase::kJoinWait) join_candidates_.insert(idx);
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

void SpeculativeProcess::rollback_to(const StateIndex& target) {
  // Rollback distance: how many intervals the target thread is wound back.
  std::uint32_t pre_interval = target.interval;
  if (auto tgt = threads_.find(target.thread); tgt != threads_.end()) {
    pre_interval = std::max(pre_interval, tgt->second.interval);
  }

  // Kill every thread created after the restore point; the target thread
  // itself is restored.  No retired thread is among them: it was settled,
  // and no rollback point precedes a settled thread's creation.
  OCSP_CHECK_MSG(retired_end_ == 0 || !(target < retired_created_max_),
                 "rollback reaches a retired thread");
  std::vector<std::uint32_t> doomed;
  for (auto& [idx, t] : threads_) {
    ++bookkeeping_visits_;
    if (t.created_at > target || idx == target.thread) doomed.push_back(idx);
  }
  std::vector<GuessId> died;
  discard_threads(doomed, target, GuessId{}, died);
  max_thread_ = threads_.empty() ? 0 : threads_.rbegin()->first;
  if (retired_end_ != 0) max_thread_ = std::max(max_thread_, retired_end_ - 1);

  // Parents whose speculative child died must re-execute S2 at their join.
  for (auto& [idx, t] : threads_) {
    ++bookkeeping_visits_;
    if (!t.has_pending_join || t.join_guess_aborted) continue;
    if (!t.join_guess.valid()) continue;
    if (history_.status(t.join_guess) == GuessStatus::kAborted) {
      t.join_guess_aborted = true;
      if (t.phase == ThreadCtx::Phase::kJoinWait) join_candidates_.insert(idx);
      cancel_fork_timer(t.join_guess);
      if (t.phase == ThreadCtx::Phase::kJoinWait &&
          threads_.count(t.join_right_index) == 0) {
        reexecute_right(t);
      }
    }
  }

  {
    obs::Event ev = make_event(obs::EventKind::kRollback);
    ev.thread = target.thread;
    ev.a = doomed.size();
    record(ev, target.to_string());
    obs::rollback_distance_hist(live_metrics_)
        .add(static_cast<double>(pre_interval - target.interval));
  }
  process_arrivals();
}

void SpeculativeProcess::discard_threads(
    const std::vector<std::uint32_t>& doomed,
    const std::optional<StateIndex>& restore, const GuessId& root,
    std::vector<GuessId>& died) {
  // A restored target is not killed outright: its discarded compute is
  // whatever it accumulated beyond what the restored checkpoint retains,
  // accounted after the restore.  (If the checkpoint turns out to be a
  // zombie and gets dropped, the retained amount is simply zero.)
  std::optional<ThreadCtx> target;
  for (auto idx = doomed.rbegin(); idx != doomed.rend(); ++idx) {
    auto it = threads_.find(*idx);
    if (it == threads_.end()) continue;
    ThreadCtx& t = it->second;
    const bool restored = restore && t.index == restore->thread;
    if (!restored) record_work_discarded(t, t.compute_ns, rollback_cause_);
    if (t.phase == ThreadCtx::Phase::kDoneWaitGuard) {
      obs::Event ev = make_event(obs::EventKind::kThreadResolved);
      ev.thread = t.index;
      record(ev, "killed");
    }
    if (t.has_own_guess) died.push_back(t.own_guess);
    if (t.has_pending_join && t.join_guess.valid()) {
      died.push_back(t.join_guess);
      cancel_fork_timer(t.join_guess);
    }
    auto timer = compute_timers_.find(t.index);
    if (timer != compute_timers_.end()) {
      host_.scheduler().cancel(timer->second);
      compute_timers_.erase(timer);
    }
    if (t.phase == ThreadCtx::Phase::kAwaitReply && t.outstanding_reqid >= 0) {
      outstanding_calls_.erase(t.outstanding_reqid);
    }
    for (std::size_t i = t.flushed_count; i < t.event_log.size(); ++i) {
      if (t.event_log[i].kind ==
          trace::ObservableEvent::Kind::kExternalOutput) {
        obs::Event ev = make_event(obs::EventKind::kExternalDiscarded);
        ev.thread = t.index;
        ev.a = i;
        record(ev, t.event_log[i].data.to_string());
        external_buffered_at_.erase({t.index, i});
      }
    }
    drop_rollbacks(t.index, restored ? restore : std::nullopt);
    auto node = erase_thread(it);
    if (restored) target = std::move(node.mapped());
    join_rescan_ = true;  // a join-waiter's right thread may be gone
  }

  // What the dead threads logged belongs to the abandoned timeline: a
  // later replay-base search must never pick it up, and the inputs they
  // consumed go back in front of the queue (Figure 5: "Z must re-read
  // message C2 after rolling back"), in acceptance order, where the orphan
  // filter runs again.  The restored thread keeps its log up to the
  // restore point.
  std::vector<LoggedInput> inputs;
  for (std::uint32_t idx : doomed) {
    if (!restore || idx != restore->thread) cut_log(idx, std::nullopt, inputs);
  }
  if (restore) cut_log(restore->thread, restore, inputs);
  std::sort(inputs.begin(), inputs.end(),
            [](const LoggedInput& a, const LoggedInput& b) {
              return a.seq < b.seq;
            });
  for (auto it = inputs.rbegin(); it != inputs.rend(); ++it) {
    queue_pending(it->env, /*front=*/true);
  }
  stats_.messages_redelivered += inputs.size();

  if (!doomed.empty()) ++incarnation_;
  if (restore) {
    restore_thread(*restore);
    if (target) {
      auto tgt = threads_.find(restore->thread);
      const sim::Time retained =
          tgt == threads_.end() ? 0 : tgt->second.compute_ns;
      if (target->compute_ns > retained) {
        record_work_discarded(*target, target->compute_ns - retained,
                              rollback_cause_);
      }
    }
  }
  if (root.valid()) distribute_control(ControlKind::kAbort, root, {});

  // Cascade aborts for our own guesses that died with the killed threads.
  std::uint64_t cascaded = 0;
  for (const auto& c : died) {
    if (history_.status(c) != GuessStatus::kUnknown) continue;
    history_.set_status(c, GuessStatus::kAborted);
    history_.observe_incarnation(id_, c.incarnation + 1, c.index);
    ++cascaded;
    record_abort(c, obs::AbortReason::kCascade,
                 restore ? "killed-by-rollback" : "killed-with-thread",
                 rollback_cause_);
    distribute_control(ControlKind::kAbort, c, {});
  }
  obs::abort_cascade_depth_hist(live_metrics_)
      .add(static_cast<double>(cascaded));
}

void SpeculativeProcess::cut_log(std::uint32_t thread,
                                 const std::optional<StateIndex>& after,
                                 std::vector<LoggedInput>& inputs) {
  auto log = logs_.find(thread);
  if (log == logs_.end()) return;
  RollbackLog& l = log->second;
  auto from = [&](auto& keyed) {
    return after ? keyed.upper_bound(*after) : keyed.begin();
  };
  for (auto it = from(l.inputs); it != l.inputs.end();
       it = l.inputs.erase(it)) {
    ++bookkeeping_visits_;
    inputs.push_back(std::move(it->second));
  }
  l.checkpoints.erase(from(l.checkpoints), l.checkpoints.end());
  l.replay_meta.erase(from(l.replay_meta), l.replay_meta.end());
  if (l.checkpoints.empty() && l.replay_meta.empty() && l.inputs.empty()) {
    logs_.erase(log);
  }
}

ThreadCtx SpeculativeProcess::rebuild_by_replay(const RollbackLog& log,
                                                const StateIndex& target) {
  ++stats_.replays;
  const auto& [base, snapshot] = *log.checkpoints.rbegin();
  ThreadCtx t = snapshot;
  stats_.rollback_restore_bytes += restore_cost_bytes(t.machine);
  if (config_.state == StateStrategy::kDeepCopy) {
    t.machine.deep_copy_state();
  }
  auto meta_it = log.replay_meta.find(target);
  OCSP_CHECK_MSG(meta_it != log.replay_meta.end(),
                 ("missing replay metadata at " + target.to_string() +
                  " base " + base.to_string() + " in " + name_)
                     .c_str());
  const ReplayMeta meta = meta_it->second;

  replaying_ = true;
  for (auto it = log.inputs.upper_bound(base);
       it != log.inputs.end() && !(target < it->first); ++it) {
    ++bookkeeping_visits_;
    const LoggedInput& entry = it->second;
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
  // because rollback entries and rollback logs are keyed by them.  The
  // entries themselves need no rebuilding: the restore kept the ones
  // acquired before the target, aborted guesses included.
  for (const auto& g : msg->guard.minus(t.guard)) {
    // Keep aborted guesses too: the original state at this point carried
    // them, and the abort-processing loop uses their presence to decide to
    // roll back even further.  Only committed guesses stopped being
    // dependencies.
    if (history_.status(g) == GuessStatus::kCommitted) continue;
    t.guard.add(g);
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
  // The log was cut after the target: its latest checkpoint is the one at
  // the target, or else (replay strategy) the replay base, the thread's
  // creation or a post-fork snapshot.
  auto log = logs_.find(target.thread);
  OCSP_CHECK_MSG(log != logs_.end() && !log->second.checkpoints.empty(),
                 "missing rollback checkpoint");
  ThreadCtx restored;
  const auto& [latest, snapshot] = *log->second.checkpoints.rbegin();
  if (latest == target) {
    restored = snapshot;  // copy: the checkpoint stays usable
    stats_.rollback_restore_bytes += restore_cost_bytes(restored.machine);
    if (config_.state == StateStrategy::kDeepCopy) {
      restored.machine.deep_copy_state();
    }
  } else {
    OCSP_CHECK_MSG(config_.rollback == RollbackStrategy::kReplayFromLog,
                   "missing rollback checkpoint");
    restored = rebuild_by_replay(log->second, target);
  }
  const std::uint32_t idx = restored.index;

  if (restored.has_own_guess &&
      history_.status(restored.own_guess) == GuessStatus::kAborted) {
    // Zombie checkpoint: the guess guarding this thread's very existence
    // has aborted, so the parent's re-execution of S2 supersedes the whole
    // thread — restoring it would resurrect an aborted computation and the
    // abort-processing loop would never converge.  Make sure any guess this
    // state forked is dead too, then drop it and the entries it kept.
    drop_rollbacks(idx);
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
  // The rollback entries need no scrub: the index kept the thread's own,
  // from which every commit already removed its guess.
  std::vector<GuessId> committed_since;
  for (const auto& g : restored.guard) {
    if (history_.status(g) == GuessStatus::kCommitted) {
      committed_since.push_back(g);
    }
  }
  for (const auto& g : committed_since) restored.guard.erase(g);

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
      record(ev);
    }
    if (!cycle.empty()) {
      obs::Event ev = make_event(obs::EventKind::kCdgCycleDetected);
      ev.guess = guess_ref(subject);
      ev.guess_from = guess_ref(h);
      ev.a = cycle.size();
      record(ev);
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
  while (ThreadCtx* t = next_ready_join()) {
    if (t->join_guess_aborted) {
      reexecute_right(*t);
    } else {
      finalize_join_commit(*t);
    }
  }
  flush_logs();
  gc_resolved_state();
  check_completion();
  retire_settled_threads();
}

ThreadCtx* SpeculativeProcess::next_ready_join() {
  // The join-waiters outside join_candidates_ are known not to be ready,
  // so the lowest ready candidate is the lowest ready waiter.
  if (join_rescan_) {
    join_candidates_.insert(join_waiting_.begin(), join_waiting_.end());
    join_rescan_ = false;
  }
  while (!join_candidates_.empty()) {
    ++bookkeeping_visits_;
    const std::uint32_t idx = *join_candidates_.begin();
    join_candidates_.erase(join_candidates_.begin());
    auto it = threads_.find(idx);
    if (it == threads_.end() ||
        it->second.phase != ThreadCtx::Phase::kJoinWait) {
      continue;
    }
    ThreadCtx& t = it->second;
    const bool ready = t.join_guess_aborted
                           ? threads_.count(t.join_right_index) == 0
                           : t.guard.empty();
    if (ready) return &t;
  }
  return nullptr;
}

void SpeculativeProcess::gc_resolved_state() {
  sweep_resolved_state();

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

void SpeculativeProcess::sweep_resolved_state() {
  // What is prunable: the whole log of a thread that is dead (terminated
  // or gone) and targeted by no unresolved rollback entry, since it can
  // never be resurrected; and, per log, everything keyed before its latest
  // checkpoint at or before the low-water mark (the latest overall when
  // nothing is in doubt), since the replay strategy rebuilds from the
  // latest full checkpoint at or before a rollback target.  The previous
  // sweep left nothing prunable, so only threads that have since died or
  // lost their last target, taken a checkpoint, or had the mark rise past
  // their keys can have more.
  //
  // Between steps the index holds only unresolved guesses, so it is read
  // unfiltered: its first entry is the mark and its targets are exact.  An
  // entry of a resolved guess could only lower the mark or add a target,
  // so it would keep state longer, never prune state a rollback needs.
  for (std::uint32_t thread : dirty_threads_) {
    ++bookkeeping_visits_;
    auto t = threads_.find(thread);
    const bool dead = t == threads_.end() ||
                      t->second.phase == ThreadCtx::Phase::kTerminated;
    if (!dead || rollback_index_.targets(thread)) continue;
    auto log = logs_.find(thread);
    if (log == logs_.end()) continue;
    prune_log(log->second, StateIndex{~0u, ~0u, ~0u});
    logs_.erase(log);
  }
  dirty_threads_.clear();

  const bool any = !rollback_index_.empty();
  if (any) ++bookkeeping_visits_;
  const StateIndex low =
      any ? rollback_index_.begin()->first.first : StateIndex{~0u, ~0u, ~0u};
  auto prune_to_mark = [&](RollbackLog& log) {
    ++bookkeeping_visits_;
    const auto& checkpoints = log.checkpoints;
    auto above = any ? checkpoints.upper_bound(low) : checkpoints.end();
    if (above != checkpoints.begin()) prune_log(log, std::prev(above)->first);
  };
  if (swept_any_ && (!any || swept_low_ < low)) {
    // Within one incarnation, the keys the mark rose past, those in
    // (swept_low_, low], belong to the threads between the marks' threads.
    auto first = logs_.begin();
    auto last = logs_.end();
    if (any && swept_low_.incarnation == low.incarnation) {
      first = logs_.lower_bound(swept_low_.thread);
      last = logs_.upper_bound(low.thread);
    }
    for (auto it = first; it != last; ++it) prune_to_mark(it->second);
  }
  for (std::uint32_t thread : checkpointed_) {
    if (auto log = logs_.find(thread); log != logs_.end()) {
      prune_to_mark(log->second);
    }
  }
  checkpointed_.clear();
  swept_any_ = any;
  swept_low_ = low;
}

void SpeculativeProcess::prune_log(RollbackLog& log, const StateIndex& keep) {
  auto prune = [&](auto& keyed, std::uint64_t* pruned) {
    for (auto it = keyed.begin(); it != keyed.end() && it->first < keep;) {
      ++bookkeeping_visits_;
      it = keyed.erase(it);
      if (pruned != nullptr) ++*pruned;
    }
  };
  prune(log.checkpoints, &stats_.checkpoints_pruned);
  prune(log.replay_meta, nullptr);
  prune(log.inputs, &stats_.log_entries_pruned);
}

SpeculativeProcess::RollbackSummary SpeculativeProcess::rollback_summary()
    const {
  RollbackSummary out;
  if (rollback_index_.empty()) return out;
  out.any_unresolved = true;
  out.low = rollback_index_.begin()->first.first;
  for (const auto& [thread, entries] : rollback_index_.target_threads()) {
    out.targets.push_back(thread);
  }
  return out;
}

SpeculativeProcess::RollbackSummary
SpeculativeProcess::rollback_summary_by_walk() const {
  RollbackSummary out;
  std::set<std::uint32_t> targets;
  for (const auto& [idx, t] : threads_) {
    for (const auto& [g, rb] : rollback_index_.entries(idx)) {
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
