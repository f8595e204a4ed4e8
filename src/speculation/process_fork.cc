// Fork and join (sections 4.2.1 and 4.2.5).
//
// The fork always records enough to re-execute S2 from the left thread's
// final state (join_right_initial + wholesale env adoption), which unifies
// three paths: the pessimistic fallback (speculation disabled or retry
// limit L exhausted), re-execution after a value/time fault, and
// re-execution after a timeout abort.  The right thread's RNG is split from
// the parent's at the fork point in every mode, so optimistic and
// pessimistic executions of the same program observe identical random
// draws (a prerequisite for the Theorem 1 trace-equality tests).
#include "analysis/commute.h"
#include "speculation/process.h"
#include "util/check.h"
#include "util/logging.h"

namespace ocsp::spec {

void SpeculativeProcess::arm_fork_timer(const GuessId& guess,
                                        sim::Time timeout) {
  if (timeout <= 0) return;
  cancel_fork_timer(guess);
  fork_timers_[guess] = host_.scheduler().after(timeout, [this, guess]() {
    fork_timers_.erase(guess);
    on_fork_timeout(guess);
  });
}

void SpeculativeProcess::cancel_fork_timer(const GuessId& guess) {
  auto it = fork_timers_.find(guess);
  if (it == fork_timers_.end()) return;
  host_.scheduler().cancel(it->second);
  fork_timers_.erase(it);
}

void SpeculativeProcess::inherit_rollbacks(const ThreadCtx& parent,
                                           const GuardSet& members,
                                           std::uint32_t child) {
  // Only guard members: any other entry g -> p of the parent has p before
  // the child's creation and is held by the thread that made the
  // acquisition, whose rollback to p kills the child anyway.
  for (const auto& g : members) {
    ++bookkeeping_visits_;
    const StateIndex* at = rollback_index_.point(parent.index, g);
    OCSP_CHECK_MSG(at != nullptr, "guard without rollback");
    rollback_index_.add(child, g, *at);
  }
}

void SpeculativeProcess::do_fork(ThreadCtx& t, const csp::ForkStmt& f) {
  // The governor's circuit breaker sits beside the liveness limit L: L is
  // monotone per site (reset on commit), the breaker is an EWMA with
  // hysteresis so a storming site comes back once the storm passes.
  const bool governed = governor_blocks(f.site);
  if (governed) ++stats_.governor_sequential_forks;
  const bool speculate =
      config_.speculation_enabled && !governed &&
      site_aborts_[f.site] < config_.retry_limit;
  // Statically-SAFE site (src/analysis): run both threads with the guess /
  // guard / commit machinery elided.  Under the soundness oracle the site
  // takes the full speculative path instead, so the classifier's claim is
  // checked at every join (record_abort flags any value/time fault).
  const bool safe_fast_path =
      f.mode == csp::ForkMode::kSafe && speculate && !config_.safe_site_oracle;

  // Prepare the right thread's start machine: a copy of the fork-point
  // state positioned at S2 with a split RNG stream.  Under the COW state
  // strategy this copy is the paper's §3.2 elision made literal: it is a
  // shared handle, and only the guessed-variable writes below materialize
  // anything.  Under kDeepCopy the whole Env detaches here (the oracle's
  // O(|state|) cost).
  csp::Machine right_machine = t.machine;
  apply_state_strategy(right_machine);
  right_machine.take_fork_branch(/*left=*/false);
  right_machine.rng() = t.machine.rng().split();

  // The left thread drops the continuation and runs S1 only.
  t.machine.take_fork_branch(/*left=*/true);

  t.has_pending_join = true;
  t.join_right_index = max_thread_ + 1;
  t.join_site = f.site;
  t.join_passed = f.passed;
  t.join_guessed.clear();
  t.join_verify = f.verify;
  t.join_forgiven = 0;
  t.join_guess_aborted = false;
  t.join_safe = false;

  // Commit-on-commute oracle: re-derive each annotated variable's use class
  // over the right thread's ACTUAL remaining program — the S2 branch plus
  // every statement the enclosing continuation will still run, straight off
  // the machine's frame stack — and drop any VerifyMode the static proof no
  // longer supports (a stale annotation after a rewrite would make
  // forgiveness unsound).  Checking f.right alone is not enough: a forgiven
  // commit leaves the guessed value in the surviving env, so a variable the
  // right branch never touches but the post-fork continuation value-reads
  // is exactly the unsound-annotation shape the oracle exists to catch.
  // The dropped variable falls back to exact verification, so the run
  // itself stays correct either way.
  if (config_.commute_oracle && !t.join_verify.empty()) {
    const std::vector<const csp::Stmt*> right_path =
        right_machine.pending_stmts();
    for (auto it = t.join_verify.begin(); it != t.join_verify.end();) {
      const analysis::UseClass uc = analysis::use_of(right_path, it->first);
      const bool supported =
          (it->second == csp::VerifyMode::kDead &&
           uc == analysis::UseClass::kUnused) ||
          (it->second == csp::VerifyMode::kBoolean &&
           uc != analysis::UseClass::kValueUsed);
      if (supported) {
        ++it;
      } else {
        ++stats_.commute_oracle_violations;
        OCSP_WLOG << "commute oracle: annotation verify="
                  << csp::to_string(it->second) << " for '" << it->first
                  << "' at site " << f.site << " is unsupported (use class "
                  << analysis::to_string(uc) << "); reverting to exact";
        it = t.join_verify.erase(it);
      }
    }
  }

  if (safe_fast_path) {
    const std::uint32_t new_index = ++max_thread_;
    t.join_safe = true;
    t.join_guess = GuessId{};  // no guess: nothing to verify at the join

    ThreadCtx r;
    r.index = new_index;
    r.interval = 0;
    r.machine = std::move(right_machine);
    // A SAFE fork adds no guess of its own, but any enclosing speculation
    // still guards both threads: inherit the parent's dependencies.
    r.guard = t.guard;
    inherit_rollbacks(t, t.guard, new_index);
    r.has_own_guess = false;
    r.created_at = current_index(t);

    {
      obs::Event fe = make_event(obs::EventKind::kFork);
      fe.thread = t.index;
      fe.a = 2;  // SAFE fast path
      record(fe, f.site);
      obs::Event ie = make_event(obs::EventKind::kIntervalBegin);
      ie.thread = new_index;
      ie.a = 2;
      record(ie, f.site);
      // The scorecard's zero-cost entry: state bytes a speculative fork
      // would have snapshotted here, elided along with the guess/guard/
      // verification machinery.
      obs::Event se = make_event(obs::EventKind::kSafeForkElided);
      se.thread = new_index;
      se.a = r.machine.state_bytes();
      record(se, f.site);
    }

    insert_thread(std::move(r));
    schedule_step(new_index);

    // No fork timer (S1 cannot fault), no predictor work, no creation
    // checkpoint for the right thread (no rollback ever targets it: it has
    // no guess, and an enclosing abort kills it outright and re-runs the
    // fork).  The left thread keeps the usual interval/replay discipline.
    ++t.interval;
    if (config_.rollback == RollbackStrategy::kReplayFromLog) {
      take_checkpoint(t);
      ++t.interval;
    }
    return;
  }

  if (!speculate) {
    ++stats_.sequential_forks;
    // A governed sequential pass cannot abort; feeding the success into the
    // EWMA is what decays a demoted site back toward promotion (hysteresis
    // re-enable).
    if (governed) governor_outcome(f.site, /*aborted=*/false);
    // Keep the right thread dormant until the join supplies the actual
    // state.
    max_thread_ = t.join_right_index;
    t.join_guess = GuessId{};  // invalid: sequential join
    t.join_right_initial = std::move(right_machine);
    {
      obs::Event fe = make_event(obs::EventKind::kFork);
      fe.thread = t.index;
      record(fe, f.site);
      obs::Event ie = make_event(obs::EventKind::kIntervalBegin);
      ie.thread = t.join_right_index;
      record(ie, f.site);
    }
    ++t.interval;  // give the post-fork state its own index
    if (config_.rollback == RollbackStrategy::kReplayFromLog) {
      take_checkpoint(t);
      ++t.interval;
    }
    return;
  }

  const std::uint32_t new_index = ++max_thread_;
  const GuessId guess{id_, incarnation_, new_index};
  t.join_guess = guess;
  if (f.mode == csp::ForkMode::kSafe) {
    // Oracle mode: remember that this guess belongs to a SAFE claim.
    safe_claimed_.insert(guess);
  }

  // Apply the compiler-chosen predictor to each passed variable (3.2).
  for (const auto& v : f.passed) {
    auto spec_it = f.predictors.find(v);
    OCSP_CHECK_MSG(spec_it != f.predictors.end(), "missing predictor");
    csp::Value b =
        predictors_.guess(f.site, v, spec_it->second, t.machine.env());
    right_machine.env().set(v, b);
    t.join_guessed[v] = std::move(b);
  }
  t.join_right_initial = right_machine;  // kept for re-execution
  apply_state_strategy(t.join_right_initial);

  ThreadCtx r;
  r.index = new_index;
  r.interval = 0;
  r.machine = std::move(right_machine);
  r.guard = t.guard;
  r.guard.add(guess);
  inherit_rollbacks(t, t.guard, new_index);
  rollback_index_.add(new_index, guess,
                      StateIndex{incarnation_, new_index, 0});
  r.has_own_guess = true;
  r.own_guess = guess;
  r.own_site = f.site;
  r.created_at = current_index(t);

  history_.set_status(guess, GuessStatus::kUnknown);
  cdg_.add_node(guess);

  {
    obs::Event fe = make_event(obs::EventKind::kFork);
    fe.thread = t.index;
    fe.guess = guess_ref(guess);
    fe.a = 1;  // speculative
    record(fe, f.site);
    obs::Event ie = make_event(obs::EventKind::kIntervalBegin);
    ie.thread = new_index;
    ie.guess = guess_ref(guess);
    ie.a = 1;
    record(ie, f.site);
    obs::Event ge = make_event(obs::EventKind::kGuessMade);
    ge.thread = new_index;
    ge.guess = guess_ref(guess);
    ge.a = f.passed.size();
    record(ge, f.site);
  }

  ThreadCtx& right = insert_thread(std::move(r));
  obs::speculation_depth_hist(live_metrics_)
      .add(static_cast<double>(right.guard.size()));
  take_checkpoint(right);
  ++right.interval;  // keep the creation checkpoint key unique
  schedule_step(new_index);

  // The parent continues as the left thread; give its post-fork state its
  // own index, and under the replay strategy take a full checkpoint here so
  // replay segments never have to reconstruct fork bookkeeping.  The extra
  // bump keeps the checkpoint key distinct from any later acceptance
  // rollback point.
  ++t.interval;
  if (config_.rollback == RollbackStrategy::kReplayFromLog) {
    take_checkpoint(t);
    ++t.interval;
  }

  const sim::Time timeout =
      f.timeout > 0 ? f.timeout : config_.fork_timeout;
  arm_fork_timer(guess, timeout);
}

void SpeculativeProcess::do_join(ThreadCtx& left) {
  do_join_inner(left);
  after_guard_change();
}

void SpeculativeProcess::do_join_inner(ThreadCtx& left) {
  const bool safe_join = left.join_safe;
  const bool sequential = !safe_join && !left.join_guess.valid();
  {
    obs::Event je = make_event(obs::EventKind::kJoin);
    je.thread = left.index;
    if (!sequential && !safe_join) je.guess = guess_ref(left.join_guess);
    record(je, sequential ? "sequential" : left.join_site);
  }

  if (safe_join) {
    // Nothing was guessed and nothing needs verifying or re-executing: the
    // right thread has been running the true continuation all along.  The
    // caller's after_guard_change() drains the right thread's buffered
    // events (flush order requires this thread terminated first) and
    // re-checks completion.
    terminate_thread(left);
    left.has_pending_join = false;
    left.join_safe = false;
    return;
  }

  if (!sequential) cancel_fork_timer(left.join_guess);

  // Feed the predictor caches with the actual values, and verify the
  // guesses (the verifier of section 4.2.5).  Accuracy is recorded even
  // when the guess already died from a timeout or cascade: prediction
  // quality is independent of the guess's fate.
  //
  // Commit-on-commute relaxation: a mismatch on a variable whose VerifyMode
  // proves it dead in the right thread always forgives; a boolean-only
  // variable forgives when guess and actual agree on truthiness (the right
  // thread took the same branches either way).  Raw mismatches still feed
  // the predictor caches and the guess-failed event — prediction quality is
  // a property of the predictor, not of what the verifier tolerates.
  bool value_fault = false;
  std::uint64_t forgiven = 0;
  for (const auto& v : left.join_passed) {
    const csp::Value actual = left.machine.env().get_or(v, csp::Value());
    predictors_.observe(left.join_site, v, actual);
    if (!sequential) {
      const csp::Value& guessed = left.join_guessed.at(v);
      const bool hit = actual == guessed;
      predictors_.record_result(left.join_site, v, hit);
      if (hit) continue;
      csp::VerifyMode mode = csp::VerifyMode::kExact;
      if (config_.commute_verification) {
        auto vm = left.join_verify.find(v);
        if (vm != left.join_verify.end()) mode = vm->second;
      }
      const bool forgive =
          mode == csp::VerifyMode::kDead ||
          (mode == csp::VerifyMode::kBoolean &&
           actual.truthy() == guessed.truthy());
      if (forgive) {
        ++forgiven;
      } else {
        value_fault = true;
      }
    }
  }
  if (!sequential) {
    const bool raw_fault = value_fault || forgiven != 0;
    obs::Event ge = make_event(raw_fault ? obs::EventKind::kGuessFailed
                                         : obs::EventKind::kGuessVerified);
    ge.thread = left.index;
    ge.guess = guess_ref(left.join_guess);
    record(ge, left.join_site);
    left.join_forgiven = value_fault ? 0 : forgiven;
  }

  if (sequential || left.join_guess_aborted) {
    // Pessimistic release, or the guess died earlier (timeout / cascade):
    // start S2 from the left thread's final state.
    reexecute_right(left);
    return;
  }

  const GuessId guess = left.join_guess;
  const std::uint32_t left_index = left.index;
  // A helper for the fault paths: abort processing may roll the left thread
  // itself back (time fault: it acquired its own guess through a tainted
  // return, Figures 4/5), in which case it resumes S1 and will re-reach the
  // join; only if it is still terminated at the join do we re-execute now.
  auto abort_and_maybe_reexecute = [this, left_index, guess]() {
    abort_own_guess(guess);
    auto it = threads_.find(left_index);
    if (it == threads_.end()) return;
    ThreadCtx& l = it->second;
    if (l.has_pending_join && l.join_guess_aborted && l.machine.done() &&
        threads_.count(l.join_right_index) == 0) {
      reexecute_right(l);
    }
  };

  if (value_fault) {
    record_abort(guess, obs::AbortReason::kValueFault, "value-fault");
    abort_and_maybe_reexecute();
    return;
  }

  // Time-fault self check: if our own guess is in the guard set at the
  // termination point, S1 causally follows S2 (Figure 4).
  if (left.guard.covers(guess)) {
    record_abort(guess, obs::AbortReason::kTimeFault, "time-fault");
    abort_and_maybe_reexecute();
    return;
  }

  if (left.guard.empty()) {
    finalize_join_commit(left);
    return;
  }

  // In doubt: publish "guard precedes guess" and wait (section 3.3).
  ++stats_.precedence_sent;
  GuardSet published = left.guard;
  on_precedence_msg(guess, published);  // local CDG update + cycle check
  auto it = threads_.find(left_index);
  if (it == threads_.end()) return;
  ThreadCtx& l = it->second;
  if (l.join_guess_aborted) {
    // The local precedence processing closed a cycle through our guess.
    if (l.machine.done() && threads_.count(l.join_right_index) == 0) {
      reexecute_right(l);
    }
    return;
  }
  distribute_control(ControlKind::kPrecedence, guess, published);
  set_phase(l, ThreadCtx::Phase::kJoinWait);
  fork_timers_[guess] = host_.scheduler().after(
      config_.join_wait_timeout, [this, guess]() {
        fork_timers_.erase(guess);
        on_join_wait_timeout(guess);
      });
}

void SpeculativeProcess::finalize_join_commit(ThreadCtx& left) {
  const GuessId guess = left.join_guess;
  OCSP_CHECK(guess.valid());
  cancel_fork_timer(guess);
  {
    obs::Event ce = make_event(obs::EventKind::kCommit);
    ce.thread = left.index;
    ce.guess = guess_ref(guess);
    record(ce, left.join_site);
  }
  if (left.join_forgiven != 0) {
    // The verifier found mismatched guesses but every one was forgiven by
    // its VerifyMode: this commit exists only because of the relaxation.
    obs::Event ce = make_event(obs::EventKind::kCommuteCommit);
    ce.thread = left.index;
    ce.guess = guess_ref(guess);
    ce.a = left.join_forgiven;
    record(ce, left.join_site);
    left.join_forgiven = 0;
  }
  site_aborts_[left.join_site] = 0;
  governor_outcome(left.join_site, /*aborted=*/false);
  terminate_thread(left);
  left.has_pending_join = false;
  commit_guess_local(guess);
  distribute_control(ControlKind::kCommit, guess, {});
}

void SpeculativeProcess::reexecute_right(ThreadCtx& left) {
  const std::uint32_t right_index = left.join_right_index;
  OCSP_CHECK_MSG(threads_.count(right_index) == 0,
                 "re-execution while the right thread is still alive");

  ThreadCtx r;
  r.index = right_index;
  r.interval = 0;
  r.machine = left.join_right_initial;
  // Adopt the left thread's full final state: sequential semantics say S2
  // sees every write S1 made, not only the passed variables.
  r.machine.env() = left.machine.env();
  apply_state_strategy(r.machine);
  // Keep only the still-relevant dependencies of the left thread.
  for (const auto& g : left.guard) {
    if (history_.status(g) == GuessStatus::kUnknown) r.guard.add(g);
  }
  inherit_rollbacks(left, r.guard, right_index);
  r.has_own_guess = false;
  r.created_at = current_index(left);

  terminate_thread(left);
  left.has_pending_join = false;

  ThreadCtx& right = insert_thread(std::move(r));
  max_thread_ = std::max(max_thread_, right_index);
  take_checkpoint(right);
  ++right.interval;  // keep the creation checkpoint key unique
  schedule_step(right_index);
  flush_logs();
}

void SpeculativeProcess::on_fork_timeout(GuessId guess) {
  if (crashed_) return;  // restart() aborts uncommitted guesses itself
  if (history_.status(guess) != GuessStatus::kUnknown) return;
  // The left thread exceeded its budget for S1 (divergence suspicion,
  // section 3.3): the guess aborts, the left thread keeps running, and S2
  // re-executes pessimistically once S1 eventually completes.
  record_abort(guess, obs::AbortReason::kTimeout, "timeout");
  abort_own_guess(guess);
  after_guard_change();
}

void SpeculativeProcess::on_join_wait_timeout(GuessId guess) {
  if (crashed_) return;  // restart() aborts uncommitted guesses itself
  if (history_.status(guess) != GuessStatus::kUnknown) return;
  record_abort(guess, obs::AbortReason::kTimeout, "join-wait-timeout");
  abort_own_guess(guess);
  after_guard_change();
}

}  // namespace ocsp::spec
