// Core of SpeculativeProcess: construction, cooperative scheduling, effect
// handling, message sending, logs, and completion tracking.  Fork/join live
// in process_fork.cc, arrival/delivery in process_arrival.cc, and control
// message processing plus rollback in process_control.cc.
#include "speculation/process.h"

#include <algorithm>

#include "speculation/process_table.h"
#include "util/check.h"
#include "util/logging.h"

namespace ocsp::spec {

SpeculativeProcess::SpeculativeProcess(Host& host, const ProcessTable& table,
                                       ProcessId id, std::string name,
                                       csp::StmtPtr program,
                                       csp::Env initial_env, SpecConfig config,
                                       util::Rng rng)
    : host_(host),
      table_(table),
      id_(id),
      name_(std::move(name)),
      config_(config),
      rng_(rng) {
  ThreadCtx t;
  t.index = 0;
  t.machine = csp::Machine(std::move(program), std::move(initial_env),
                           rng_.split());
  t.created_at = StateIndex{0, 0, 0};
  threads_.emplace(0u, std::move(t));
  live_threads_ = 1;
}

void SpeculativeProcess::start() {
  ThreadCtx& t0 = threads_.at(0);
  note_settled(t0);
  take_checkpoint(t0);
  // Move past the checkpoint's interval so no acceptance rollback point can
  // collide with the creation checkpoint key (the two restore paths differ:
  // a full-checkpoint key restores verbatim, an acceptance key may rebuild
  // by replay).
  ++t0.interval;
  schedule_step(0);
}

namespace {

/// The SpecStats counter one event of this kind adds to (aborts by their
/// reason), or null.
std::uint64_t SpecStats::*counted_field(const obs::Event& ev) {
  using K = obs::EventKind;
  using R = obs::AbortReason;
  switch (ev.kind) {
    case K::kFork: return &SpecStats::forks;
    case K::kSafeForkElided: return &SpecStats::safe_forks;
    case K::kJoin: return &SpecStats::joins;
    case K::kCommit: return &SpecStats::commits;
    case K::kCommuteCommit: return &SpecStats::commute_commits;
    case K::kRollback: return &SpecStats::rollbacks;
    case K::kCheckpointTaken: return &SpecStats::checkpoints;
    case K::kExternalBuffered: return &SpecStats::externals_buffered;
    case K::kExternalReleased: return &SpecStats::externals_released;
    case K::kExternalDiscarded: return &SpecStats::externals_discarded;
    case K::kCrash: return &SpecStats::crashes;
    case K::kRecovery: return &SpecStats::crash_recoveries;
    case K::kGovernorDemote: return &SpecStats::governor_demotions;
    case K::kGovernorPromote: return &SpecStats::governor_promotions;
    case K::kAbort:
      switch (ev.reason) {
        case R::kValueFault: return &SpecStats::aborts_value_fault;
        case R::kTimeFault: return &SpecStats::aborts_time_fault;
        case R::kTimeout: return &SpecStats::aborts_timeout;
        case R::kCascade: return &SpecStats::aborts_cascade;
        case R::kCrash: return &SpecStats::aborts_crash;
        case R::kNone: return nullptr;
      }
      return nullptr;
    default: return nullptr;
  }
}

/// The guess metric one event of this kind adds to, or null.
const char* counted_metric(obs::EventKind k) {
  switch (k) {
    case obs::EventKind::kGuessMade: return "guesses_made";
    case obs::EventKind::kGuessVerified: return "guesses_verified";
    case obs::EventKind::kGuessFailed: return "guesses_failed";
    default: return nullptr;
  }
}

}  // namespace

void SpeculativeProcess::record(const obs::Event& ev,
                                std::string_view detail) {
  if (std::uint64_t SpecStats::*field = counted_field(ev)) ++(stats_.*field);
  if (ev.kind == obs::EventKind::kCommuteCommit) {
    stats_.commute_forgiven_vars += ev.a;
  }
  if (const char* metric = counted_metric(ev.kind)) {
    ++live_metrics_.counter(metric);
  }
  host_.recorder().record(ev, detail);
}

obs::GuessRef SpeculativeProcess::guess_ref(const GuessId& g) {
  return obs::GuessRef{g.owner, g.incarnation, g.index};
}

obs::ControlType SpeculativeProcess::obs_control(ControlKind kind) {
  switch (kind) {
    case ControlKind::kCommit:
      return obs::ControlType::kCommit;
    case ControlKind::kAbort:
      return obs::ControlType::kAbort;
    case ControlKind::kPrecedence:
      return obs::ControlType::kPrecedence;
  }
  return obs::ControlType::kNone;
}

obs::Event SpeculativeProcess::make_event(obs::EventKind kind) const {
  obs::Event ev;
  ev.kind = kind;
  ev.when = host_.scheduler().now();
  ev.process = id_;
  ev.incarnation = incarnation_;
  return ev;
}

void SpeculativeProcess::record_abort(const GuessId& g,
                                      obs::AbortReason reason,
                                      const char* detail,
                                      const GuessId& cause) {
  obs::Event ev = make_event(obs::EventKind::kAbort);
  ev.guess = guess_ref(g);
  ev.thread = g.index;
  ev.reason = reason;
  if (cause.valid() && !(cause == g)) ev.guess_from = guess_ref(cause);
  record(ev, detail);
  // Soundness oracle: a SAFE-classified site must never raise a value or
  // time fault (timeouts and cascades are liveness/collateral, not
  // interference at the site itself).
  if ((reason == obs::AbortReason::kValueFault ||
       reason == obs::AbortReason::kTimeFault) &&
      safe_claimed_.count(g) > 0) {
    ++stats_.safe_oracle_violations;
#ifndef NDEBUG
    OCSP_CHECK_MSG(false, "SAFE-classified fork site raised a fault");
#endif
  }
}

void SpeculativeProcess::record_work_discarded(const ThreadCtx& t,
                                               sim::Time discarded_ns,
                                               const GuessId& cause) {
  if (discarded_ns <= 0) return;
  obs::Event ev = make_event(obs::EventKind::kWorkDiscarded);
  ev.thread = t.index;
  ev.interval = t.interval;
  ev.a = static_cast<std::uint64_t>(discarded_ns);
  std::string_view site;
  if (t.has_own_guess) {
    ev.guess = guess_ref(t.own_guess);
    site = t.own_site;
  }
  if (cause.valid()) ev.guess_from = guess_ref(cause);
  record(ev, site);
}

obs::MetricsRegistry SpeculativeProcess::metrics_view() const {
  obs::MetricsRegistry m = live_metrics_;
  stats_.export_to(m);
  obs::update_sharing_ratio_gauge(m);
  for (const auto& [key, acc] : predictors_.accuracy()) {
    const std::string base =
        "predictor/" + key.first + "." + key.second + "/";
    m.counter(base + "hits") += acc.hits;
    m.counter(base + "misses") += acc.misses;
  }
  const std::uint64_t verified = m.counter_or("guesses_verified");
  const std::uint64_t failed = m.counter_or("guesses_failed");
  if (verified + failed > 0) {
    m.gauge("guess_accuracy") = static_cast<double>(verified) /
                                static_cast<double>(verified + failed);
  }
  return m;
}

ProcessId SpeculativeProcess::resolve(const std::string& target) const {
  return table_.find(target);
}

StateIndex SpeculativeProcess::current_index(const ThreadCtx& t) const {
  return StateIndex{incarnation_, t.index, t.interval};
}

std::vector<std::pair<StateIndex, csp::Env>>
SpeculativeProcess::checkpoint_envs() const {
  std::vector<std::pair<StateIndex, csp::Env>> out;
  for (const auto& [thread, log] : logs_) {
    for (const auto& [key, snapshot] : log.checkpoints) {
      out.emplace_back(key, snapshot.machine.env());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::size_t SpeculativeProcess::checkpoint_count() const {
  std::size_t n = 0;
  for (const auto& [thread, log] : logs_) n += log.checkpoints.size();
  return n;
}

std::size_t SpeculativeProcess::input_log_size() const {
  std::size_t n = 0;
  for (const auto& [thread, log] : logs_) n += log.inputs.size();
  return n;
}

std::size_t SpeculativeProcess::live_thread_count() const {
  return live_threads_;
}

const ThreadCtx* SpeculativeProcess::thread(std::uint32_t index) const {
  auto it = threads_.find(index);
  return it == threads_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

void SpeculativeProcess::schedule_step(std::uint32_t thread_index) {
  if (!step_scheduled_.insert(thread_index)) return;
  host_.scheduler().after(0, [this, thread_index]() {
    step_scheduled_.erase(thread_index);
    run_thread(thread_index);
  });
}

void SpeculativeProcess::run_thread(std::uint32_t thread_index) {
  if (crashed_) return;  // down; restart() reschedules every runnable thread
  auto it = threads_.find(thread_index);
  if (it == threads_.end()) return;  // killed before the step fired
  if (it->second.phase != ThreadCtx::Phase::kRunning) return;
  OCSP_CHECK_MSG(!stepping_, "re-entrant run_thread");
  stepping_ = true;
  bool keep_going = true;
  while (keep_going) {
    // Re-look-up: effects (fork, join, rollback) mutate threads_.
    auto cur = threads_.find(thread_index);
    if (cur == threads_.end() ||
        cur->second.phase != ThreadCtx::Phase::kRunning) {
      break;
    }
    csp::Effect effect = cur->second.machine.step();
    keep_going = handle_effect(cur->second, std::move(effect));
  }
  stepping_ = false;
}

bool SpeculativeProcess::handle_effect(ThreadCtx& t, csp::Effect effect) {
  using K = csp::Effect::Kind;
  switch (effect.kind) {
    case K::kCall: {
      const std::int64_t reqid = next_reqid_++;
      t.outstanding_reqid = reqid;
      set_phase(t, ThreadCtx::Phase::kAwaitReply);
      outstanding_calls_[reqid] = t.index;
      trace::ObservableEvent ev;
      ev.kind = trace::ObservableEvent::Kind::kSend;
      ev.process = id_;
      ev.peer = resolve(effect.target);
      ev.op = effect.op;
      ev.data = csp::Value(effect.args);
      record_event(t, std::move(ev));
      send_data(t, DataKind::kCall, effect.target, std::move(effect.op),
                std::move(effect.args), csp::Value(), reqid);
      return false;
    }
    case K::kSend: {
      trace::ObservableEvent ev;
      ev.kind = trace::ObservableEvent::Kind::kSend;
      ev.process = id_;
      ev.peer = resolve(effect.target);
      ev.op = effect.op;
      ev.data = csp::Value(effect.args);
      record_event(t, std::move(ev));
      send_data(t, DataKind::kSend, effect.target, std::move(effect.op),
                std::move(effect.args), csp::Value(), -1);
      return true;
    }
    case K::kReceive: {
      set_phase(t, ThreadCtx::Phase::kAwaitMessage);
      process_arrivals();
      return false;
    }
    case K::kReply: {
      send_data(t, DataKind::kReturn, "",
                /*op=*/"", {}, std::move(effect.value), effect.reply_reqid);
      return true;
    }
    case K::kPrint: {
      trace::ObservableEvent ev;
      ev.kind = trace::ObservableEvent::Kind::kExternalOutput;
      ev.process = id_;
      ev.data = effect.value;
      if (!flush_ready(t)) {
        const std::size_t pos = t.event_log.size();
        external_buffered_at_[{t.index, pos}] = host_.scheduler().now();
        obs::Event oe = make_event(obs::EventKind::kExternalBuffered);
        oe.thread = t.index;
        oe.interval = t.interval;
        oe.a = pos;
        record(oe, effect.value.to_string());
      }
      record_event(t, std::move(ev));
      return true;
    }
    case K::kCompute: {
      set_phase(t, ThreadCtx::Phase::kAwaitCompute);
      const std::uint32_t idx = t.index;
      const sim::Time duration = effect.duration;
      host_.on_compute(duration);
      compute_timers_[idx] =
          host_.scheduler().after(duration, [this, idx, duration]() {
            auto it = threads_.find(idx);
            if (it == threads_.end()) return;
            ThreadCtx& th = it->second;
            if (th.phase != ThreadCtx::Phase::kAwaitCompute) return;
            th.compute_ns += duration;
            obs::Event ev = make_event(obs::EventKind::kComputeDone);
            ev.thread = idx;
            ev.interval = th.interval;
            ev.a = static_cast<std::uint64_t>(duration);
            std::string_view site;
            if (th.has_own_guess) {
              ev.guess = guess_ref(th.own_guess);
              site = th.own_site;
            }
            record(ev, site);
            th.machine.resume();
            set_phase(th, ThreadCtx::Phase::kRunning);
            schedule_step(idx);
          });
      return false;
    }
    case K::kFork: {
      do_fork(t, *effect.fork);
      return true;
    }
    case K::kDone: {
      if (t.has_pending_join) {
        do_join(t);
      } else {
        set_phase(t, ThreadCtx::Phase::kDoneWaitGuard);
        obs::Event ev = make_event(obs::EventKind::kThreadBlocked);
        ev.thread = t.index;
        ev.interval = t.interval;
        ev.a = t.guard.size();
        record(ev);
        after_guard_change();
      }
      return false;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Sending (section 4.2.2: tag every outgoing message with the guard set)
// ---------------------------------------------------------------------------

void SpeculativeProcess::send_data(ThreadCtx& t, DataKind kind,
                                   const std::string& target_name,
                                   std::string op, csp::ValueList args,
                                   csp::Value result, std::int64_t reqid) {
  ++t.sent_count;
  if (replaying_) {
    // Deterministic replay re-produces sends that already went out on the
    // first execution; suppress them (section 4.1.3's log-based rollback).
    return;
  }
  auto msg = std::make_shared<DataMessage>();
  msg->data_kind = kind;
  msg->op = std::move(op);
  msg->args = std::move(args);
  msg->result = std::move(result);
  msg->reqid = reqid;
  msg->guard = t.guard;

  ProcessId dst;
  if (kind == DataKind::kReturn) {
    dst = static_cast<ProcessId>(t.machine.env().get("__caller").as_int());
  } else {
    dst = resolve(target_name);
  }

  // Record recipients per guess for the targeted control plane (4.2.5).
  if (config_.control == ControlPlane::kTargeted) {
    for (const auto& g : t.guard) {
      auto& v = spread_[g];
      if (std::find(v.begin(), v.end(), dst) == v.end()) v.push_back(dst);
    }
  }

  // Data plane goes through the reliable transport (a plain network send
  // when it is disabled); the control plane keeps its own liveness story.
  host_.transport().send(id_, dst, std::move(msg));
}

// ---------------------------------------------------------------------------
// Logs, externals, completion
// ---------------------------------------------------------------------------

void SpeculativeProcess::record_event(ThreadCtx& t,
                                      trace::ObservableEvent event) {
  t.event_log.push_back(std::move(event));
  // Committed immediately when program order allows it.  During replay the
  // flush point is restored from the target's replay record afterwards.
  if (!replaying_ && flush_ready(t)) flush_events(t);
}

bool SpeculativeProcess::flush_ready(const ThreadCtx& t) {
  if (!t.guard.empty()) return false;
  // Settled threads are terminated and flushed; an unsettled one below t
  // passes only if all it lacks is an empty guard.
  for (std::uint32_t idx : unsettled_) {
    if (idx >= t.index) break;
    ++bookkeeping_visits_;
    const ThreadCtx& other = threads_.at(idx);
    if (other.phase != ThreadCtx::Phase::kTerminated ||
        other.flushed_count < other.event_log.size()) {
      return false;
    }
  }
  return true;
}

void SpeculativeProcess::flush_events(ThreadCtx& t) {
  while (t.flushed_count < t.event_log.size()) {
    const trace::ObservableEvent& e = t.event_log[t.flushed_count];
    committed_log_.push_back(e);
    if (e.kind == trace::ObservableEvent::Kind::kExternalOutput) {
      // Flushing commits the event; external outputs are released to the
      // outside world at this moment (section 3.1's buffering rule).
      obs::Event oe = make_event(obs::EventKind::kExternalReleased);
      oe.thread = t.index;
      oe.a = t.flushed_count;
      auto buffered = external_buffered_at_.find({t.index, t.flushed_count});
      if (buffered != external_buffered_at_.end()) {
        const sim::Time dwell = host_.scheduler().now() - buffered->second;
        oe.b = static_cast<std::uint64_t>(dwell);
        obs::external_dwell_hist(live_metrics_)
            .add(static_cast<double>(dwell) / 1000.0);
        external_buffered_at_.erase(buffered);
      }
      record(oe, e.data.to_string());
    }
    ++t.flushed_count;
  }
  if (t.phase == ThreadCtx::Phase::kTerminated) note_settled(t);
}

void SpeculativeProcess::flush_logs() {
  // Ascending thread order preserves the program order of the final trace:
  // thread n's events all precede thread n+1's.  Stop at the first thread
  // that is not fully done — later threads' events must stay buffered even
  // when their own guard is empty (a SAFE fork's right thread runs
  // unguarded while the left thread is still producing events).  Settled
  // threads have nothing to flush and never stop the walk.
  for (auto it = unsettled_.begin(); it != unsettled_.end();) {
    ++bookkeeping_visits_;
    ThreadCtx& t = threads_.at(*it);
    if (!t.guard.empty()) break;
    flush_events(t);  // may settle t, erasing it from unsettled_
    if (t.phase != ThreadCtx::Phase::kTerminated) break;
    it = unsettled_.upper_bound(t.index);
  }
}

void SpeculativeProcess::check_completion() {
  if (completed_) return;
  for (auto it = done_waiting_.begin(); it != done_waiting_.end();) {
    ++bookkeeping_visits_;
    ThreadCtx& t = threads_.at(*it);
    if (!t.guard.empty()) {
      ++it;
      continue;
    }
    terminate_thread(t);  // leaves done_waiting_
    it = done_waiting_.upper_bound(t.index);
    program_finished_ = true;
    obs::Event ev = make_event(obs::EventKind::kThreadResolved);
    ev.thread = t.index;
    ev.interval = t.interval;
    record(ev);
  }
  if (!program_finished_) return;
  // The program body finished; completion needs every thread terminated.
  // Under speculation that is already true (join guesses committed, which
  // is what emptied the final thread's guard), but a SAFE fork's left
  // thread may still be running S1 and joins later.
  if (live_threads_ != 0) return;
  completed_ = true;
  completion_time_ = host_.scheduler().now();
  record(make_event(obs::EventKind::kProcessCompleted));
}

void SpeculativeProcess::apply_state_strategy(csp::Machine& copy) {
  const std::uint64_t payload = copy.state_bytes();
  if (config_.state == StateStrategy::kDeepCopy) {
    copy.deep_copy_state();
    stats_.checkpoint_bytes_copied += payload;
  } else {
    // The copy already happened (a shared handle); only account it.
    stats_.checkpoint_bytes_copied += sizeof(csp::Env);
    stats_.checkpoint_bytes_shared += payload;
  }
}

std::uint64_t SpeculativeProcess::restore_cost_bytes(
    const csp::Machine& m) const {
  return config_.state == StateStrategy::kDeepCopy
             ? m.state_bytes()
             : sizeof(csp::Env);
}

void SpeculativeProcess::take_checkpoint(const ThreadCtx& t) {
  ThreadCtx snapshot = t;
  const std::uint64_t payload = snapshot.machine.state_bytes();
  apply_state_strategy(snapshot.machine);
  {
    obs::Event ev = make_event(obs::EventKind::kCheckpointTaken);
    ev.thread = t.index;
    ev.interval = t.interval;
    const bool deep = config_.state == StateStrategy::kDeepCopy;
    ev.a = deep ? payload : sizeof(csp::Env);
    ev.b = deep ? 0 : payload;
    record(ev);
  }
  const StateIndex at = current_index(t);
  log_for(at).checkpoints.insert_or_assign(at, std::move(snapshot));
  checkpointed_.push_back(t.index);
}

SpeculativeProcess::RollbackLog& SpeculativeProcess::log_for(
    const StateIndex& at) {
  RollbackLog& log = logs_[at.thread];
  auto ascends = [&](const auto& keyed) {
    return keyed.empty() || !(at < keyed.rbegin()->first);
  };
  OCSP_CHECK_MSG(ascends(log.checkpoints) && ascends(log.replay_meta) &&
                     ascends(log.inputs),
                 "a thread's rollback log keys went back");
  return log;
}

// ---------------------------------------------------------------------------
// Thread table and rollback-point index
// ---------------------------------------------------------------------------

ThreadCtx& SpeculativeProcess::insert_thread(ThreadCtx t) {
  OCSP_CHECK_MSG(threads_.count(t.index) == 0,
                 "thread index reuse without kill");
  const std::uint32_t index = t.index;
  ThreadCtx& th = threads_.emplace(index, std::move(t)).first->second;
  if (auto* set = phase_set(th.phase)) set->insert(index);
  if (th.phase != ThreadCtx::Phase::kTerminated) ++live_threads_;
  note_settled(th);
  return th;
}

std::map<std::uint32_t, ThreadCtx>::node_type SpeculativeProcess::erase_thread(
    std::map<std::uint32_t, ThreadCtx>::iterator it) {
  const ThreadCtx& t = it->second;
  if (auto* set = phase_set(t.phase)) set->erase(t.index);
  if (t.phase != ThreadCtx::Phase::kTerminated) --live_threads_;
  unsettled_.erase(t.index);
  dirty_threads_.insert(t.index);  // gone: its state may be unreachable
  return threads_.extract(it);
}

void SpeculativeProcess::terminate_thread(ThreadCtx& t) {
  set_phase(t, ThreadCtx::Phase::kTerminated);
  dirty_threads_.insert(t.index);
}

std::set<std::uint32_t>* SpeculativeProcess::phase_set(
    ThreadCtx::Phase phase) {
  switch (phase) {
    case ThreadCtx::Phase::kJoinWait: return &join_waiting_;
    case ThreadCtx::Phase::kAwaitMessage: return &receiving_;
    case ThreadCtx::Phase::kDoneWaitGuard: return &done_waiting_;
    default: return nullptr;
  }
}

void SpeculativeProcess::set_phase(ThreadCtx& t, ThreadCtx::Phase phase) {
  if (t.phase == phase) return;
  if (auto* set = phase_set(t.phase)) set->erase(t.index);
  if (auto* set = phase_set(phase)) set->insert(t.index);
  if (phase == ThreadCtx::Phase::kJoinWait) join_candidates_.insert(t.index);
  t.phase = phase;
  if (phase == ThreadCtx::Phase::kTerminated) {
    --live_threads_;
    note_settled(t);
  }
}

void SpeculativeProcess::note_settled(const ThreadCtx& t) {
  const bool settled = t.phase == ThreadCtx::Phase::kTerminated &&
                       t.guard.empty() &&
                       t.flushed_count == t.event_log.size();
  if (settled) {
    unsettled_.erase(t.index);
  } else {
    unsettled_.insert(t.index);
  }
}

void SpeculativeProcess::retire_settled_threads() {
  // A settled thread is never killed or restored: its events are
  // committed, and so is every guess it depended on.  Below the lowest
  // unsettled thread every thread is settled, so no later rollback point
  // precedes its creation.  Once no rollback entry targets it, erasing it
  // changes nothing any check reads.
  for (auto it = threads_.begin();
       it != threads_.end() &&
       (unsettled_.empty() || it->first < *unsettled_.begin());) {
    ++bookkeeping_visits_;
    if (rollback_index_.targets(it->first)) {
      ++it;
      continue;
    }
    retired_end_ = std::max(retired_end_, it->first + 1);
    retired_created_max_ = std::max(retired_created_max_,
                                    it->second.created_at);
    compute_timers_.erase(it->first);
    drop_rollbacks(it->first);
    erase_thread(it++);
  }
}

void SpeculativeProcess::drop_rollbacks(
    std::uint32_t thread, const std::optional<StateIndex>& restore) {
  // A thread no entry targets any more may hold state the GC can prune.
  bookkeeping_visits_ +=
      restore ? rollback_index_.drop_from(thread, *restore, dirty_threads_)
              : rollback_index_.drop_all(thread, dirty_threads_);
}

}  // namespace ocsp::spec
