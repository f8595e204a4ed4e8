// SpeculativeProcess: one CSP process under the optimistic protocol.
//
// Implements section 4.2 of the paper end-to-end:
//   * Fork (4.2.1): split into left (S1) and right (S2 + continuation)
//     threads, guess the passed values, guard the right thread.
//   * Send (4.2.2): tag outgoing data messages with the commit guard set.
//   * Message arrival (4.2.3): orphan rejection, future-thread detection,
//     delivery-choice optimization (fewest new dependencies), checkpointing
//     before each new dependency acquisition.
//   * Receive (4.2.4): deliver to waiting threads.
//   * Join (4.2.5): verifier, COMMIT / ABORT / PRECEDENCE emission.
//   * Commit/Abort/Precedence processing (4.2.6-4.2.8) including CDG cycle
//     detection (time faults) and multi-thread rollback.
//   * Liveness (3.3): left-thread timeouts, join-wait timeouts, and the
//     retry limit L with pessimistic fallback.
//
// A process may host several logical threads (the right-branching fork
// structure); they are cooperatively scheduled on the discrete-event kernel
// and never run concurrently with each other, mirroring the sequential
// process semantics of CSP.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "csp/machine.h"
#include "net/envelope.h"
#include "net/network.h"
#include "net/reliable.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "sim/scheduler.h"
#include "speculation/cdg.h"
#include "speculation/config.h"
#include "speculation/guard_set.h"
#include "speculation/guess.h"
#include "speculation/history.h"
#include "speculation/host.h"
#include "speculation/messages.h"
#include "speculation/predictor.h"
#include "speculation/rollback_index.h"
#include "speculation/stats.h"
#include "trace/events.h"
#include "util/flat_set.h"
#include "util/rng.h"

namespace ocsp::spec {

class ProcessTable;

/// A thread's append-only observable-event log.  Copies share storage, so
/// a checkpoint copies a handle instead of every event still in doubt:
/// each copy sees its own length of the shared buffer, and a copy that
/// another one has outgrown (a thread restored by a rollback) takes its
/// own buffer when it next appends.
class EventLog {
 public:
  std::size_t size() const { return size_; }
  const trace::ObservableEvent& operator[](std::size_t i) const {
    return (*events_)[i];
  }
  void push_back(trace::ObservableEvent event) {
    if (!events_) {
      events_ = std::make_shared<std::vector<trace::ObservableEvent>>();
    } else if (events_->size() != size_) {
      events_ = std::make_shared<std::vector<trace::ObservableEvent>>(
          events_->begin(),
          events_->begin() + static_cast<std::ptrdiff_t>(size_));
    }
    events_->push_back(std::move(event));
    ++size_;
  }

 private:
  std::shared_ptr<std::vector<trace::ObservableEvent>> events_;
  std::size_t size_ = 0;
};

/// One logical thread of a process.  Copyable: a checkpoint is a copy of
/// the whole ThreadCtx (machine, guard, event log).  The thread's rollback
/// entries and the commit dependency graph belong to the process (the
/// rollback-point index and PRECEDENCE edges relate guesses, not thread
/// states), so forks and checkpoints copy neither.
struct ThreadCtx {
  enum class Phase {
    kRunning,       ///< machine is ready; a step is (or will be) scheduled
    kAwaitReply,    ///< blocked in a two-way call
    kAwaitMessage,  ///< blocked in a receive
    kAwaitCompute,  ///< burning virtual time
    kJoinWait,      ///< left thread done; waiting for guard to resolve
    kDoneWaitGuard, ///< program finished but guard still non-empty
    kTerminated,    ///< finished for good (committed or superseded)
  };

  std::uint32_t index = 0;
  std::uint32_t interval = 0;
  Phase phase = Phase::kRunning;
  csp::Machine machine;

  GuardSet guard;

  /// Guess guarding this thread's start (right threads only).
  bool has_own_guess = false;
  GuessId own_guess;
  std::string own_site;

  /// Join bookkeeping, set on the thread that executed the fork (the left
  /// thread keeps running S1 and joins when it completes).
  bool has_pending_join = false;
  GuessId join_guess;
  std::uint32_t join_right_index = 0;
  std::string join_site;
  std::vector<std::string> join_passed;
  std::map<std::string, csp::Value> join_guessed;
  /// Per-variable verification relaxation of the forked site
  /// (ForkStmt::verify), honored by the join when
  /// SpecConfig::commute_verification is on.
  std::map<std::string, csp::VerifyMode> join_verify;
  /// Mismatched-but-forgiven variables found by this join's verification;
  /// counted as a commute commit only if the guess actually commits.
  std::uint64_t join_forgiven = 0;
  csp::Machine join_right_initial;  ///< right thread's start machine, for
                                    ///< re-execution after an abort
  bool join_guess_aborted = false;
  /// The pending join belongs to a ForkMode::kSafe fork running the
  /// guard-elided fast path: no guess, nothing to verify, the right thread
  /// is already running unguarded.
  bool join_safe = false;

  /// Outstanding two-way call (phase == kAwaitReply).
  std::int64_t outstanding_reqid = -1;

  /// Logical observable-event log of this thread; events with position
  /// < flushed_count are already in the process's committed log (and, for
  /// external outputs, physically released).
  EventLog event_log;
  std::size_t flushed_count = 0;

  /// Outgoing data messages this thread has produced (calls, sends,
  /// replies).  Used by the replay rollback strategy to suppress the
  /// re-sends a deterministic replay would otherwise duplicate.
  std::uint64_t sent_count = 0;

  /// Dependency acquisitions since the last full checkpoint (replay
  /// strategy's periodic-checkpoint counter).
  std::uint32_t accepts_since_checkpoint = 0;

  /// Virtual nanoseconds of Compute this thread has burned.  Checkpointed
  /// with the thread (a restore rolls it back), replayed replays re-add the
  /// replayed durations — so kill-time `compute_ns` minus restored
  /// `compute_ns` is exactly the compute an abort threw away, which the
  /// profiler's time accounting and per-site scorecards consume via
  /// kWorkDiscarded events.
  sim::Time compute_ns = 0;

  /// Where (in the parent) this thread was created; used to decide which
  /// threads a rollback kills.
  StateIndex created_at;
};

class SpeculativeProcess {
 public:
  /// A process runs against `host` (event kernel, wire, recorder) and
  /// resolves peer names through `table`.
  SpeculativeProcess(Host& host, const ProcessTable& table, ProcessId id,
                     std::string name, csp::StmtPtr program,
                     csp::Env initial_env, SpecConfig config, util::Rng rng);

  SpeculativeProcess(const SpeculativeProcess&) = delete;
  SpeculativeProcess& operator=(const SpeculativeProcess&) = delete;

  /// Schedule the first step of thread 0.
  void start();

  /// Network delivery handler.
  void on_message(const net::Envelope& env);

  ProcessId id() const { return id_; }
  const std::string& name() const { return name_; }

  /// True once the program ran to completion with an empty guard set.
  bool completed() const { return completed_; }
  sim::Time completion_time() const { return completion_time_; }

  const SpecStats& stats() const { return stats_; }
  const HistoryTable& history() const { return history_; }
  const PredictorState& predictors() const { return predictors_; }

  /// Snapshot of this process's metrics: the SpecStats counters, the live
  /// histograms (speculation depth, rollback distance, cascade depth,
  /// control fan-out, external dwell), guess counters, per-site predictor
  /// accuracy, and the per-process guess_accuracy gauge.
  obs::MetricsRegistry metrics_view() const;

  /// Committed observable events in logical (program) order.
  const std::vector<trace::ObservableEvent>& committed_events() const {
    return committed_log_;
  }

  /// Introspection for tests.
  std::size_t live_thread_count() const;
  /// Threads in the table: the live ones plus terminated ones not yet
  /// retired.
  std::size_t tabled_thread_count() const { return threads_.size(); }
  const ThreadCtx* thread(std::uint32_t index) const;
  std::uint32_t current_incarnation() const { return incarnation_; }
  bool crashed() const { return crashed_; }
  std::size_t checkpoint_count() const;
  std::size_t input_log_size() const;
  /// Env of every retained checkpoint, keyed by state index (deterministic
  /// order; Env copies are O(1)).  Differential tests compare these across
  /// state strategies.
  std::vector<std::pair<StateIndex, csp::Env>> checkpoint_envs() const;

  // ---- unresolved dependencies ------------------------------------------

  /// The unresolved rollback entries of the tabled threads: whether any
  /// dependency is still in doubt, the earliest state a rollback of one can
  /// restore (the GC low-water mark), and the threads such rollbacks target.
  struct RollbackSummary {
    bool any_unresolved = false;
    StateIndex low{~0u, ~0u, ~0u};
    std::vector<std::uint32_t> targets;  ///< ascending, distinct

    friend bool operator==(const RollbackSummary&,
                           const RollbackSummary&) = default;
    std::string to_string() const;
  };

  /// Read off the rollback-point index, unfiltered (what GC uses).
  RollbackSummary rollback_summary() const;
  /// Recomputed by walking every tabled thread's entries and skipping
  /// resolved guesses: the reference the index is tested against.
  RollbackSummary rollback_summary_by_walk() const;
  /// The rollback-point index itself: every thread's entries.
  const RollbackIndex& rollback_index() const { return rollback_index_; }

  /// Per-guess bookkeeping sizes (bounded-state tests): (guess, control
  /// kind) forward marks, commit dependency graph nodes, scheduled-step
  /// flags, and SAFE-oracle claims.
  std::size_t control_forwarded_count() const {
    return control_forwarded_.size();
  }
  std::size_t cdg_node_count() const { return cdg_.node_count(); }
  std::size_t step_flag_count() const { return step_scheduled_.size(); }
  std::size_t safe_claim_count() const { return safe_claimed_.size(); }

  /// Elements the speculation bookkeeping has visited so far: thread-table
  /// entries its loops walk, rollback entries indexed, dropped or cut, the
  /// index entry the GC reads, and rollback-log records (checkpoints, replay
  /// records, logged inputs) the GC sweep, a discard or a replay examines
  /// (growth tests divide it by kernel events).
  std::uint64_t bookkeeping_visits() const { return bookkeeping_visits_; }

 private:
  // The table wires incarnation tags into the transport and orchestrates
  // crash/restart.
  friend class ProcessTable;

  // ---- scheduling -----------------------------------------------------
  void schedule_step(std::uint32_t thread_index);
  void run_thread(std::uint32_t thread_index);
  bool handle_effect(ThreadCtx& t, csp::Effect effect);

  // ---- fork / join (4.2.1, 4.2.5) --------------------------------------
  void do_fork(ThreadCtx& t, const csp::ForkStmt& f);
  /// Give new thread `child` the parent's rollback entries for the guard
  /// `members` (the parent's, or those of them still unresolved).
  void inherit_rollbacks(const ThreadCtx& parent, const GuardSet& members,
                         std::uint32_t child);
  void do_join(ThreadCtx& left);
  void do_join_inner(ThreadCtx& left);
  void finalize_join_commit(ThreadCtx& left);
  void reexecute_right(ThreadCtx& left);
  void on_fork_timeout(GuessId guess);
  void on_join_wait_timeout(GuessId guess);
  void arm_fork_timer(const GuessId& guess, sim::Time timeout);
  void cancel_fork_timer(const GuessId& guess);

  // ---- sending (4.2.2) --------------------------------------------------
  void send_data(ThreadCtx& t, DataKind kind, const std::string& target_name,
                 std::string op, csp::ValueList args, csp::Value result,
                 std::int64_t reqid);

  // ---- arrival / receive (4.2.3, 4.2.4) ---------------------------------
  void process_arrivals();
  /// Queue a data message for delivery: at the back on arrival, at the
  /// front when a rollback requeues it.
  void queue_pending(const net::Envelope& env, bool front);
  net::Envelope unqueue_pending(std::int64_t order);
  /// Bring pending_orphans_ up to date with the history's abort epoch.
  void refresh_orphans();
  /// Order of the first pending message deliver can take now.
  std::optional<std::int64_t> first_deliverable() const;
  /// The caller of return `reqid` is alive but not awaiting it yet.
  bool return_blocked(std::int64_t reqid) const;
  /// Deliver (or, for a stale return, drop) a message first_deliverable
  /// picked.
  void deliver(const net::Envelope& env);
  void accept_message(ThreadCtx& t, const net::Envelope& env);

  // ---- control plane (4.2.5-4.2.8) --------------------------------------
  void distribute_control(ControlKind kind, const GuessId& subject,
                          const GuardSet& guard);
  void forward_control(ControlKind kind, const GuessId& subject,
                       ProcessId from);
  void on_commit_msg(const GuessId& g);
  void on_abort_msg(const GuessId& g);
  void on_precedence_msg(const GuessId& subject, const GuardSet& guard);
  void commit_guess_local(const GuessId& g);
  void abort_guess_local(const GuessId& g);
  void abort_own_guess(const GuessId& g);
  /// Resolve every join that can now commit or re-execute, lowest index
  /// first, then flush, collect and check completion.
  void after_guard_change();
  /// The lowest join-waiter that can commit (guard empty) or re-execute
  /// its right thread (guess aborted, right thread gone), if any.
  ThreadCtx* next_ready_join();
  /// Roll back every thread depending on a history-aborted guess to a
  /// fixpoint (the body of abort_guess_local, also run after incarnation
  /// observations mark guesses implicitly aborted).
  void rollback_aborted_dependencies();

  // ---- crash / recovery (fault plans) -------------------------------------
  /// Take the process down at the current virtual time: no stepping, no
  /// message processing until restart().  Called by
  /// ProcessTable::crash_process.
  void crash();
  /// Bring the process back up from its last committed state: abort every
  /// uncommitted own guess (bumping the incarnation via the normal cascade
  /// machinery) and resume.  Called by ProcessTable::restart_process.
  void restart();
  /// Current incarnation tag stamped on outgoing reliable frames.
  net::IncarnationTag incarnation_tag() const {
    return {incarnation_, incarnation_start_};
  }
  /// A reliable frame from `src` carried incarnation `inc` starting at
  /// thread index `start`: implicitly abort the dead incarnations' guesses
  /// without waiting for the explicit ABORT (section 4.2.7's incarnation
  /// rule, piggybacked on the data plane).
  void observe_peer_incarnation(ProcessId src, std::uint32_t inc,
                                std::uint32_t start);

  // ---- adaptive speculation governor --------------------------------------
  /// True when the governor currently has `site` demoted to sequential.
  bool governor_blocks(const std::string& site);
  /// Feed one fork outcome (abort or commit/sequential pass) into the
  /// site's EWMA; demotes / promotes across the hysteresis thresholds.
  void governor_outcome(const std::string& site, bool aborted);

  // ---- state strategy -----------------------------------------------------
  /// Account — and, under StateStrategy::kDeepCopy, materialize — the
  /// state copy that was just made into `copy`.  Under kCow the copy stays
  /// a shared handle and only the byte counters move.
  void apply_state_strategy(csp::Machine& copy);
  /// Bytes materialized when a state copy is restored during rollback.
  std::uint64_t restore_cost_bytes(const csp::Machine& m) const;

  // ---- rollback (4.1.3) ---------------------------------------------------
  void take_checkpoint(const ThreadCtx& t);
  struct LoggedInput;
  struct RollbackLog;
  /// The log of the thread `at` names, for a record keyed `at`; CHECKs that
  /// the thread's keys never decrease.
  RollbackLog& log_for(const StateIndex& at);
  void rollback_to(const StateIndex& target);
  /// The one way threads die.  Kill the `doomed` threads (ascending
  /// indexes), highest first; drop their rollback logs and requeue every
  /// input those held at the front of pending_, in acceptance order; then
  /// ABORT every own guess that died with them (`died`: right threads' and
  /// pending joins'), naming rollback_cause_.  A rollback passes the state
  /// it restores: that thread's log is cut only after the restore point,
  /// and the thread comes back from there before the cascade.  An own-guess
  /// abort passes its guess as `root`, whose ABORT goes out before the
  /// cascade's.  The dead threads' rollback entries go; the restored
  /// thread keeps those that predate the restore point.
  void discard_threads(const std::vector<std::uint32_t>& doomed,
                       const std::optional<StateIndex>& restore,
                       const GuessId& root, std::vector<GuessId>& died);
  /// Drop `thread`'s log records keyed after `after` (all when absent),
  /// moving its inputs to `inputs`.
  void cut_log(std::uint32_t thread, const std::optional<StateIndex>& after,
               std::vector<LoggedInput>& inputs);
  void restore_thread(const StateIndex& target);
  /// Replay strategy: reconstruct the thread state at `target` from the
  /// latest full checkpoint in its `log` plus the inputs logged since.
  ThreadCtx rebuild_by_replay(const RollbackLog& log,
                              const StateIndex& target);
  /// Drive a replaying machine until it blocks, suppressing already-
  /// performed side effects.
  void replay_until_blocked(ThreadCtx& t);
  /// Apply one logged input to a replaying thread.
  void replay_feed(ThreadCtx& t, const LoggedInput& entry);

  // ---- thread table and rollback-point index ------------------------------
  /// Add a thread at a free index.
  ThreadCtx& insert_thread(ThreadCtx t);
  /// Remove a thread from the table, handing it back.  Its rollback entries
  /// stay in the index: the caller drops them (drop_rollbacks).
  std::map<std::uint32_t, ThreadCtx>::node_type erase_thread(
      std::map<std::uint32_t, ThreadCtx>::iterator it);
  void terminate_thread(ThreadCtx& t);
  /// The one way a tabled thread changes phase: keeps the per-phase sets
  /// and the live count in step.
  void set_phase(ThreadCtx& t, ThreadCtx::Phase phase);
  /// The per-phase set a thread in `phase` belongs to, if any.
  std::set<std::uint32_t>* phase_set(ThreadCtx::Phase phase);
  /// Re-file `t` in unsettled_ after its phase, guard or flush point moved.
  void note_settled(const ThreadCtx& t);
  /// Erase the settled threads below the lowest unsettled one that no
  /// rollback entry targets: nothing reads them again (DESIGN §9).
  void retire_settled_threads();
  /// Drop `thread`'s rollback entries: all of them when it dies; when a
  /// rollback restores it to `restore`, those acquired there or later.
  /// Threads left untargeted become dirty (their state may be prunable).
  void drop_rollbacks(std::uint32_t thread,
                      const std::optional<StateIndex>& restore = std::nullopt);

  // ---- bookkeeping ---------------------------------------------------------
  StateIndex current_index(const ThreadCtx& t) const;
  /// Discard checkpoints, replay metadata, and logged inputs that no
  /// possible future rollback can reach (everything strictly before the
  /// earliest rollback point of any still-unresolved dependency).  Keeps a
  /// long-running server's speculative state bounded by the window of
  /// in-doubt guesses instead of the run length.  The sweep visits only
  /// what changed since the last one; the per-guess maps of resolved
  /// guesses are dropped on every call.
  void gc_resolved_state();
  /// Prune what became unreachable since the last sweep: the whole log of
  /// each thread that died or lost its last target, if now dead and
  /// untargeted, and each log's records before its latest checkpoint at or
  /// before the low-water mark (the index's first entry).
  void sweep_resolved_state();
  /// Drop `log`'s records keyed before `keep`.
  void prune_log(RollbackLog& log, const StateIndex& keep);
  void record_event(ThreadCtx& t, trace::ObservableEvent event);
  void flush_events(ThreadCtx& t);
  void flush_logs();
  /// A thread's events may enter the committed log only when nothing
  /// speculative guards it AND every lower-index thread has terminated and
  /// fully flushed — committed traces must follow sequential program order.
  /// (Speculative-mode guards imply the second condition; the SAFE fast
  /// path, whose right thread runs unguarded beside the left, does not.)
  bool flush_ready(const ThreadCtx& t);
  void check_completion();
  ProcessId resolve(const std::string& name) const;

  // ---- observability -------------------------------------------------------
  /// The one path from this process to the host recorder: bump the counter
  /// the event's kind stands for (SpecStats forks, joins, commits,
  /// commute_commits and commute_forgiven_vars, rollbacks, checkpoints,
  /// safe_forks, aborts_* by reason, externals_*, crashes,
  /// crash_recoveries, governor_demotions/promotions; the guesses_*
  /// metrics), then hand the event on.  Counting does not depend on the
  /// recorder storing events.  `detail` is interned by the recorder.
  void record(const obs::Event& ev, std::string_view detail = {});
  /// Event pre-filled with kind, virtual time, process id, incarnation.
  obs::Event make_event(obs::EventKind kind) const;
  static obs::GuessRef guess_ref(const GuessId& g);
  static obs::ControlType obs_control(ControlKind kind);
  /// Record a kAbort event (which counts the abort by its reason).
  /// `cause` (when valid) names the aborted guess that triggered this one —
  /// the cascade edge abort attribution walks back to the original
  /// mis-guess; root aborts (value/time fault, timeout) leave it invalid.
  void record_abort(const GuessId& g, obs::AbortReason reason,
                    const char* detail, const GuessId& cause = GuessId{});
  /// Record the compute a killed/rolled-back thread loses.
  void record_work_discarded(const ThreadCtx& t, sim::Time discarded_ns,
                             const GuessId& cause);

  Host& host_;
  const ProcessTable& table_;
  ProcessId id_;
  std::string name_;
  SpecConfig config_;
  util::Rng rng_;

  std::map<std::uint32_t, ThreadCtx> threads_;  // ascending thread index
  /// Every tabled thread's rollback entries, and nothing else: entries of
  /// a thread that leaves the table are dropped with it, a commit removes
  /// its guess from every holder, and an abort's rollback fixpoint leaves
  /// no thread holding an aborted guess.  So between steps it holds only
  /// unresolved guesses.
  RollbackIndex rollback_index_;
  /// Tabled threads by phase (kJoinWait, kAwaitMessage, kDoneWaitGuard),
  /// ascending, so the join, receive and completion checks visit only the
  /// threads they can act on.
  std::set<std::uint32_t> join_waiting_;
  std::set<std::uint32_t> receiving_;
  std::set<std::uint32_t> done_waiting_;
  /// Join-waiters that may have become ready to resolve (guard emptied,
  /// guess aborted) since after_guard_change last looked; a kill may free
  /// any waiter's right-thread slot, so it has every waiter looked at.
  std::set<std::uint32_t> join_candidates_;
  bool join_rescan_ = false;
  /// Tabled threads not yet settled (terminated, guard empty, every event
  /// flushed).  Flushing stops at the lowest of them, and threads below it
  /// retire once untargeted.
  std::set<std::uint32_t> unsettled_;
  std::size_t live_threads_ = 0;  ///< tabled threads not terminated
  /// One past the highest retired index (0: none retired), and the latest
  /// creation point of a retired thread.  Retired threads still count
  /// toward max_thread_, so indexes are never reused.
  std::uint32_t retired_end_ = 0;
  StateIndex retired_created_max_;
  std::uint32_t max_thread_ = 0;
  std::uint32_t incarnation_ = 0;
  /// Thread index at which incarnation_ began (0 for the first); stamped on
  /// reliable frames so receivers can filter dead-incarnation traffic.
  std::uint32_t incarnation_start_ = 0;
  /// Crashed by the fault plan; cleared by restart().
  bool crashed_ = false;

  HistoryTable history_;
  /// Commit dependency graph over the unresolved guesses this process
  /// knows (4.1.4): forks and acceptances add nodes, PRECEDENCE adds edges,
  /// commits and explicit aborts remove their node.  Nodes of guesses
  /// aborted implicitly are swept by gc_resolved_state once the history's
  /// abort epoch moves past cdg_epoch_.
  Cdg cdg_;
  std::uint64_t cdg_epoch_ = 0;
  PredictorState predictors_;
  SpecStats stats_;

  /// Histograms and the guesses_* counters; the SpecStats counters are
  /// joined in by metrics_view().
  obs::MetricsRegistry live_metrics_;
  /// (thread index, event-log position) -> buffering time, feeding the
  /// external-output dwell histogram at release.
  std::map<std::pair<std::uint32_t, std::size_t>, sim::Time>
      external_buffered_at_;

  /// Consecutive own-guess aborts per fork site (liveness limit L).
  std::map<std::string, int> site_aborts_;

  /// Adaptive governor state per fork site (SpecConfig::governor_*).
  struct GovernorSite {
    double ewma = 0.0;
    std::uint64_t samples = 0;
    bool demoted = false;
  };
  std::map<std::string, GovernorSite> governor_;

  /// Unresolved guesses created for SAFE-classified sites under the
  /// soundness oracle; a value/time fault on one of these is a classifier
  /// bug.  Dropped by GC once resolved.
  std::set<GuessId> safe_claimed_;

  /// reqid -> thread index of the caller awaiting the return.
  std::map<std::int64_t, std::uint32_t> outstanding_calls_;
  std::int64_t next_reqid_ = 1;

  /// Data messages not yet delivered, by delivery order: arrival order,
  /// with rollback requeues in front (negative orders).
  std::map<std::int64_t, net::Envelope> pending_;
  std::int64_t pending_front_ = 0;  ///< order of the frontmost requeue
  std::int64_t pending_back_ = 0;   ///< order of the next arrival
  /// The same messages keyed by what blocks them: calls and sends wait
  /// for a thread blocked in Receive, returns for the caller of their
  /// reqid (reqid -> order).
  std::set<std::int64_t> pending_receives_;
  std::multimap<std::int64_t, std::int64_t> pending_returns_;
  /// Orders of the pending messages that are orphans as of history
  /// abort epoch orphans_epoch_.
  std::set<std::int64_t> pending_orphans_;
  std::uint64_t orphans_epoch_ = 0;

  struct LoggedInput {
    StateIndex at;   ///< receiving thread's state index after acceptance
    StateIndex pre;  ///< state index just before acceptance (rollback point)
    std::uint64_t seq = 0;  ///< acceptance order (rollbacks requeue by it)
    net::Envelope env;
  };
  /// Replay strategy bookkeeping at a rollback point (the state index just
  /// before a dependency-introducing acceptance).
  struct ReplayMeta {
    std::uint64_t sent_count = 0;
    std::size_t flushed_count = 0;
    std::int64_t outstanding_reqid = -1;
  };
  /// One thread index's rollback log (4.1.3): its full checkpoints, replay
  /// records and accepted data messages, each keyed by the thread's state
  /// index when it recorded them.  A thread's keys only grow (a rollback
  /// cuts the restored thread's log after the restore point, and the
  /// thread's later records carry the bumped incarnation), so a rollback
  /// cuts the back of a log and the GC prunes its front.
  struct RollbackLog {
    std::map<StateIndex, ThreadCtx> checkpoints;
    std::map<StateIndex, ReplayMeta> replay_meta;
    std::map<StateIndex, LoggedInput> inputs;
  };
  /// By thread index; a log leaves the map when it empties.
  std::map<std::uint32_t, RollbackLog> logs_;
  std::uint64_t next_input_seq_ = 0;
  bool replaying_ = false;

  /// What the GC sweep must look at again.  The sweep last ran against
  /// low-water mark swept_low_ (when swept_any_); since then these threads
  /// died or lost their last targeting entry, and these took a checkpoint.
  bool swept_any_ = false;
  StateIndex swept_low_;
  std::set<std::uint32_t> dirty_threads_;
  std::vector<std::uint32_t> checkpointed_;
  std::uint64_t bookkeeping_visits_ = 0;

  /// The aborted guess whose processing is currently driving rollbacks;
  /// threaded into kWorkDiscarded / cascade kAbort events so attribution
  /// can trace collateral damage back to the originating mis-guess.
  GuessId rollback_cause_{};

  /// Fork/join-wait timers keyed by guess (not checkpointed; re-armed).
  std::map<GuessId, sim::Scheduler::Handle> fork_timers_;

  /// Targeted control plane: which processes saw each guess in a tag.
  std::map<GuessId, std::vector<ProcessId>> spread_;
  /// (guess, control-kind) pairs already forwarded (loop prevention); only
  /// guesses with a spread_ entry, dropped with it.
  std::set<std::pair<GuessId, int>> control_forwarded_;

  std::vector<trace::ObservableEvent> committed_log_;

  bool completed_ = false;
  /// The program body finished (some thread left kDoneWaitGuard); completion
  /// is declared once every thread has terminated, which may happen later
  /// (a SAFE fork's left thread can still be running S1 at that point).
  bool program_finished_ = false;
  sim::Time completion_time_ = 0;
  bool stepping_ = false;             ///< re-entrancy guard for run_thread
  bool in_process_arrivals_ = false;  ///< re-entrancy guard for delivery
  util::FlatSet<std::uint32_t> step_scheduled_;  ///< threads with a step due
  std::map<std::uint32_t, sim::Scheduler::Handle> compute_timers_;
};

}  // namespace ocsp::spec
