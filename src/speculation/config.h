// Runtime configuration of the speculation machinery.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace ocsp::spec {

/// How a process restores state on rollback (section 4.1.3 — "the
/// particular technique used for rollback is a performance tuning decision
/// and does not affect the correctness of the transformation").
enum class RollbackStrategy {
  /// Time Warp style: checkpoint the whole thread state before every new
  /// dependency acquisition; rollback = restore the snapshot.
  kCheckpointEveryInterval,
  /// Optimistic Recovery style: checkpoint only at thread start, log input
  /// messages, and roll back by replaying inputs from the thread start.
  kReplayFromLog,
};

/// How checkpoint/fork/rollback state copies are materialized.  Either way
/// the observable semantics are identical (csp::Value payloads are
/// immutable, so aliasing is never visible); the strategies differ only in
/// cost, which is why kDeepCopy survives as a differential-testing oracle
/// for the structural-sharing fast path.
enum class StateStrategy {
  /// Detach every state copy into fresh storage: the historical
  /// O(|state|) cost per checkpoint / fork / rollback restore.
  kDeepCopy,
  /// Copy-on-write: a state copy is a shared handle (O(1)); a write
  /// path-copies only the touched tree path (O(log n)).  This is the
  /// analogue of the paper's §3.2 copy elision — speculation stays cheap
  /// no matter how large the environment grows.
  kCow,
};

/// How COMMIT/ABORT control messages are distributed (section 4.2.5).
enum class ControlPlane {
  /// Broadcast to every process ("should work well in a LAN where threads
  /// are created relatively infrequently").
  kBroadcast,
  /// Send only to processes known to depend on the guess, recorded during
  /// message send processing ("more appropriate in a WAN or when the number
  /// of threads created is large").
  kTargeted,
};

struct SpecConfig {
  /// Master switch: false executes every fork sequentially, giving the
  /// pessimistic baseline with identical program semantics.
  bool speculation_enabled = true;

  /// Soundness oracle for statically-SAFE fork sites (src/analysis): when
  /// true, ForkMode::kSafe sites run through the full speculative machinery
  /// (empty passed set, guards, join-time verification) instead of the
  /// guard-elided fast path, and any value/time fault raised by such a site
  /// increments stats.safe_oracle_violations — a classifier bug.  Defaults
  /// on in debug builds so the whole test suite doubles as the oracle.
#ifndef NDEBUG
  bool safe_site_oracle = true;
#else
  bool safe_site_oracle = false;
#endif

  /// Commit-on-commute verification: honor the per-variable VerifyModes the
  /// reclassifier attached to fork sites (ForkStmt::verify).  A guess
  /// mismatch on a variable proven dead in the right thread always
  /// forgives; a boolean-only variable forgives when guess and actual agree
  /// on truthiness.  Defaults on — without annotations (the default
  /// program shape) the flag is inert and semantics are the paper's exact
  /// equality.
  bool commute_verification = true;

  /// Soundness oracle for commit-on-commute: re-derive each annotated
  /// variable's use class over the fork's right thread at fork time and
  /// drop (count in stats.commute_oracle_violations) any annotation the
  /// static proof no longer supports — a stale or forged VerifyMode after
  /// a program rewrite.  The trace-level half of the oracle lives in
  /// tests/commute_oracle_test: every run with forgiven joins must match
  /// the sequential replay's observable trace.  Defaults on in debug
  /// builds, like safe_site_oracle.
#ifndef NDEBUG
  bool commute_oracle = true;
#else
  bool commute_oracle = false;
#endif

  /// Left-thread timeout guarding against S1 divergence (section 3.3).
  sim::Time fork_timeout = sim::milliseconds(1000);

  /// How long a join may wait on PRECEDENCE resolution before the process
  /// unilaterally aborts its guess (keeps runs live under message loss).
  sim::Time join_wait_timeout = sim::milliseconds(4000);

  /// Liveness limit L (section 3.3): after this many aborts of the same
  /// fork site, the site executes pessimistically.
  int retry_limit = 8;

  RollbackStrategy rollback = RollbackStrategy::kCheckpointEveryInterval;

  /// How checkpoint/fork/rollback state copies are materialized; kDeepCopy
  /// is the differential-testing oracle for the COW fast path.
  StateStrategy state = StateStrategy::kCow;

  /// Replay strategy only: take a full checkpoint every N dependency-
  /// introducing acceptances ("less frequent checkpoints" — the classic
  /// Optimistic Recovery recipe).  Bounds both replay length and the
  /// retained input log.
  int replay_checkpoint_every = 32;

  ControlPlane control = ControlPlane::kBroadcast;

  /// Re-send unacknowledged control messages (needed only on lossy links;
  /// section 4.2.5's "repeated broadcasts" liveness requirement).
  bool control_retry = false;
  sim::Time control_retry_interval = sim::milliseconds(20);
  int control_retry_limit = 25;

  /// Adaptive speculation governor: a per-fork-site abort-rate EWMA circuit
  /// breaker.  A site whose EWMA abort rate reaches the demote threshold
  /// (after a minimum number of outcomes) is demoted to sequential
  /// execution; each governed sequential pass decays the EWMA, and once it
  /// falls to the promote threshold the site speculates again (hysteresis
  /// re-enable; the tuning constants sit beside governor_outcome in
  /// process_crash.cc).  Unlike retry limit L — which is per-site,
  /// monotone, and resets only on commit — the governor bounds wasted work
  /// under sustained fault pressure while staying able to recover when the
  /// storm passes.  Off by default: zero behavioural drift.
  bool governor_enabled = false;
};

}  // namespace ocsp::spec
