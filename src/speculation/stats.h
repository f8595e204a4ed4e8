// Counters describing what the protocol did during a run.  The lifecycle
// counters that have an event kind (forks, joins, commits, aborts,
// rollbacks, checkpoints, externals, crashes, governor moves, ...) are
// counted only from recorded events, by SpeculativeProcess::record.
#pragma once

#include <cstdint>
#include <string>

namespace ocsp::obs {
class MetricsRegistry;
}

namespace ocsp::spec {

struct SpecStats {
  std::uint64_t forks = 0;
  std::uint64_t sequential_forks = 0;  ///< forks run pessimistically (L hit
                                       ///< or speculation disabled)
  std::uint64_t safe_forks = 0;  ///< statically-SAFE forks run with the
                                 ///< guard machinery elided
  std::uint64_t safe_oracle_violations = 0;  ///< value/time faults raised by
                                             ///< SAFE-classified sites under
                                             ///< the debug oracle
  std::uint64_t joins = 0;
  std::uint64_t commits = 0;
  /// Joins whose guess verification failed exact equality but committed
  /// anyway under commit-on-commute (every mismatched variable's VerifyMode
  /// forgave it).  Subset of `commits`.
  std::uint64_t commute_commits = 0;
  /// Mismatched variables forgiven across all commute commits.
  std::uint64_t commute_forgiven_vars = 0;
  /// VerifyMode annotations rejected by the fork-time use-class oracle
  /// (SpecConfig::commute_oracle): the static proof no longer holds.
  std::uint64_t commute_oracle_violations = 0;
  std::uint64_t aborts_value_fault = 0;
  std::uint64_t aborts_time_fault = 0;
  std::uint64_t aborts_timeout = 0;
  std::uint64_t aborts_crash = 0;    ///< own guesses discarded restoring the
                                     ///< committed state after a crash
  std::uint64_t aborts_cascade = 0;  ///< rollbacks caused by remote aborts
  std::uint64_t rollbacks = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t replays = 0;
  std::uint64_t orphans_discarded = 0;
  std::uint64_t messages_redelivered = 0;
  std::uint64_t externals_buffered = 0;
  std::uint64_t externals_released = 0;
  std::uint64_t externals_discarded = 0;
  std::uint64_t control_sent = 0;
  std::uint64_t precedence_sent = 0;
  std::uint64_t checkpoints_pruned = 0;
  std::uint64_t log_entries_pruned = 0;

  /// State-copy accounting (checkpoints, fork-time machine copies, and
  /// join re-execution state adoption).  Under StateStrategy::kDeepCopy
  /// every copy materializes the whole Env, so `copied` grows with
  /// O(|state|) per event; under kCow a copy is a shared handle, so
  /// `copied` stays at handle size and the payload lands in `shared`.
  std::uint64_t checkpoint_bytes_copied = 0;
  std::uint64_t checkpoint_bytes_shared = 0;
  /// Bytes materialized while restoring a thread from a checkpoint (or a
  /// replay base) during rollback.
  std::uint64_t rollback_restore_bytes = 0;

  /// Robustness accounting (fault plans, crash recovery, governor).
  std::uint64_t crashes = 0;
  std::uint64_t crash_recoveries = 0;
  /// Messages that arrived while the process was crashed and were dropped
  /// (control plane; framed data is parked by the transport instead).
  std::uint64_t crash_messages_dropped = 0;
  std::uint64_t governor_demotions = 0;
  std::uint64_t governor_promotions = 0;
  /// Forks run sequentially because the governor had the site demoted
  /// (subset of sequential_forks).
  std::uint64_t governor_sequential_forks = 0;

  std::uint64_t total_aborts() const {
    return aborts_value_fault + aborts_time_fault + aborts_timeout +
           aborts_crash;
  }

  /// Fraction of state-copy bytes that were shared instead of
  /// materialized; 0 when nothing was copied yet.
  double sharing_ratio() const {
    const std::uint64_t total = checkpoint_bytes_copied +
                                checkpoint_bytes_shared;
    return total == 0 ? 0.0
                      : static_cast<double>(checkpoint_bytes_shared) /
                            static_cast<double>(total);
  }

  friend bool operator==(const SpecStats&, const SpecStats&) = default;

  /// Add every counter of `o` into this one.
  void merge(const SpecStats& o);

  std::string to_string() const;

  /// Add every counter to `m` under its field name (obs snapshot format).
  void export_to(obs::MetricsRegistry& m) const;
};

}  // namespace ocsp::spec
