// Commit histories and incarnation start tables (sections 4.1.2, 4.1.5).
//
// Each process maintains, per peer, what it knows about the peer's guesses:
// committed, aborted, or unknown.  Storage is sparse — most guesses commit,
// so only the exceptions are recorded (util::SparseVector rationale).  The
// incarnation start table turns "I saw incarnation 2 begin at index 3" into
// implicit aborts of incarnation-1 guesses with index >= 3 without any
// explicit ABORT message.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "speculation/guard_set.h"
#include "speculation/guess.h"

namespace ocsp::spec {

enum class GuessStatus { kUnknown, kCommitted, kAborted };

const char* to_string(GuessStatus s);

/// What one process knows about one peer's guesses.
class PeerHistory {
 public:
  /// Record an explicit COMMIT/ABORT (or an "unknown" from PRECEDENCE).
  /// Returns true when the change may have made some guess start or stop
  /// reading as aborted.
  bool set_status(const GuessId& g, GuessStatus status);

  /// Current knowledge; applies the implicit-abort rule: a guess from
  /// incarnation i with index >= start(i') for some observed i' > i is
  /// aborted even without an explicit entry.
  GuessStatus status(const GuessId& g) const;

  /// Note that incarnation `inc` of the peer begins at thread index
  /// `start_index` (learned from an ABORT, which names the aborted thread).
  /// Returns true when the start table changed (new implicit aborts).
  bool observe_incarnation(std::uint32_t inc, std::uint32_t start_index);

  /// Highest incarnation observed so far.
  std::uint32_t latest_incarnation() const;

  std::size_t explicit_entries() const { return entries_.size(); }

  std::string to_string() const;

 private:
  /// Lower incarnation `inc`'s start to `start_index`; true if it moved.
  bool lower_start(std::uint32_t inc, std::uint32_t start_index);

  // incarnation -> smallest known start index
  std::map<std::uint32_t, std::uint32_t> incarnation_start_;
  // (incarnation, index) -> explicit status
  std::map<std::pair<std::uint32_t, std::uint32_t>, GuessStatus> entries_;
};

/// All peers' histories plus convenience queries over guard sets.
class HistoryTable {
 public:
  /// PeerHistory::set_status on the guess's owner.
  void set_status(const GuessId& g, GuessStatus status);
  /// PeerHistory::observe_incarnation on `owner`.
  void observe_incarnation(ProcessId owner, std::uint32_t inc,
                           std::uint32_t start_index);
  const PeerHistory* find_peer(ProcessId id) const;

  GuessStatus status(const GuessId& g) const;

  /// Advances whenever a status query's kAborted answer may have changed
  /// for some guess, so a caller can reuse its orphan verdicts until then.
  std::uint64_t abort_epoch() const { return abort_epoch_; }

  /// Orphan test of section 4.2.3: true if any guess in `guard` is aborted.
  bool any_aborted(const GuardSet& guard) const;

  /// Strip guesses already known committed (they are no longer
  /// dependencies); used when merging an incoming tag.
  std::vector<GuessId> unresolved_of(const GuardSet& guard) const;

 private:
  std::map<ProcessId, PeerHistory> peers_;
  std::uint64_t abort_epoch_ = 0;
};

}  // namespace ocsp::spec
