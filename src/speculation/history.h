// Commit histories and incarnation start tables (sections 4.1.2, 4.1.5).
//
// Each process maintains, per peer, what it knows about the peer's guesses:
// committed, aborted, or unknown.  Section 4.1.5 suggests a sparse vector
// whose missing elements read as committed.  That default cannot be used
// here: a receiver must tell a guess it has not yet heard resolve (unknown,
// still a dependency) from a committed one, so "no entry" has to read as
// unknown, and commits — the common case — would all be stored anyway.
// Storage is therefore dense instead: per incarnation, one byte per guess
// index from the lowest index heard, holding "no entry" or one of the three
// statuses.  A guess's status is one array read.
//
// The incarnation start table turns "I saw incarnation 2 begin at index 3"
// into implicit aborts of incarnation-1 guesses with index >= 3 without any
// explicit ABORT message.  Each incarnation also keeps the smallest start of
// any later incarnation, so the implicit-abort test is one comparison
// however many incarnations the peer has been through.
#pragma once

#include <cstdint>
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
  /// aborted even without an explicit entry.  An explicit entry wins.
  GuessStatus status(const GuessId& g) const;

  /// Note that incarnation `inc` of the peer begins at thread index
  /// `start_index` (learned from an ABORT, which names the aborted thread).
  /// Returns true when the start table changed (new implicit aborts).
  bool observe_incarnation(std::uint32_t inc, std::uint32_t start_index);

  /// Highest incarnation observed so far.
  std::uint32_t latest_incarnation() const;

  std::size_t explicit_entries() const { return explicit_entries_; }

  /// True until the first set_status or observe_incarnation.
  bool empty() const { return incarnations_.empty(); }

  std::string to_string() const;

 private:
  /// later_start of an incarnation with no observed later one: above
  /// every guess index.
  static constexpr std::uint64_t kNoLaterStart = std::uint64_t{1} << 32;
  /// Entry byte meaning "no explicit status"; otherwise 1 + GuessStatus.
  static constexpr std::uint8_t kNoEntry = 0;

  struct Incarnation {
    /// Smallest start of any observed later incarnation: guesses of this
    /// one at or above it are implicitly aborted.
    std::uint64_t later_start = kNoLaterStart;
    /// Smallest start index observed for this incarnation (meaningful once
    /// `observed`).
    std::uint32_t start = 0;
    /// Guess index of entries[0].
    std::uint32_t base = 0;
    bool observed = false;
    std::vector<std::uint8_t> entries;

    std::uint8_t entry(std::uint32_t index) const {
      return index >= base && index - base < entries.size()
                 ? entries[index - base]
                 : kNoEntry;
    }
    /// The entry of `index`, growing the array at either end.
    std::uint8_t& entry_slot(std::uint32_t index);
  };

  /// Incarnation `inc`'s record, creating it and every lower one.
  Incarnation& incarnation(std::uint32_t inc);
  /// Lower incarnation `inc`'s start to `start_index`; true if it moved.
  bool lower_start(std::uint32_t inc, std::uint32_t start_index);

  /// Indexed by incarnation number, up to the highest observed.
  std::vector<Incarnation> incarnations_;
  std::size_t explicit_entries_ = 0;
};

/// All peers' histories plus convenience queries over guard sets.
class HistoryTable {
 public:
  /// PeerHistory::set_status on the guess's owner.
  void set_status(const GuessId& g, GuessStatus status);
  /// PeerHistory::observe_incarnation on `owner`.
  void observe_incarnation(ProcessId owner, std::uint32_t inc,
                           std::uint32_t start_index);
  /// Null until `id` is first touched by set_status or observe_incarnation.
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
  PeerHistory& peer(ProcessId id);

  /// Indexed by ProcessId.
  std::vector<PeerHistory> peers_;
  std::uint64_t abort_epoch_ = 0;
};

// Status queries run on every message and every guard test: keep them
// inline.

inline GuessStatus PeerHistory::status(const GuessId& g) const {
  if (g.incarnation >= incarnations_.size()) return GuessStatus::kUnknown;
  const Incarnation& in = incarnations_[g.incarnation];
  const std::uint8_t e = in.entry(g.index);
  if (e != kNoEntry) return static_cast<GuessStatus>(e - 1);
  // Implicit abort: a later incarnation whose start index is <= g.index
  // means the thread g guarded was re-executed — g was abandoned.
  return in.later_start <= g.index ? GuessStatus::kAborted
                                   : GuessStatus::kUnknown;
}

inline const PeerHistory* HistoryTable::find_peer(ProcessId id) const {
  return id < peers_.size() && !peers_[id].empty() ? &peers_[id] : nullptr;
}

inline GuessStatus HistoryTable::status(const GuessId& g) const {
  return g.owner < peers_.size() ? peers_[g.owner].status(g)
                                 : GuessStatus::kUnknown;
}

}  // namespace ocsp::spec
