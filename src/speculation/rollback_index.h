// Rollback-point index (section 4.1.3).
//
// Every live thread of a process keeps a rollback map: for each guess it
// depends on, the state index a rollback restores if that guess aborts.  A
// forked thread inherits the entries of its parent's guard members, so the
// same (point, guess) pair can sit in several threads at once.  The index
// merges all of them into one reference-counted set ordered by rollback
// point, so the earliest point (the GC low-water mark) is its first entry;
// it counts, per thread, the distinct entries whose point lies in that
// thread (the threads rollbacks target), and it records which threads hold
// each guess, so resolving a guess visits only those threads.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "speculation/guess.h"
#include "util/flat_set.h"

namespace ocsp::spec {

class RollbackIndex {
 public:
  /// (rollback point, guess), ordered by point first.
  using Entry = std::pair<StateIndex, GuessId>;

  /// `thread`'s rollback map gained g -> at; `thread` now holds g.
  void add(std::uint32_t thread, const GuessId& g, const StateIndex& at) {
    if (++refs_[Entry{at, g}] == 1) ++targets_[at.thread];
    holders_[g].insert(thread);
  }

  /// `thread`'s rollback map lost g -> at; `thread` no longer holds g.
  /// Returns true when no entry targets `at.thread` any more.
  bool remove(std::uint32_t thread, const GuessId& g, const StateIndex& at) {
    bool untargeted = false;
    auto it = refs_.find(Entry{at, g});
    if (it != refs_.end() && --it->second == 0) {
      refs_.erase(it);
      auto target = targets_.find(at.thread);
      if (--target->second == 0) {
        targets_.erase(target);
        untargeted = true;
      }
    }
    auto holder = holders_.find(g);
    if (holder != holders_.end()) {
      holder->second.erase(thread);
      if (holder->second.empty()) holders_.erase(holder);
    }
    return untargeted;
  }

  /// Threads whose rollback map holds g, ascending.  A copy, so callers
  /// may mutate the index while they visit.
  std::vector<std::uint32_t> holders(const GuessId& g) const {
    auto it = holders_.find(g);
    if (it == holders_.end()) return {};
    return {it->second.begin(), it->second.end()};
  }

  /// Some entry's rollback point lies in `thread`.
  bool targets(std::uint32_t thread) const {
    return targets_.count(thread) > 0;
  }
  /// Thread -> distinct entries whose rollback point lies in it, ascending.
  const std::map<std::uint32_t, std::uint32_t>& target_threads() const {
    return targets_;
  }

  /// Distinct entries, earliest rollback point first.
  auto begin() const { return refs_.begin(); }
  auto end() const { return refs_.end(); }
  bool empty() const { return refs_.empty(); }
  std::size_t size() const { return refs_.size(); }

 private:
  std::map<Entry, std::uint32_t> refs_;
  std::map<std::uint32_t, std::uint32_t> targets_;
  std::map<GuessId, util::FlatSet<std::uint32_t>> holders_;
};

}  // namespace ocsp::spec
