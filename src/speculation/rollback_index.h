// Rollback-point index (section 4.1.3).
//
// Every thread of a process has one rollback point per guess it depends on:
// the state index a rollback restores if that guess aborts.  The index is
// the only store of these entries; a thread and its checkpoints carry none.
// A forked thread inherits the entries of its parent's guard members, so
// the same (point, guess) pair can be held by several threads at once.  The
// index keeps each thread's entries and merges all of them into one
// reference-counted set ordered by rollback point, so the earliest point
// (the GC low-water mark) is its first entry; it counts, per thread, the
// distinct entries whose point lies in that thread (the threads rollbacks
// target), and it records which threads hold each guess, so resolving a
// guess visits only those threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "speculation/guess.h"
#include "util/check.h"
#include "util/flat_set.h"

namespace ocsp::spec {

class RollbackIndex {
 public:
  /// (rollback point, guess), ordered by point first.
  using Entry = std::pair<StateIndex, GuessId>;
  /// One thread's entries: guess -> rollback point.
  using Entries = std::map<GuessId, StateIndex>;

  /// `thread` acquires g with rollback point `at`.  A thread acquires each
  /// guess once: until the guess resolves its entry keeps the earliest
  /// state the guess can have contaminated.
  void add(std::uint32_t thread, const GuessId& g, const StateIndex& at) {
    OCSP_CHECK_MSG(by_thread_[thread].emplace(g, at).second,
                   "a thread acquired a guess twice");
    if (++refs_[Entry{at, g}] == 1) ++targets_[at.thread];
    holders_[g].insert(thread);
  }

  /// `thread` drops its entry for g, if it has one.  A thread no entry
  /// targets any more is added to `untargeted`.
  void remove(std::uint32_t thread, const GuessId& g,
              std::set<std::uint32_t>& untargeted) {
    auto held = by_thread_.find(thread);
    if (held == by_thread_.end()) return;
    auto it = held->second.find(g);
    if (it == held->second.end()) return;
    release(thread, g, it->second, untargeted);
    held->second.erase(it);
    if (held->second.empty()) by_thread_.erase(held);
  }

  /// `thread` died: drop every entry it holds.  Returns how many there were.
  std::size_t drop_all(std::uint32_t thread,
                       std::set<std::uint32_t>& untargeted) {
    auto held = by_thread_.find(thread);
    if (held == by_thread_.end()) return 0;
    const std::size_t n = held->second.size();
    for (const auto& [g, at] : held->second) {
      release(thread, g, at, untargeted);
    }
    by_thread_.erase(held);
    return n;
  }

  /// `thread` is restored to its state `at`: drop the entries it acquired
  /// there or later, those whose point lies in `thread` at or after `at`.
  /// Entries pointing outside the thread, or into it before `at`, predate
  /// the restored state and stay.  Returns how many entries it examined.
  std::size_t drop_from(std::uint32_t thread, const StateIndex& at,
                        std::set<std::uint32_t>& untargeted) {
    auto held = by_thread_.find(thread);
    if (held == by_thread_.end()) return 0;
    Entries& entries = held->second;
    const std::size_t n = entries.size();
    for (auto it = entries.begin(); it != entries.end();) {
      const auto& [g, point] = *it;
      if (point.thread != thread || point < at) {
        ++it;
        continue;
      }
      release(thread, g, point, untargeted);
      it = entries.erase(it);
    }
    if (entries.empty()) by_thread_.erase(held);
    return n;
  }

  /// `thread`'s entries (empty when it holds none).
  const Entries& entries(std::uint32_t thread) const {
    static const Entries kNone;
    auto it = by_thread_.find(thread);
    return it == by_thread_.end() ? kNone : it->second;
  }
  /// `thread`'s rollback point for g, or null when it does not hold g.
  const StateIndex* point(std::uint32_t thread, const GuessId& g) const {
    const Entries& held = entries(thread);
    auto it = held.find(g);
    return it == held.end() ? nullptr : &it->second;
  }
  /// Threads holding any entry, ascending, with their entries.
  const std::map<std::uint32_t, Entries>& by_thread() const {
    return by_thread_;
  }

  /// Threads holding g, ascending.  A copy, so callers may mutate the
  /// index while they visit.
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
  /// Unreference `thread`'s entry g -> at.
  void release(std::uint32_t thread, const GuessId& g, const StateIndex& at,
               std::set<std::uint32_t>& untargeted) {
    auto it = refs_.find(Entry{at, g});
    if (--it->second == 0) {
      refs_.erase(it);
      auto target = targets_.find(at.thread);
      if (--target->second == 0) {
        targets_.erase(target);
        untargeted.insert(at.thread);
      }
    }
    auto holder = holders_.find(g);
    holder->second.erase(thread);
    if (holder->second.empty()) holders_.erase(holder);
  }

  std::map<std::uint32_t, Entries> by_thread_;
  std::map<Entry, std::uint32_t> refs_;
  std::map<std::uint32_t, std::uint32_t> targets_;
  std::map<GuessId, util::FlatSet<std::uint32_t>> holders_;
};

}  // namespace ocsp::spec
