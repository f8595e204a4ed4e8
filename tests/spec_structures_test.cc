// Unit tests for the protocol data structures: guesses, commit guard sets
// (section 4.1.5 subsumption), commit histories with incarnation start
// tables (section 4.1.2 implicit aborts), and the commit dependency graph
// (section 4.1.4 cycle detection).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "speculation/cdg.h"
#include "speculation/guard_set.h"
#include "speculation/history.h"
#include "speculation/messages.h"
#include "speculation/predictor.h"
#include "speculation/rollback_index.h"
#include "util/rng.h"

namespace ocsp::spec {
namespace {

GuessId g(ProcessId owner, std::uint32_t inc, std::uint32_t index) {
  return GuessId{owner, inc, index};
}

// ---- GuessId / StateIndex ------------------------------------------------------------

TEST(GuessId, OrderingIsLexicographic) {
  EXPECT_LT(g(0, 0, 1), g(0, 0, 2));
  EXPECT_LT(g(0, 0, 9), g(0, 1, 1));
  EXPECT_LT(g(0, 1, 1), g(1, 0, 0));
  EXPECT_EQ(g(2, 1, 3), g(2, 1, 3));
}

TEST(GuessId, ValidityAndFormatting) {
  EXPECT_FALSE(GuessId{}.valid());
  EXPECT_TRUE(g(0, 0, 1).valid());
  EXPECT_EQ(g(3, 1, 4).to_string(), "g(P3.1.4)");
}

TEST(StateIndex, OrderingMatchesLogicalTime) {
  StateIndex a{0, 0, 0}, b{0, 0, 5}, c{0, 1, 0}, d{1, 0, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(c, d);
}

// ---- GuardSet ------------------------------------------------------------

TEST(GuardSet, AddAndContains) {
  GuardSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.add(g(1, 0, 3)));
  EXPECT_TRUE(s.contains(g(1, 0, 3)));
  EXPECT_FALSE(s.contains(g(1, 0, 2)));
  EXPECT_EQ(s.size(), 1u);
}

TEST(GuardSet, OnePerOwnerLatestWins) {
  // Section 4.1.5: a dependence on x5 subsumes a dependence on x3.
  GuardSet s;
  s.add(g(1, 0, 3));
  EXPECT_TRUE(s.add(g(1, 0, 5)));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.contains(g(1, 0, 5)));
  EXPECT_FALSE(s.contains(g(1, 0, 3)));
  EXPECT_TRUE(s.covers(g(1, 0, 3)));
  // Adding an older guess is a no-op.
  EXPECT_FALSE(s.add(g(1, 0, 2)));
  EXPECT_TRUE(s.contains(g(1, 0, 5)));
}

TEST(GuardSet, HigherIncarnationSubsumes) {
  GuardSet s;
  s.add(g(1, 0, 9));
  EXPECT_TRUE(s.add(g(1, 1, 2)));
  EXPECT_TRUE(s.contains(g(1, 1, 2)));
  EXPECT_TRUE(s.covers(g(1, 0, 9)));
}

TEST(GuardSet, MergeIsPerOwnerUnion) {
  GuardSet a{g(1, 0, 2), g(2, 0, 1)};
  GuardSet b{g(1, 0, 4), g(3, 0, 7)};
  EXPECT_TRUE(a.merge(b));
  EXPECT_EQ(a.size(), 3u);
  EXPECT_TRUE(a.contains(g(1, 0, 4)));
  EXPECT_TRUE(a.contains(g(2, 0, 1)));
  EXPECT_TRUE(a.contains(g(3, 0, 7)));
  EXPECT_FALSE(a.merge(b));  // idempotent
}

TEST(GuardSet, EraseExactOnly) {
  GuardSet s{g(1, 0, 5)};
  EXPECT_FALSE(s.erase(g(1, 0, 3)));  // not the stored member
  EXPECT_TRUE(s.erase(g(1, 0, 5)));
  EXPECT_TRUE(s.empty());
}

TEST(GuardSet, MinusComputesNewguards) {
  GuardSet tag{g(1, 0, 5), g(2, 0, 3)};
  GuardSet local{g(1, 0, 7)};  // subsumes the owner-1 entry
  auto fresh = tag.minus(local);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0], g(2, 0, 3));
}

TEST(GuardSet, ForOwnerLookup) {
  GuardSet s{g(4, 1, 2)};
  EXPECT_EQ(s.for_owner(4), g(4, 1, 2));
  EXPECT_FALSE(s.for_owner(5).valid());
  EXPECT_TRUE(s.contains_owner(4));
  EXPECT_TRUE(s.erase_owner(4));
  EXPECT_TRUE(s.empty());
}

TEST(GuardSet, ToStringListsMembers) {
  GuardSet s{g(0, 0, 1), g(1, 0, 2)};
  const std::string out = s.to_string();
  EXPECT_NE(out.find("g(P0.0.1)"), std::string::npos);
  EXPECT_NE(out.find("g(P1.0.2)"), std::string::npos);
}

// ---- PeerHistory ------------------------------------------------------------

TEST(PeerHistory, ExplicitStatuses) {
  PeerHistory h;
  EXPECT_EQ(h.status(g(1, 0, 1)), GuessStatus::kUnknown);
  h.set_status(g(1, 0, 1), GuessStatus::kCommitted);
  EXPECT_EQ(h.status(g(1, 0, 1)), GuessStatus::kCommitted);
  h.set_status(g(1, 0, 2), GuessStatus::kAborted);
  EXPECT_EQ(h.status(g(1, 0, 2)), GuessStatus::kAborted);
}

TEST(PeerHistory, UnknownNeverOverwritesFinal) {
  PeerHistory h;
  h.set_status(g(1, 0, 1), GuessStatus::kCommitted);
  h.set_status(g(1, 0, 1), GuessStatus::kUnknown);
  EXPECT_EQ(h.status(g(1, 0, 1)), GuessStatus::kCommitted);
}

TEST(PeerHistory, ImplicitAbortViaIncarnationStart) {
  // Section 4.1.2's worked example: incarnation 2 begins at index 3, so
  // x_{1,1} and x_{1,2} are unaffected but x_{1,3} is implicitly aborted.
  PeerHistory h;
  h.observe_incarnation(2, 3);
  EXPECT_EQ(h.status(g(1, 1, 1)), GuessStatus::kUnknown);
  EXPECT_EQ(h.status(g(1, 1, 2)), GuessStatus::kUnknown);
  EXPECT_EQ(h.status(g(1, 1, 3)), GuessStatus::kAborted);
  EXPECT_EQ(h.status(g(1, 1, 9)), GuessStatus::kAborted);
  EXPECT_EQ(h.status(g(1, 2, 3)), GuessStatus::kUnknown);
}

TEST(PeerHistory, SightingImpliesIncarnationStart) {
  // "Receipt of C2,3 can also be taken as an implicit abort of x1,3."
  PeerHistory h;
  h.set_status(g(1, 2, 3), GuessStatus::kCommitted);
  EXPECT_EQ(h.status(g(1, 1, 3)), GuessStatus::kAborted);
  EXPECT_EQ(h.status(g(1, 1, 2)), GuessStatus::kUnknown);
}

TEST(PeerHistory, StartIndexRefinesDownward) {
  PeerHistory h;
  h.observe_incarnation(1, 5);
  EXPECT_EQ(h.status(g(1, 0, 4)), GuessStatus::kUnknown);
  h.observe_incarnation(1, 2);
  EXPECT_EQ(h.status(g(1, 0, 4)), GuessStatus::kAborted);
  EXPECT_EQ(h.latest_incarnation(), 1u);
}

TEST(HistoryTable, AbortEpochMovesOnlyWhenAbortsMayChange) {
  HistoryTable t;
  t.set_status(g(1, 0, 1), GuessStatus::kUnknown);  // starts incarnation 0
  const std::uint64_t e0 = t.abort_epoch();
  t.set_status(g(1, 0, 2), GuessStatus::kUnknown);  // start stays at 1
  t.set_status(g(1, 0, 2), GuessStatus::kCommitted);
  EXPECT_EQ(t.abort_epoch(), e0);
  t.set_status(g(1, 0, 3), GuessStatus::kAborted);
  const std::uint64_t e1 = t.abort_epoch();
  EXPECT_GT(e1, e0);
  t.observe_incarnation(1, 1, 4);  // implicitly aborts x_{0,4} onward
  EXPECT_GT(t.abort_epoch(), e1);
  EXPECT_EQ(t.status(g(1, 0, 5)), GuessStatus::kAborted);
  const std::uint64_t e2 = t.abort_epoch();
  t.observe_incarnation(1, 1, 6);  // a later start changes nothing
  EXPECT_EQ(t.abort_epoch(), e2);
}

TEST(HistoryTable, AggregateQueries) {
  HistoryTable t;
  t.set_status(g(1, 0, 1), GuessStatus::kAborted);
  t.set_status(g(2, 0, 1), GuessStatus::kCommitted);
  GuardSet guard{g(1, 0, 1), g(2, 0, 1), g(3, 0, 1)};
  EXPECT_TRUE(t.any_aborted(guard));
  auto unresolved = t.unresolved_of(guard);
  ASSERT_EQ(unresolved.size(), 2u);  // aborted + unknown; committed dropped
  GuardSet clean{g(2, 0, 1)};
  EXPECT_FALSE(t.any_aborted(clean));
}

TEST(HistoryTableDeathTest, OwnerBeyondTheProcessIdRangeFailsACheck) {
  HistoryTable t;
  EXPECT_DEATH(t.set_status(g(kMaxProcesses, 0, 1), GuessStatus::kCommitted),
               "out of process-id range");
  EXPECT_DEATH(t.observe_incarnation(kMaxProcesses, 1, 0),
               "out of process-id range");
  EXPECT_EQ(t.status(g(kMaxProcesses, 0, 1)), GuessStatus::kUnknown);
  EXPECT_EQ(t.find_peer(kMaxProcesses), nullptr);
}

// Reference model: the map-and-walk history (an ordered map of explicit
// entries, a start table, and a walk over every later incarnation per
// query) that the dense arrays replaced.
class MapPeerHistory {
 public:
  bool set_status(const GuessId& g, GuessStatus status) {
    const auto key = std::pair(g.incarnation, g.index);
    const bool was_aborted = this->status(g) == GuessStatus::kAborted;
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      if (it->second != GuessStatus::kUnknown &&
          status == GuessStatus::kUnknown) {
        return false;
      }
      it->second = status;
    } else {
      entries_[key] = status;
    }
    const bool start_moved = observe_incarnation(g.incarnation, g.index);
    return start_moved || was_aborted != (status == GuessStatus::kAborted);
  }
  GuessStatus status(const GuessId& g) const {
    auto it = entries_.find(std::pair(g.incarnation, g.index));
    if (it != entries_.end()) return it->second;
    for (auto jt = starts_.upper_bound(g.incarnation); jt != starts_.end();
         ++jt) {
      if (jt->second <= g.index) return GuessStatus::kAborted;
    }
    return GuessStatus::kUnknown;
  }
  bool observe_incarnation(std::uint32_t inc, std::uint32_t start) {
    auto [it, inserted] = starts_.try_emplace(inc, start);
    if (inserted) return true;
    if (start >= it->second) return false;
    it->second = start;
    return true;
  }
  std::uint32_t latest_incarnation() const {
    return starts_.empty() ? 0 : starts_.rbegin()->first;
  }
  std::size_t explicit_entries() const { return entries_.size(); }
  std::string to_string() const {
    std::ostringstream os;
    os << "starts{";
    for (const auto& [inc, start] : starts_) os << " i" << inc << "@" << start;
    os << " } entries{";
    for (const auto& [key, st] : entries_) {
      os << " (" << key.first << "," << key.second
         << ")=" << spec::to_string(st);
    }
    os << " }";
    return os.str();
  }

 private:
  std::map<std::uint32_t, std::uint32_t> starts_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, GuessStatus> entries_;
};

TEST(HistoryTable, MatchesMapReferenceUnderRandomOps) {
  // Indices around a first sighting at 20: below it, at its edges, and far
  // above it.
  const std::vector<std::uint32_t> indices = {0,  1,  5,  9,   10,  19,  20,
                                              21, 33, 64, 199, 300, 301};
  constexpr ProcessId kOwners = 3;
  util::Rng rng(2026);
  HistoryTable table;
  std::map<ProcessId, MapPeerHistory> model;
  std::vector<GuessId> seen;  // guesses set so far, to re-set them
  std::uint32_t top_inc = 0;  // highest incarnation any operation named
  const auto pick_inc = [&]() -> std::uint32_t {
    // Mostly small, sometimes a jump (a frame-carried tag).
    return rng.bernoulli(0.1)
               ? static_cast<std::uint32_t>(rng.uniform_int(6, 40))
               : static_cast<std::uint32_t>(rng.uniform_int(0, 5));
  };
  const auto pick_index = [&]() -> std::uint32_t {
    return rng.bernoulli(0.8)
               ? indices[static_cast<std::size_t>(rng.uniform_int(
                     0, static_cast<std::int64_t>(indices.size()) - 1))]
               : static_cast<std::uint32_t>(rng.uniform_int(0, 400));
  };
  const GuessStatus statuses[] = {GuessStatus::kUnknown,
                                  GuessStatus::kCommitted,
                                  GuessStatus::kAborted};
  for (int op = 0; op < 1500; ++op) {
    const std::uint64_t epoch = table.abort_epoch();
    bool model_moved = false;
    std::string what;
    if (rng.bernoulli(0.7)) {
      GuessId guess;
      if (!seen.empty() && rng.bernoulli(0.4)) {
        // Re-set a known guess: unknown after final, final after unknown,
        // final after final.
        guess = seen[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(seen.size()) - 1))];
      } else {
        guess = g(static_cast<ProcessId>(rng.uniform_int(0, kOwners - 1)),
                  pick_inc(), pick_index());
        seen.push_back(guess);
      }
      const GuessStatus st = statuses[rng.uniform_int(0, 2)];
      what = "set_status " + guess.to_string() + " " + to_string(st);
      table.set_status(guess, st);
      model_moved = model[guess.owner].set_status(guess, st);
      top_inc = std::max(top_inc, guess.incarnation);
    } else {
      const auto owner =
          static_cast<ProcessId>(rng.uniform_int(0, kOwners - 1));
      const std::uint32_t inc = pick_inc();
      const std::uint32_t start = pick_index();
      what = "observe_incarnation P" + std::to_string(owner) + " i" +
             std::to_string(inc) + "@" + std::to_string(start);
      table.observe_incarnation(owner, inc, start);
      model_moved = model[owner].observe_incarnation(inc, start);
      top_inc = std::max(top_inc, inc);
    }
    SCOPED_TRACE("op " + std::to_string(op) + ": " + what);
    ASSERT_EQ(table.abort_epoch() != epoch, model_moved);
    // Owner kOwners is never touched: unknown everywhere, no peer record.
    for (ProcessId owner = 0; owner <= kOwners; ++owner) {
      const PeerHistory* peer = table.find_peer(owner);
      auto m = model.find(owner);
      ASSERT_EQ(peer == nullptr, m == model.end());
      if (peer != nullptr) {
        ASSERT_EQ(peer->latest_incarnation(), m->second.latest_incarnation());
        ASSERT_EQ(peer->explicit_entries(), m->second.explicit_entries());
        ASSERT_EQ(peer->to_string(), m->second.to_string());
      }
      for (std::uint32_t inc = 0; inc <= top_inc + 1; ++inc) {
        for (std::uint32_t index : indices) {
          const GuessId q = g(owner, inc, index);
          const GuessStatus want = m == model.end() ? GuessStatus::kUnknown
                                                    : m->second.status(q);
          ASSERT_EQ(table.status(q), want) << q.to_string();
        }
      }
    }
  }
}

// ---- Cdg ------------------------------------------------------------

TEST(Cdg, AddNodesAndEdges) {
  Cdg cdg;
  EXPECT_FALSE(cdg.has_node(g(0, 0, 1)));
  cdg.add_node(g(0, 0, 1));
  EXPECT_TRUE(cdg.has_node(g(0, 0, 1)));
  auto cycle = cdg.add_edge(g(0, 0, 1), g(1, 0, 1));
  EXPECT_TRUE(cycle.empty());
  EXPECT_TRUE(cdg.has_edge(g(0, 0, 1), g(1, 0, 1)));
  EXPECT_EQ(cdg.node_count(), 2u);
  EXPECT_EQ(cdg.edge_count(), 1u);
}

TEST(Cdg, DetectsTwoCycle) {
  // Figure 7's cycle: x1 -> z1 -> x1.
  Cdg cdg;
  cdg.add_edge(g(0, 0, 1), g(1, 0, 1));
  auto cycle = cdg.add_edge(g(1, 0, 1), g(0, 0, 1));
  ASSERT_EQ(cycle.size(), 2u);
}

TEST(Cdg, DetectsSelfLoop) {
  Cdg cdg;
  auto cycle = cdg.add_edge(g(0, 0, 1), g(0, 0, 1));
  ASSERT_EQ(cycle.size(), 1u);
}

TEST(Cdg, DetectsLongCycle) {
  Cdg cdg;
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_TRUE(cdg.add_edge(g(p, 0, 1), g(p + 1, 0, 1)).empty());
  }
  auto cycle = cdg.add_edge(g(4, 0, 1), g(0, 0, 1));
  EXPECT_EQ(cycle.size(), 5u);
}

TEST(Cdg, NoFalseCycleOnDag) {
  Cdg cdg;
  cdg.add_edge(g(0, 0, 1), g(1, 0, 1));
  cdg.add_edge(g(0, 0, 1), g(2, 0, 1));
  EXPECT_TRUE(cdg.add_edge(g(1, 0, 1), g(2, 0, 1)).empty());
  EXPECT_TRUE(cdg.add_edge(g(2, 0, 1), g(3, 0, 1)).empty());
}

TEST(Cdg, RemoveNodeDropsEdges) {
  Cdg cdg;
  cdg.add_edge(g(0, 0, 1), g(1, 0, 1));
  cdg.add_edge(g(1, 0, 1), g(2, 0, 1));
  cdg.remove_node(g(1, 0, 1));
  EXPECT_FALSE(cdg.has_node(g(1, 0, 1)));
  EXPECT_FALSE(cdg.has_edge(g(0, 0, 1), g(1, 0, 1)));
  EXPECT_EQ(cdg.edge_count(), 0u);
  // Removing the middle node breaks the potential cycle.
  EXPECT_TRUE(cdg.add_edge(g(2, 0, 1), g(0, 0, 1)).empty());
}

TEST(Cdg, PredecessorsAndClosure) {
  Cdg cdg;
  cdg.add_edge(g(0, 0, 1), g(1, 0, 1));
  cdg.add_edge(g(2, 0, 1), g(1, 0, 1));
  cdg.add_edge(g(1, 0, 1), g(3, 0, 1));
  auto preds = cdg.predecessors(g(1, 0, 1));
  EXPECT_EQ(preds.size(), 2u);
  auto closure = cdg.closure_from(g(0, 0, 1));
  // 0 -> 1 -> 3: the closure contains all three.
  EXPECT_EQ(closure.size(), 3u);
}

TEST(Cdg, ClosureOfMissingNodeIsEmpty) {
  Cdg cdg;
  EXPECT_TRUE(cdg.closure_from(g(9, 0, 1)).empty());
}

// The reverse edges behind predecessors() and remove_node().

TEST(Cdg, RemovingChainMiddleDetachesBothEnds) {
  const GuessId a = g(0, 0, 1), b = g(1, 0, 1), c = g(2, 0, 1);
  Cdg cdg;
  cdg.add_edge(a, b);
  cdg.add_edge(b, c);
  cdg.remove_node(b);
  EXPECT_TRUE(cdg.predecessors(c).empty());
  EXPECT_EQ(cdg.closure_from(a), std::vector<GuessId>{a});
  EXPECT_EQ(cdg.node_count(), 2u);
  EXPECT_EQ(cdg.edge_count(), 0u);
}

TEST(Cdg, CopyMutatesIndependently) {
  const GuessId a = g(0, 0, 1), b = g(1, 0, 1), c = g(2, 0, 1);
  Cdg original;
  original.add_edge(a, b);
  Cdg copy = original;
  copy.add_edge(c, b);
  copy.remove_node(a);
  EXPECT_EQ(original.predecessors(b), std::vector<GuessId>{a});
  EXPECT_TRUE(original.has_edge(a, b));
  EXPECT_FALSE(original.has_node(c));
  EXPECT_EQ(copy.predecessors(b), std::vector<GuessId>{c});
  EXPECT_FALSE(copy.has_node(a));
  original.remove_node(b);
  EXPECT_EQ(copy.predecessors(b), std::vector<GuessId>{c});
}

TEST(Cdg, EdgeAddedTwiceIsOnePredecessor) {
  const GuessId a = g(0, 0, 1), b = g(1, 0, 1);
  Cdg cdg;
  cdg.add_edge(a, b);
  cdg.add_edge(a, b);
  EXPECT_EQ(cdg.predecessors(b), std::vector<GuessId>{a});
  EXPECT_EQ(cdg.edge_count(), 1u);
  cdg.remove_node(a);
  EXPECT_TRUE(cdg.predecessors(b).empty());
}

// ---- RollbackIndex ----------------------------------------------------------

StateIndex at(std::uint32_t inc, std::uint32_t thread, std::uint32_t interval) {
  return StateIndex{inc, thread, interval};
}

TEST(RollbackIndexDeathTest, AcquiringAHeldGuessFailsACheck) {
  RollbackIndex index;
  index.add(1, g(0, 0, 1), at(0, 0, 2));
  EXPECT_DEATH(index.add(1, g(0, 0, 1), at(0, 1, 3)),
               "a thread acquired a guess twice");
  EXPECT_DEATH(index.add(1, g(0, 0, 1), at(0, 0, 2)),
               "a thread acquired a guess twice");
  // Another thread may hold the same entry (a fork inherits it).
  index.add(2, g(0, 0, 1), at(0, 0, 2));
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.holders(g(0, 0, 1)), (std::vector<std::uint32_t>{1, 2}));
}

// Reference model: each thread's entries as a plain map, with every
// derived view recomputed by a walk over all of them.
using RollbackModel = std::map<std::uint32_t, std::map<GuessId, StateIndex>>;

std::map<std::uint32_t, std::uint32_t> model_targets(const RollbackModel& m) {
  std::set<std::pair<StateIndex, GuessId>> distinct;
  for (const auto& [thread, entries] : m) {
    for (const auto& [guess, point] : entries) distinct.emplace(point, guess);
  }
  std::map<std::uint32_t, std::uint32_t> targets;
  for (const auto& [point, guess] : distinct) ++targets[point.thread];
  return targets;
}

TEST(RollbackIndex, MatchesReferenceUnderRandomOps) {
  constexpr std::uint32_t kThreads = 4;
  std::vector<GuessId> guesses;
  for (ProcessId owner = 0; owner < 3; ++owner) {
    for (std::uint32_t index = 1; index <= 4; ++index) {
      guesses.push_back(g(owner, index % 2, index));
    }
  }
  util::Rng rng(2029);
  const auto pick = [&](std::int64_t n) {
    return static_cast<std::uint32_t>(rng.uniform_int(0, n - 1));
  };
  const auto pick_point = [&](std::uint32_t thread) {
    return at(pick(3), thread, pick(6));
  };
  RollbackIndex index;
  RollbackModel model;
  for (int op = 0; op < 3000; ++op) {
    const std::uint32_t t = pick(kThreads);
    const GuessId guess = guesses[pick(static_cast<std::int64_t>(
        guesses.size()))];
    const auto before = model_targets(model);
    std::set<std::uint32_t> untargeted;
    std::ostringstream what;
    const int kind = static_cast<int>(rng.uniform_int(0, 9));
    if (kind < 5) {
      if (auto it = model.find(t);
          it != model.end() && it->second.count(guess) != 0) {
        continue;  // a thread acquires a guess once
      }
      // Inherit another holder's point (shared entries), or acquire at a
      // point inside the thread or outside it.
      StateIndex point = pick_point(rng.bernoulli(0.5) ? t : pick(kThreads));
      for (const auto& [other, entries] : model) {
        auto it = entries.find(guess);
        if (it != entries.end() && rng.bernoulli(0.5)) point = it->second;
      }
      what << "add T" << t << " " << guess.to_string() << " @"
           << point.to_string();
      index.add(t, guess, point);
      model[t][guess] = point;
    } else if (kind < 7) {
      what << "remove T" << t << " " << guess.to_string();
      index.remove(t, guess, untargeted);
      if (auto it = model.find(t); it != model.end()) {
        it->second.erase(guess);
        if (it->second.empty()) model.erase(it);
      }
    } else if (kind < 8) {
      what << "drop_all T" << t;
      const std::size_t held = model.count(t) ? model[t].size() : 0;
      EXPECT_EQ(index.drop_all(t, untargeted), held);
      model.erase(t);
    } else {
      const StateIndex from = pick_point(t);
      what << "drop_from T" << t << " @" << from.to_string();
      const std::size_t held = model.count(t) ? model[t].size() : 0;
      EXPECT_EQ(index.drop_from(t, from, untargeted), held);
      if (auto it = model.find(t); it != model.end()) {
        std::erase_if(it->second, [&](const auto& entry) {
          return entry.second.thread == t && !(entry.second < from);
        });
        if (it->second.empty()) model.erase(it);
      }
    }
    SCOPED_TRACE("op " + std::to_string(op) + ": " + what.str());

    const auto after = model_targets(model);
    std::set<std::uint32_t> want_untargeted;
    for (const auto& [thread, n] : before) {
      if (after.count(thread) == 0) want_untargeted.insert(thread);
    }
    ASSERT_EQ(untargeted, want_untargeted);
    ASSERT_EQ(index.target_threads(), after);

    std::set<std::pair<StateIndex, GuessId>> distinct;
    for (std::uint32_t thread = 0; thread <= kThreads; ++thread) {
      auto m = model.find(thread);
      const std::map<GuessId, StateIndex> none;
      const auto& want = m == model.end() ? none : m->second;
      ASSERT_EQ(index.entries(thread), want) << "T" << thread;
      ASSERT_EQ(index.targets(thread), after.count(thread) != 0);
      for (const GuessId& h : guesses) {
        auto it = want.find(h);
        const StateIndex* got = index.point(thread, h);
        ASSERT_EQ(got != nullptr, it != want.end()) << h.to_string();
        if (got != nullptr) {
          ASSERT_EQ(*got, it->second) << h.to_string();
        }
      }
      for (const auto& [h, point] : want) distinct.emplace(point, h);
    }
    ASSERT_EQ(index.by_thread().size(), model.size());
    for (const GuessId& h : guesses) {
      std::vector<std::uint32_t> holders;
      for (const auto& [thread, entries] : model) {
        if (entries.count(h) != 0) holders.push_back(thread);
      }
      ASSERT_EQ(index.holders(h), holders) << h.to_string();
    }
    ASSERT_EQ(index.size(), distinct.size());
    ASSERT_EQ(index.empty(), distinct.empty());
    if (!distinct.empty()) {
      ASSERT_EQ(index.begin()->first, *distinct.begin());
    }
  }
}

// ---- Predictors ------------------------------------------------------------

TEST(Predictor, ConstantAlwaysGuessesSame) {
  PredictorState p;
  csp::Env env;
  auto spec = csp::PredictorSpec::always(csp::Value(true));
  EXPECT_EQ(p.guess("s", "v", spec, env), csp::Value(true));
}

TEST(Predictor, ExprEvaluatesOverForkEnv) {
  PredictorState p;
  csp::Env env;
  env.set("i", csp::Value(6));
  auto spec = csp::PredictorSpec::from_expr(csp::var("i"));
  EXPECT_EQ(p.guess("s", "v", spec, env), csp::Value(6));
}

TEST(Predictor, LastCommittedTracksObservations) {
  PredictorState p;
  csp::Env env;
  auto spec = csp::PredictorSpec::last_committed(csp::Value(0));
  EXPECT_EQ(p.guess("s", "v", spec, env), csp::Value(0));
  p.observe("s", "v", csp::Value(42));
  EXPECT_EQ(p.guess("s", "v", spec, env), csp::Value(42));
  // Different site/variable keys are independent.
  EXPECT_EQ(p.guess("other", "v", spec, env), csp::Value(0));
  EXPECT_EQ(p.guess("s", "w", spec, env), csp::Value(0));
}

TEST(Predictor, StrideExtrapolates) {
  PredictorState p;
  csp::Env env;
  auto spec = csp::PredictorSpec::strided(csp::Value(100), 10);
  EXPECT_EQ(p.guess("s", "v", spec, env), csp::Value(100));
  p.observe("s", "v", csp::Value(7));
  EXPECT_EQ(p.guess("s", "v", spec, env), csp::Value(17));
}

// ---- Messages ------------------------------------------------------------

TEST(Messages, DataMessageDescribe) {
  DataMessage m;
  m.data_kind = DataKind::kCall;
  m.op = "Update";
  m.args = {csp::Value(1)};
  m.reqid = 5;
  m.guard.add(g(0, 0, 1));
  EXPECT_EQ(m.kind(), "CALL");
  const std::string d = m.describe();
  EXPECT_NE(d.find("Update"), std::string::npos);
  EXPECT_NE(d.find("g(P0.0.1)"), std::string::npos);
  EXPECT_GT(m.wire_size(), 0u);
}

TEST(Messages, ControlMessageKinds) {
  ControlMessage c;
  c.control = ControlKind::kPrecedence;
  c.subject = g(1, 0, 2);
  c.guard.add(g(0, 0, 1));
  EXPECT_EQ(c.kind(), "PRECEDENCE");
  EXPECT_NE(c.describe().find("g(P1.0.2)"), std::string::npos);
  c.control = ControlKind::kCommit;
  EXPECT_EQ(c.kind(), "COMMIT");
  c.control = ControlKind::kAbort;
  EXPECT_EQ(c.kind(), "ABORT");
}

}  // namespace
}  // namespace ocsp::spec
