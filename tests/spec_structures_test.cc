// Unit tests for the protocol data structures: guesses, commit guard sets
// (section 4.1.5 subsumption), commit histories with incarnation start
// tables (section 4.1.2 implicit aborts), and the commit dependency graph
// (section 4.1.4 cycle detection).
#include <gtest/gtest.h>

#include "speculation/cdg.h"
#include "speculation/guard_set.h"
#include "speculation/history.h"
#include "speculation/messages.h"
#include "speculation/predictor.h"

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
