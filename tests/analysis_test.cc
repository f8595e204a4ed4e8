// Unit tests for the static interference analyzer: communication-effect
// computation, fork-site classification, and the machine-readable report.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/classify.h"
#include "analysis/effects.h"
#include "transform/transform.h"
#include "util/json.h"

namespace ocsp::analysis {
namespace {

using csp::assign;
using csp::call;
using csp::call_dyn;
using csp::hint;
using csp::if_;
using csp::lit;
using csp::print;
using csp::seq;
using csp::send;
using csp::Value;
using csp::var;
using csp::while_;

const Finding* find_code(const std::vector<Finding>& findings,
                         const std::string& code) {
  for (const auto& f : findings) {
    if (f.code == code) return &f;
  }
  return nullptr;
}

// ---- Communication effects -----------------------------------------------

TEST(Effects, CallIsMayAndMustTarget) {
  CommEffects e = analyze_effects(call("S", "Op", {var("x")}, "r"));
  EXPECT_TRUE(e.may_call_targets.count("S"));
  EXPECT_TRUE(e.must_call_targets.count("S"));
  EXPECT_TRUE(e.reads.count("x"));
  EXPECT_TRUE(e.writes.count("r"));
  EXPECT_FALSE(e.opaque);
  EXPECT_FALSE(e.unknown_target);
}

TEST(Effects, IfWidensMayIntersectsMust) {
  // The same call on both branches stays a must; a branch-only send is
  // may-only.
  auto s = if_(var("c"),
               seq({call("S", "Op", {}, "r"), send("A", "Put", {})}),
               call("S", "Op", {}, "r"));
  CommEffects e = analyze_effects(s);
  EXPECT_TRUE(e.must_call_targets.count("S"));
  EXPECT_TRUE(e.may_send_targets.count("A"));
  EXPECT_FALSE(e.must_send_targets.count("A"));
  EXPECT_TRUE(e.reads.count("c"));
}

TEST(Effects, IfWithoutElseDropsMust) {
  CommEffects e = analyze_effects(if_(var("c"), call("S", "Op", {}, "r")));
  EXPECT_TRUE(e.may_call_targets.count("S"));
  EXPECT_TRUE(e.must_call_targets.empty());
}

TEST(Effects, WhileBodyIsMayOnly) {
  auto s = while_(var("c"), seq({call("S", "Op", {}, "r"), print(var("r"))}));
  CommEffects e = analyze_effects(s);
  EXPECT_TRUE(e.may_call_targets.count("S"));
  EXPECT_TRUE(e.must_call_targets.empty());
  EXPECT_TRUE(e.may_print);
  EXPECT_FALSE(e.must_print);
}

TEST(Effects, NativeIsOpaque) {
  CommEffects e =
      analyze_effects(csp::native("n", [](csp::Env&, util::Rng&) {}));
  EXPECT_TRUE(e.opaque);
  EXPECT_TRUE(e.targets_unknowable());
}

TEST(Effects, DynamicTargetIsUnknowableAndReadsItsExpression) {
  for (const auto& s : {call_dyn(var("dest"), "Op", {var("x")}, "r"),
                        csp::send_dyn(var("dest"), "Put", {var("x")})}) {
    CommEffects e = analyze_effects(s);
    EXPECT_TRUE(e.unknown_target);
    EXPECT_TRUE(e.targets_unknowable());
    EXPECT_TRUE(e.reads.count("dest"));
    EXPECT_TRUE(e.reads.count("x"));
  }
}

TEST(Effects, ControlFlowCollectsBothBranches) {
  CommEffects e = analyze_effects(
      if_(var("c"), assign("x", lit(Value(1))), assign("y", var("z"))));
  EXPECT_TRUE(e.reads.count("c"));
  EXPECT_TRUE(e.reads.count("z"));
  EXPECT_TRUE(e.writes.count("x"));
  EXPECT_TRUE(e.writes.count("y"));
}

TEST(Effects, ReceiveWritesMetadataVars) {
  CommEffects e = analyze_effects(csp::receive());
  EXPECT_TRUE(e.writes.count("__op"));
  EXPECT_TRUE(e.writes.count("__args"));
  EXPECT_TRUE(e.writes.count("__caller"));
}

TEST(Effects, SeqMergesMustAcrossStatements) {
  CommEffects e = analyze_effects(
      seq({call("A", "Op", {}, "r"), send("B", "Put", {var("r")})}));
  EXPECT_TRUE(e.must_call_targets.count("A"));
  EXPECT_TRUE(e.must_send_targets.count("B"));
  // r is written before it is read; the read still registers (the effect
  // sets are flow-insensitive).
  EXPECT_TRUE(e.reads.count("r"));
}

// ---- Classification ------------------------------------------------------

TEST(Classify, DisjointHalvesAreSafe) {
  std::vector<Finding> findings;
  auto s1 = call("A", "Op", {lit(Value(1))}, "ra");
  auto s2 = seq({call("B", "Op", {lit(Value(2))}, "rb"), print(lit(Value(0)))});
  SiteReport rep =
      classify_split(s1, s2, CommEffects{}, {}, "site", true, findings);
  EXPECT_EQ(rep.cls, ForkClass::kSafe);
  EXPECT_TRUE(rep.passed.empty());
  EXPECT_FALSE(rep.has_anti_dependency);
  EXPECT_NE(find_code(findings, "proven-safe"), nullptr);
}

TEST(Classify, PassedVariableMakesSpeculative) {
  std::vector<Finding> findings;
  auto s1 = call("A", "Op", {}, "r");
  auto s2 = print(var("r"));
  SiteReport rep =
      classify_split(s1, s2, CommEffects{}, {}, "site", true, findings);
  EXPECT_EQ(rep.cls, ForkClass::kSpeculative);
  EXPECT_EQ(rep.passed, (std::vector<std::string>{"r"}));
}

TEST(Classify, SharedTargetRejectsAutomaticButWarnsDeclared) {
  auto s1 = call("S", "Op", {}, "a");
  auto s2 = call("S", "Op", {}, "b");

  std::vector<Finding> auto_findings;
  SiteReport auto_rep = classify_split(s1, s2, CommEffects{}, {}, "auto",
                                       true, auto_findings);
  EXPECT_EQ(auto_rep.cls, ForkClass::kReject);
  const Finding* f = find_code(auto_findings, "certain-time-fault");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);

  std::map<std::string, csp::PredictorSpec> declared;
  declared.emplace("a", csp::PredictorSpec::always(Value(0)));
  std::vector<Finding> decl_findings;
  SiteReport decl_rep = classify_split(s1, s2, CommEffects{}, declared,
                                       "declared", true, decl_findings);
  EXPECT_EQ(decl_rep.cls, ForkClass::kSpeculative);
  f = find_code(decl_findings, "certain-time-fault");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kWarning);
}

TEST(Classify, AntiDependencyBlocksSafe) {
  std::vector<Finding> findings;
  auto s1 = call("A", "Op", {var("shared")}, "r");
  auto s2 = assign("shared", lit(Value(1)));
  SiteReport rep =
      classify_split(s1, s2, CommEffects{}, {}, "site", true, findings);
  EXPECT_EQ(rep.cls, ForkClass::kSpeculative);
  EXPECT_TRUE(rep.has_anti_dependency);
}

TEST(Classify, ContinuationWriteBlocksSafe) {
  // S1 reads a variable the continuation (e.g. the next loop iteration)
  // overwrites: running them concurrently races the read.
  std::vector<Finding> findings;
  auto s1 = call("A", "Op", {var("i")}, "r");
  auto s2 = call("B", "Op", {}, "s");
  CommEffects cont;
  cont.writes.insert("i");
  SiteReport rep = classify_split(s1, s2, cont, {}, "site", true, findings);
  EXPECT_EQ(rep.cls, ForkClass::kSpeculative);
}

TEST(Classify, UndeclaredPassedVariableWarns) {
  auto s1 = call("A", "Op", {}, "r");
  auto s2 = print(var("r"));
  std::map<std::string, csp::PredictorSpec> declared;
  declared.emplace("other", csp::PredictorSpec::always(Value(0)));
  std::vector<Finding> findings;
  SiteReport rep =
      classify_split(s1, s2, CommEffects{}, declared, "site", true, findings);
  EXPECT_EQ(rep.cls, ForkClass::kSpeculative);
  EXPECT_NE(find_code(findings, "undeclared-passed-variable"), nullptr);
}

// ---- Refusals through the fork-insertion pass ----------------------------

TEST(ForkInsertionDiagnostics, OpaqueAutomaticHintRefusedNotCrashed) {
  auto prog = seq({
      csp::native("mystery", [](csp::Env&, util::Rng&) {}),
      hint({}, "opq"),
      print(lit(Value(1))),
  });
  transform::ForkInsertionResult result = transform::insert_forks(prog);
  EXPECT_EQ(result.forks_inserted, 0u);
  EXPECT_EQ(result.rejected_sites, 1u);
  const Finding* f = find_code(result.findings, "opaque-fragment");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_FALSE(f->suggestion.empty());
}

TEST(ForkInsertionDiagnostics, MalformedSpanRefused) {
  auto prog = seq({
      call("A", "Op", {}, "r"),
      hint({}, "wide", /*span=*/5),
      print(lit(Value(1))),
  });
  transform::ForkInsertionResult result = transform::insert_forks(prog);
  EXPECT_EQ(result.forks_inserted, 0u);
  EXPECT_NE(find_code(result.findings, "malformed-span"), nullptr);
}

TEST(ForkInsertionDiagnostics, MisplacedHintRefused) {
  auto prog = seq({if_(var("c"), hint({}, "floating"))});
  transform::ForkInsertionResult result = transform::insert_forks(prog);
  EXPECT_EQ(result.forks_inserted, 0u);
  EXPECT_NE(find_code(result.findings, "misplaced-hint"), nullptr);
}

TEST(ForkInsertionDiagnostics, LoopCarriedAutomaticHintRefused) {
  // S1 writes x; the static S2 never reads it but the next iteration's call
  // argument does — invisible to the static split, so automatic mode must
  // refuse.
  auto prog = seq({
      while_(var("c"), seq({
                           call("S", "Op", {var("x")}, "x"),
                           hint({}, "lc"),
                           print(lit(Value(1))),
                       })),
  });
  transform::ForkInsertionResult result = transform::insert_forks(prog);
  EXPECT_EQ(result.forks_inserted, 0u);
  EXPECT_EQ(result.rejected_sites, 1u);
  EXPECT_NE(find_code(result.findings, "loop-carried-dependence"), nullptr);
}

TEST(ForkInsertionDiagnostics, SafeSiteElidesStateMachinery) {
  auto prog = seq({
      call("A", "Op", {lit(Value(1))}, "ra"),
      hint({}, "fan"),
      call("B", "Op", {lit(Value(2))}, "rb"),
      print(lit(Value(0))),
  });
  transform::ForkInsertionResult result = transform::insert_forks(prog);
  EXPECT_EQ(result.forks_inserted, 1u);
  EXPECT_EQ(result.safe_sites, 1u);
  ASSERT_EQ(result.program->kind, csp::StmtKind::kSeq);
  const auto& body =
      static_cast<const csp::SeqStmt&>(*result.program).body;
  ASSERT_FALSE(body.empty());
  ASSERT_EQ(body[0]->kind, csp::StmtKind::kFork);
  const auto& f = static_cast<const csp::ForkStmt&>(*body[0]);
  EXPECT_EQ(f.mode, csp::ForkMode::kSafe);
  EXPECT_TRUE(f.passed.empty());
  EXPECT_TRUE(f.predictors.empty());
  EXPECT_FALSE(f.needs_copy);
}

// ---- Whole-program reports -----------------------------------------------

TEST(ProgramReport, NestedHintInsideIfClassifies) {
  auto prog = seq({
      if_(var("c"), seq({
                        call("A", "Op", {}, "r"),
                        hint({}, "in-if"),
                        call("B", "Op", {}, "s"),
                    })),
  });
  ProgramReport rep = analyze_program(prog, "nested-if");
  ASSERT_EQ(rep.sites.size(), 1u);
  EXPECT_EQ(rep.sites[0].site, "in-if");
  EXPECT_EQ(rep.sites[0].cls, ForkClass::kSafe);
  EXPECT_FALSE(rep.has_errors());
}

TEST(ProgramReport, NestedHintInsideWhileSeesLaterIterations) {
  auto prog = seq({
      while_(var("c"), seq({
                           call("S", "Op", {var("x")}, "x"),
                           hint({}, "lc"),
                           print(lit(Value(1))),
                       })),
  });
  ProgramReport rep = analyze_program(prog, "loop");
  ASSERT_EQ(rep.sites.size(), 1u);
  EXPECT_EQ(rep.sites[0].cls, ForkClass::kReject);
  EXPECT_TRUE(rep.has_errors());
  EXPECT_NE(find_code(rep.findings, "loop-carried-dependence"), nullptr);
}

TEST(ProgramReport, ExistingForkIsWarnedNotRejected) {
  // The same interfering shape on an already-inserted fork (from_hint =
  // false) must stay a warning: the runtime survives it via retries.
  auto f = csp::fork(call("S", "Op", {}, "a"),
                     call("S", "Op", {}, "b"), {"a"},
                     {{"a", csp::PredictorSpec::always(Value(0))}}, "site");
  ProgramReport rep = analyze_program(seq({f}), "existing");
  ASSERT_EQ(rep.sites.size(), 1u);
  EXPECT_EQ(rep.sites[0].cls, ForkClass::kSpeculative);
  EXPECT_FALSE(rep.has_errors());
  const Finding* w = find_code(rep.findings, "certain-time-fault");
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->severity, Severity::kWarning);
}

TEST(ProgramReport, ElidableSpeculativeForkGetsInfoFinding) {
  auto f = csp::fork(call("A", "Op", {}, "ra"),
                     call("B", "Op", {}, "rb"), {}, {}, "elidable");
  ProgramReport rep = analyze_program(seq({f}), "elide");
  EXPECT_NE(find_code(rep.findings, "elidable-site"), nullptr);
  EXPECT_FALSE(rep.has_errors());
}

// The elidable-site finding must carry the concrete fork-mode change and
// survive the JSON round trip, so downstream tooling can apply it without
// re-deriving the classification.
TEST(ProgramReport, ElidableSiteSuggestedModeRoundTrips) {
  auto f = csp::fork(call("A", "Op", {}, "ra"),
                     call("B", "Op", {}, "rb"), {}, {}, "elidable");
  ProgramReport rep = analyze_program(seq({f}), "elide");
  const Finding* fd = find_code(rep.findings, "elidable-site");
  ASSERT_NE(fd, nullptr);
  EXPECT_EQ(fd->suggested_mode, "safe");
  EXPECT_NE(fd->suggestion.find("reclassify"), std::string::npos);

  util::JsonWriter w;
  rep.write_json(w);
  auto parsed = util::json_parse(w.str());
  ASSERT_TRUE(parsed.has_value());
  const util::JsonValue* findings = parsed->find("findings");
  ASSERT_NE(findings, nullptr);
  bool saw = false;
  for (const auto& j : findings->array) {
    if (j.find("code")->string != "elidable-site") continue;
    saw = true;
    EXPECT_EQ(j.find("suggested_mode")->string, "safe");
  }
  EXPECT_TRUE(saw);
}

TEST(ProgramReport, JsonRoundTrips) {
  auto prog = seq({
      call("A", "Op", {}, "ra"),
      hint({}, "safe-site"),
      call("B", "Op", {}, "rb"),
      print(var("rb")),
  });
  ProgramReport rep = analyze_program(prog, "roundtrip");
  util::JsonWriter w;
  rep.write_json(w);
  auto parsed = util::json_parse(w.str());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_object());
  EXPECT_EQ(parsed->find("program")->string, "roundtrip");
  const util::JsonValue* summary = parsed->find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->find("sites")->number, 1.0);
  const util::JsonValue* sites = parsed->find("sites");
  ASSERT_NE(sites, nullptr);
  ASSERT_EQ(sites->array.size(), 1u);
  EXPECT_EQ(sites->array[0].find("site")->string, "safe-site");
  const util::JsonValue* left = sites->array[0].find("left");
  ASSERT_NE(left, nullptr);
  ASSERT_EQ(left->find("calls")->array.size(), 1u);
  EXPECT_EQ(left->find("calls")->array[0].string, "A");
  const util::JsonValue* findings = parsed->find("findings");
  ASSERT_NE(findings, nullptr);
  for (const auto& f : findings->array) {
    EXPECT_TRUE(f.find("severity")->is_string());
    EXPECT_TRUE(f.find("code")->is_string());
  }
}

}  // namespace
}  // namespace ocsp::analysis
