// Unit tests for the "compiler": hint expansion and the call streaming
// pass.  The def/use analysis they rest on is tested in analysis_test.
#include <gtest/gtest.h>

#include "transform/transform.h"

namespace ocsp::transform {
namespace {

using csp::assign;
using csp::call;
using csp::lit;
using csp::seq;
using csp::StmtKind;
using csp::Value;
using csp::var;

// ---- Fork insertion ------------------------------------------------------------

const csp::ForkStmt* find_fork(const csp::StmtPtr& stmt) {
  if (stmt == nullptr) return nullptr;
  if (stmt->kind == StmtKind::kFork) {
    return static_cast<const csp::ForkStmt*>(stmt.get());
  }
  if (stmt->kind == StmtKind::kSeq) {
    for (const auto& c : static_cast<const csp::SeqStmt&>(*stmt).body) {
      if (const auto* f = find_fork(c)) return f;
    }
  }
  if (stmt->kind == StmtKind::kWhile) {
    return find_fork(static_cast<const csp::WhileStmt&>(*stmt).body);
  }
  if (stmt->kind == StmtKind::kIf) {
    const auto& s = static_cast<const csp::IfStmt&>(*stmt);
    if (const auto* f = find_fork(s.then_branch)) return f;
    return find_fork(s.else_branch);
  }
  return nullptr;
}

TEST(ForkInsertion, ExpandsHintIntoFork) {
  std::map<std::string, csp::PredictorSpec> preds;
  preds.emplace("ok", csp::PredictorSpec::always(Value(true)));
  auto prog = seq({
      assign("pre", lit(Value(0))),
      call("S", "Op", {}, "ok"),
      csp::hint(preds, "mysite"),
      csp::print(var("ok")),
      assign("post", lit(Value(1))),
  });
  auto result = insert_forks(prog);
  EXPECT_EQ(result.forks_inserted, 1u);
  const auto* f = find_fork(result.program);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->site, "mysite");
  EXPECT_EQ(f->passed, (std::vector<std::string>{"ok"}));
  EXPECT_EQ(f->left->kind, StmtKind::kCall);
  // S2 contains both the print and the trailing assign.
  ASSERT_EQ(f->right->kind, StmtKind::kSeq);
  EXPECT_EQ(static_cast<const csp::SeqStmt&>(*f->right).body.size(), 2u);
}

TEST(ForkInsertion, SpanWidensS1) {
  std::map<std::string, csp::PredictorSpec> preds;
  preds.emplace("b", csp::PredictorSpec::always(Value(1)));
  auto prog = seq({
      assign("a", lit(Value(1))),
      assign("b", var("a")),
      csp::hint(preds, "s", /*span=*/2),
      csp::print(var("b")),
  });
  auto result = insert_forks(prog);
  const auto* f = find_fork(result.program);
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(f->left->kind, StmtKind::kSeq);
  EXPECT_EQ(static_cast<const csp::SeqStmt&>(*f->left).body.size(), 2u);
}

TEST(ForkInsertion, AutomaticPassedSetInference) {
  auto prog = seq({
      call("S", "Op", {}, "r"),
      csp::hint({}, "auto"),
      csp::print(var("r")),
  });
  auto result = insert_forks(prog);
  const auto* f = find_fork(result.program);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->passed, (std::vector<std::string>{"r"}));
  EXPECT_EQ(f->predictors.at("r").kind,
            csp::PredictorSpec::Kind::kLastCommitted);
}

TEST(ForkInsertion, HintInsideLoopBody) {
  std::map<std::string, csp::PredictorSpec> preds;
  preds.emplace("r", csp::PredictorSpec::always(Value(0)));
  auto prog = seq({
      csp::while_(lit(Value(false)),
                  seq({
                      call("S", "Op", {}, "r"),
                      csp::hint(preds, "loop"),
                      csp::print(var("r")),
                  })),
  });
  auto result = insert_forks(prog);
  EXPECT_EQ(result.forks_inserted, 1u);
  EXPECT_NE(find_fork(result.program), nullptr);
}

TEST(ForkInsertion, MultipleHintsRightBranch) {
  std::map<std::string, csp::PredictorSpec> p1, p2;
  p1.emplace("a", csp::PredictorSpec::always(Value(1)));
  p2.emplace("b", csp::PredictorSpec::always(Value(2)));
  auto prog = seq({
      call("S", "Op", {}, "a"),
      csp::hint(p1, "h1"),
      call("S", "Op", {}, "b"),
      csp::hint(p2, "h2"),
      csp::print(var("b")),
  });
  auto result = insert_forks(prog);
  EXPECT_EQ(result.forks_inserted, 2u);
  const auto* outer = find_fork(result.program);
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->site, "h1");
  // The second fork lives inside the first fork's right branch.
  const auto* inner = find_fork(outer->right);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->site, "h2");
}

TEST(ForkInsertion, NoHintNoChange) {
  auto prog = seq({assign("x", lit(Value(1)))});
  auto result = insert_forks(prog);
  EXPECT_EQ(result.forks_inserted, 0u);
  EXPECT_EQ(find_fork(result.program), nullptr);
}

TEST(ForkInsertion, AntiDependencySetsNeedsCopy) {
  std::map<std::string, csp::PredictorSpec> preds;
  preds.emplace("r", csp::PredictorSpec::always(Value(0)));
  // S1 reads "shared"; S2 overwrites it -> copy required.
  auto prog = seq({
      call("S", "Op", {var("shared")}, "r"),
      csp::hint(preds, "anti"),
      assign("shared", lit(Value(0))),
  });
  // Keep the result alive: find_fork points into its program.
  const auto result = insert_forks(prog);
  const auto* f = find_fork(result.program);
  ASSERT_NE(f, nullptr);
  EXPECT_TRUE(f->needs_copy);

  auto prog2 = seq({
      call("S", "Op", {var("shared")}, "r"),
      csp::hint(preds, "noanti"),
      csp::print(var("r")),
  });
  const auto result2 = insert_forks(prog2);
  const auto* f2 = find_fork(result2.program);
  ASSERT_NE(f2, nullptr);
  EXPECT_FALSE(f2->needs_copy);
}

// ---- Call streaming ------------------------------------------------------------

TEST(Streaming, ConvertsCallSequenceToForkChain) {
  auto prog = seq({
      call("S", "A", {}, "r1"),
      call("S", "B", {}, "r2"),
      csp::print(var("r2")),
  });
  auto result = stream_calls(prog);
  EXPECT_EQ(result.calls_streamed, 2u);
  const auto* outer = find_fork(result.program);
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->left->kind, StmtKind::kCall);
  EXPECT_FALSE(outer->needs_copy);  // streaming never has anti-deps
  const auto* inner = find_fork(outer->right);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->left->kind, StmtKind::kCall);
}

TEST(Streaming, LastCallWithoutContinuationNotStreamed) {
  auto prog = seq({call("S", "A", {}, "r")});
  auto result = stream_calls(prog);
  EXPECT_EQ(result.calls_streamed, 0u);
}

TEST(Streaming, FilterSelectsCalls) {
  auto prog = seq({
      call("S", "A", {}, "r1"),
      call("T", "B", {}, "r2"),
      csp::print(var("r2")),
  });
  StreamingOptions opts;
  opts.filter = [](const csp::CallStmt& c) { return c.target == "T"; };
  auto result = stream_calls(prog, opts);
  EXPECT_EQ(result.calls_streamed, 1u);
  const auto* f = find_fork(result.program);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(static_cast<const csp::CallStmt&>(*f->left).target, "T");
}

TEST(Streaming, SiteNamesAreStable) {
  auto prog = seq({
      call("S", "A", {}, "r1"),
      call("S", "A", {}, "r2"),
      csp::print(var("r2")),
  });
  auto result = stream_calls(prog);
  const auto* f = find_fork(result.program);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->site.rfind("stream:S.A", 0), 0u) << f->site;
}

TEST(Streaming, StreamsInsideLoops) {
  auto prog = seq({
      csp::while_(lit(Value(true)),
                  seq({
                      call("S", "A", {}, "r"),
                      assign("i", var("r")),
                  })),
  });
  auto result = stream_calls(prog);
  EXPECT_EQ(result.calls_streamed, 1u);
}

TEST(Streaming, PredictorOptionOverridesDefault) {
  auto prog = seq({
      call("S", "A", {}, "r"),
      csp::print(var("r")),
  });
  StreamingOptions opts;
  opts.predictor = [](const csp::CallStmt&) {
    return csp::PredictorSpec::always(Value(123));
  };
  const auto result = stream_calls(prog, opts);
  const auto* f = find_fork(result.program);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->predictors.at("r").constant, Value(123));
}

}  // namespace
}  // namespace ocsp::transform
