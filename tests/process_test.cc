// Protocol-level unit tests for SpeculativeProcess: orphan rejection,
// delivery eligibility, guard acquisition, external-output buffering,
// incarnation bumps, and completion detection — exercised through small
// purpose-built runtimes rather than the canonical workloads.
#include <gtest/gtest.h>

#include "baseline/scenario.h"
#include "csp/service.h"
#include "speculation/runtime.h"
#include "transform/transform.h"

namespace ocsp::spec {
namespace {

using csp::lit;
using csp::Value;
using csp::var;

csp::StmtPtr echo_server(sim::Time service = sim::microseconds(10)) {
  std::map<std::string, csp::NativeHandler> handlers;
  handlers["Echo"] = [](const csp::ValueList& args, csp::Env&, util::Rng&) {
    return args[0];
  };
  csp::ServiceConfig sc;
  sc.service_time = service;
  return csp::native_service(std::move(handlers), sc);
}

RuntimeOptions fast_net() {
  RuntimeOptions opts;
  opts.default_link.latency = net::fixed_latency(sim::microseconds(100));
  return opts;
}

// A two-call streamed client with an always-wrong guess on the first call.
csp::StmtPtr wrong_guess_client() {
  csp::StmtPtr prog = csp::seq({
      csp::call("S", "Echo", {lit(Value(1))}, "a"),
      csp::call("S", "Echo", {var("a")}, "b"),
      csp::print(var("b")),
  });
  transform::StreamingOptions opts;
  opts.predictor = [](const csp::CallStmt&) {
    return csp::PredictorSpec::always(Value(-99));
  };
  return transform::stream_calls(prog, opts).program;
}

TEST(Process, GuardAcquisitionVisibleOnServer) {
  Runtime rt(fast_net());
  csp::StmtPtr prog = csp::seq({
      csp::call("S", "Echo", {lit(Value(1))}, "a"),
      csp::call("S", "Echo", {lit(Value(2))}, "b"),
      csp::print(var("b")),
  });
  rt.add_process("X", transform::stream_calls(prog).program);
  const ProcessId server = rt.add_process("S", echo_server());
  rt.run(sim::microseconds(150));  // server received both calls by now
  const ThreadCtx* t0 = rt.process(server).thread(0);
  ASSERT_NE(t0, nullptr);
  // The second call carried {x1}; the server must have acquired it.
  EXPECT_EQ(t0->guard.size(), 1u) << t0->guard.to_string();
  EXPECT_TRUE(t0->guard.contains_owner(0));
  rt.run();
  // After the commits cascade the guard empties again.
  EXPECT_TRUE(rt.process(server).thread(0)->guard.empty());
}

TEST(Process, WrongGuessIsObservedByServerThenRolledBack) {
  Runtime rt(fast_net());
  rt.add_process("X", wrong_guess_client());
  const ProcessId server = rt.add_process("S", echo_server());
  rt.run();
  const auto& stats = rt.process(0).stats();
  // Both streamed calls guess -99 and both echoes disagree.
  EXPECT_EQ(stats.aborts_value_fault, 2u);
  // The server processed the mispredicted Echo(-99) speculatively, rolled
  // back, and re-served the corrected Echo(1).
  EXPECT_GE(rt.process(server).stats().rollbacks, 1u);
  // Committed trace shows only the corrected value.
  bool saw_wrong = false;
  for (const auto& e : rt.process(server).committed_events()) {
    if (e.kind == trace::ObservableEvent::Kind::kReceive &&
        e.data == Value(csp::ValueList{Value(-99)})) {
      saw_wrong = true;
    }
  }
  EXPECT_FALSE(saw_wrong);
  EXPECT_TRUE(rt.process(0).completed());
}

TEST(Process, OrphanMessagesAreDiscarded) {
  Runtime rt(fast_net());
  rt.add_process("X", wrong_guess_client());
  rt.add_process("S", echo_server());
  rt.run();
  EXPECT_GE(rt.total_stats().orphans_discarded, 1u);
}

TEST(Process, ExternalOutputBufferedUntilCommit) {
  Runtime rt(fast_net());
  csp::StmtPtr prog = csp::seq({
      csp::call("S", "Echo", {lit(Value(7))}, "a"),
      csp::print(var("a")),  // runs speculatively in the right thread
  });
  transform::StreamingOptions opts;
  opts.predictor = [](const csp::CallStmt&) {
    return csp::PredictorSpec::always(Value(7));  // exact guess
  };
  rt.add_process("X", transform::stream_calls(prog, opts).program);
  rt.add_process("S", echo_server());
  rt.run();
  const auto& stats = rt.process(0).stats();
  EXPECT_EQ(stats.externals_buffered, 1u);
  EXPECT_EQ(stats.externals_released, 1u);
  EXPECT_EQ(stats.externals_discarded, 0u);
  // The physical release happened at/after the commit, not at the print.
  sim::Time commit_at = -1, release_at = -1;
  for (const auto& e : rt.recorder().events()) {
    if (e.kind == obs::EventKind::kCommit) commit_at = e.when;
    if (e.kind == obs::EventKind::kExternalReleased) release_at = e.when;
  }
  ASSERT_GE(commit_at, 0);
  EXPECT_GE(release_at, commit_at);
}

TEST(Process, MispredictedExternalNeverReleased) {
  Runtime rt(fast_net());
  // The right thread prints the *guessed* value; the guess is wrong, so
  // that output must be discarded, and the re-execution's output released.
  rt.add_process("X", wrong_guess_client());
  rt.add_process("S", echo_server());
  rt.run();
  const auto& stats = rt.process(0).stats();
  EXPECT_GE(stats.externals_discarded, 1u);
  // Exactly one committed output with the correct value 1.
  int outputs = 0;
  for (const auto& e : rt.process(0).committed_events()) {
    if (e.kind == trace::ObservableEvent::Kind::kExternalOutput) {
      ++outputs;
      EXPECT_EQ(e.data, Value(1));
    }
  }
  EXPECT_EQ(outputs, 1);
}

TEST(Process, IncarnationBumpsOnOwnAbort) {
  Runtime rt(fast_net());
  rt.add_process("X", wrong_guess_client());
  rt.add_process("S", echo_server());
  rt.run();
  EXPECT_GE(rt.process(0).current_incarnation(), 1u);
  // A clean run (exact guesses) never bumps.
  Runtime rt2(fast_net());
  csp::StmtPtr prog = csp::seq({
      csp::call("S", "Echo", {lit(Value(1))}, "a"),
      csp::call("S", "Echo", {lit(Value(2))}, "b"),
      csp::print(var("b")),
  });
  transform::StreamingOptions opts;
  opts.predictor = [](const csp::CallStmt& c) {
    // Exact guess for an echo server: the call's own argument.
    return csp::PredictorSpec::from_expr(c.args[0]);
  };
  rt2.add_process("X", transform::stream_calls(prog, opts).program);
  rt2.add_process("S", echo_server());
  rt2.run();
  EXPECT_EQ(rt2.process(0).current_incarnation(), 0u);
}

TEST(Process, CompletionRequiresEmptyGuards) {
  Runtime rt(fast_net());
  csp::StmtPtr prog = csp::seq({
      csp::call("S", "Echo", {lit(Value(1))}, "a"),
      csp::print(var("a")),
  });
  rt.add_process("X", transform::stream_calls(prog).program);
  rt.add_process("S", echo_server());
  // Stop before the return arrives: the right thread is done with the
  // program but guarded, so the process must not be complete.
  rt.run(sim::microseconds(50));
  EXPECT_FALSE(rt.process(0).completed());
  rt.run();
  EXPECT_TRUE(rt.process(0).completed());
  EXPECT_GT(rt.process(0).completion_time(), sim::microseconds(50));
}

TEST(Process, ServerNeverCompletes) {
  Runtime rt(fast_net());
  csp::StmtPtr prog = csp::seq({csp::print(lit(Value("hi")))});
  rt.add_process("X", prog);
  rt.add_process("S", echo_server());
  rt.run();
  EXPECT_TRUE(rt.process(0).completed());
  EXPECT_FALSE(rt.process(1).completed());
  EXPECT_TRUE(rt.all_clients_completed());
}

TEST(Process, LiveThreadCountReflectsForkChain) {
  Runtime rt(fast_net());
  csp::StmtPtr prog = csp::seq({
      csp::call("S", "Echo", {lit(Value(1))}, "a"),
      csp::call("S", "Echo", {lit(Value(2))}, "b"),
      csp::call("S", "Echo", {lit(Value(3))}, "c"),
      csp::print(var("c")),
  });
  rt.add_process("X", transform::stream_calls(prog).program);
  rt.add_process("S", echo_server());
  rt.run(sim::microseconds(10));
  // Three left threads awaiting replies plus the rightmost continuation.
  EXPECT_EQ(rt.process(0).live_thread_count(), 4u);
  rt.run();
  EXPECT_EQ(rt.process(0).live_thread_count(), 0u);
}

TEST(Process, StatsBooksBalance) {
  Runtime rt(fast_net());
  csp::StmtPtr prog = csp::seq({
      csp::call("S", "Echo", {lit(Value(1))}, "a"),
      csp::call("S", "Echo", {var("a")}, "b"),
      csp::call("S", "Echo", {var("b")}, "c"),
      csp::print(var("c")),
  });
  transform::StreamingOptions opts;
  opts.predictor = [](const csp::CallStmt&) {
    return csp::PredictorSpec::from_expr(csp::lit(Value(1)));
  };
  rt.add_process("X", transform::stream_calls(prog, opts).program);
  rt.add_process("S", echo_server());
  rt.run();
  const auto& s = rt.process(0).stats();
  // Every speculative fork either committed or aborted.
  EXPECT_EQ(s.commits + s.total_aborts(), s.forks - s.sequential_forks);
  EXPECT_EQ(s.joins, s.forks);
}

// Completion means every client finished: one client that prints and
// finishes does not make up for another stuck in a receive() nobody
// answers.  The echo server loops forever and is not waited for.
TEST(Process, StalledClientIsNotComplete) {
  Runtime rt(fast_net());
  rt.add_process("Done",
                 csp::seq({csp::call("S", "Echo", {lit(Value(1))}, "a"),
                           csp::print(var("a"))}));
  rt.add_process("Stuck",
                 csp::seq({csp::receive(), csp::print(lit(Value(2)))}));
  rt.add_process("S", echo_server());
  rt.run();
  EXPECT_TRUE(rt.process(rt.find("Done")).completed());
  EXPECT_FALSE(rt.process(rt.find("Stuck")).completed());
  EXPECT_FALSE(rt.all_clients_completed());
}

TEST(Runtime, FindResolvesNames) {
  Runtime rt(fast_net());
  rt.add_process("alpha", csp::seq({csp::nop()}));
  rt.add_process("beta", echo_server());
  EXPECT_EQ(rt.find("alpha"), 0u);
  EXPECT_EQ(rt.find("beta"), 1u);
  EXPECT_EQ(rt.process_count(), 2u);
  EXPECT_EQ(rt.all_process_ids().size(), 2u);
}

TEST(Runtime, PerProcessSpecOverride) {
  RuntimeOptions opts = fast_net();
  opts.spec.speculation_enabled = true;
  Runtime rt(opts);
  SpecConfig off = opts.spec;
  off.speculation_enabled = false;
  csp::StmtPtr prog = csp::seq({
      csp::call("S", "Echo", {lit(Value(1))}, "a"),
      csp::call("S", "Echo", {lit(Value(2))}, "b"),
      csp::print(var("b")),
  });
  rt.add_process("X", transform::stream_calls(prog).program, {}, off);
  rt.add_process("S", echo_server());
  rt.run();
  EXPECT_TRUE(rt.process(0).completed());
  EXPECT_EQ(rt.process(0).stats().sequential_forks,
            rt.process(0).stats().forks);
}

}  // namespace
}  // namespace ocsp::spec
