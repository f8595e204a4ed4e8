// Liveness machinery of section 3.3: the left-thread timeout, the retry
// limit L with pessimistic fallback, and the control-plane retry needed on
// lossy links ("the broadcast must be live in the sense that if repeated
// broadcasts are made, a message will eventually be delivered").
#include <gtest/gtest.h>

#include "core/workloads.h"
#include "exec/parallel.h"
#include "speculation/messages.h"
#include "transform/transform.h"

namespace ocsp {
namespace {

using csp::lit;
using csp::Value;
using csp::var;

// A client whose streamed call is *always* mispredicted: the echo server
// returns the argument, the predictor insists on -1.
baseline::Scenario always_wrong_scenario(int calls, int retry_limit) {
  csp::StmtPtr client = csp::seq({
      csp::assign("i", lit(Value(0))),
      csp::assign("r", lit(Value(0))),
      csp::while_(csp::lt(var("i"), lit(Value(calls))),
                  csp::seq({
                      csp::call("S", "Echo", {var("i")}, "r"),
                      csp::assign("i", csp::add(var("i"), lit(Value(1)))),
                  })),
      csp::print(csp::list_of({lit(Value("done")), var("r")})),
  });
  transform::StreamingOptions opts;
  opts.predictor = [](const csp::CallStmt&) {
    return csp::PredictorSpec::always(Value(-1));
  };
  client = transform::stream_calls(client, opts).program;

  std::map<std::string, csp::NativeHandler> handlers;
  handlers["Echo"] = [](const csp::ValueList& args, csp::Env&, util::Rng&) {
    return args[0];
  };
  csp::ServiceConfig sc;
  sc.service_time = sim::microseconds(10);

  baseline::Scenario scenario;
  scenario.options.default_link.latency =
      net::fixed_latency(sim::microseconds(100));
  scenario.options.spec.retry_limit = retry_limit;
  scenario.add("X", std::move(client));
  scenario.add("S", csp::native_service(std::move(handlers), sc));
  return scenario;
}

TEST(Liveness, RetryLimitFallsBackToPessimistic) {
  auto scenario = always_wrong_scenario(10, /*retry_limit=*/2);
  auto result = baseline::run_scenario(scenario, true);
  ASSERT_TRUE(result.all_completed) << result.stats.to_string();
  // Every speculative attempt value-faults; after L=2 consecutive aborts
  // the site must execute pessimistically.
  EXPECT_GE(result.stats.aborts_value_fault, 2u);
  EXPECT_GE(result.stats.sequential_forks, 6u) << result.stats.to_string();
}

TEST(Liveness, RetryLimitPreservesTrace) {
  auto scenario = always_wrong_scenario(6, 1);
  auto pessimistic = baseline::run_scenario(scenario, false);
  auto optimistic = baseline::run_scenario(scenario, true);
  ASSERT_TRUE(pessimistic.all_completed);
  ASSERT_TRUE(optimistic.all_completed);
  std::string why;
  EXPECT_TRUE(
      trace::compare_traces(pessimistic.trace, optimistic.trace, &why))
      << why;
}

TEST(Liveness, SlowServerTriggersForkTimeoutAbort) {
  core::PutLineParams p;
  p.lines = 2;
  p.net.latency = sim::microseconds(100);
  p.service_time = sim::milliseconds(20);  // reply far beyond the timeout
  p.spec.fork_timeout = sim::milliseconds(5);
  auto scenario = core::putline_scenario(p);
  auto result = baseline::run_scenario(scenario, true);
  ASSERT_TRUE(result.all_completed) << result.stats.to_string();
  EXPECT_GE(result.stats.aborts_timeout, 1u) << result.stats.to_string();
  // Trace must still match the sequential run.
  auto pessimistic = baseline::run_scenario(scenario, false);
  std::string why;
  EXPECT_TRUE(trace::compare_traces(pessimistic.trace, result.trace, &why))
      << why;
}

baseline::Scenario lossy_control_scenario(bool retry) {
  core::PutLineParams p;
  p.lines = 5;
  p.net.latency = sim::microseconds(200);
  p.spec.control_retry = retry;
  p.spec.control_retry_interval = sim::milliseconds(2);
  p.spec.control_retry_limit = 30;
  // Give up reasonably fast when a guard can never resolve.
  p.spec.join_wait_timeout = sim::milliseconds(50);
  auto scenario = core::putline_scenario(p);
  net::LinkConfig lossy = core::make_link(p.net);
  lossy.drop_probability = 0.7;
  lossy.drop_filter = [](const net::Message& m) {
    return dynamic_cast<const spec::ControlMessage*>(&m) != nullptr;
  };
  scenario.links.push_back({"X", "Y", lossy});
  return scenario;
}

TEST(Liveness, LossyControlPlaneWithRetryCompletes) {
  auto scenario = lossy_control_scenario(/*retry=*/true);
  auto result =
      baseline::run_scenario(scenario, true, sim::seconds(30));
  EXPECT_TRUE(result.all_completed) << result.stats.to_string();
}

TEST(Liveness, LossyControlPlaneRunsStayCorrect) {
  auto scenario = lossy_control_scenario(/*retry=*/true);
  auto pessimistic = baseline::run_scenario(scenario, false, sim::seconds(30));
  auto optimistic = baseline::run_scenario(scenario, true, sim::seconds(30));
  ASSERT_TRUE(pessimistic.all_completed);
  ASSERT_TRUE(optimistic.all_completed);
  std::string why;
  EXPECT_TRUE(
      trace::compare_traces(pessimistic.trace, optimistic.trace, &why))
      << why;
}

TEST(Liveness, ControlRetryExhaustionStallsPeerFlushButNeverCorrupts) {
  // Loss so heavy that all copies of a control broadcast are likely lost
  // within a 2-message retry budget.  In putline the client owns every
  // guess and resolves it locally, so exhaustion does not abort the owner;
  // the failure mode is on the *receiver*: the server never learns COMMIT
  // for some guesses, so its guarded events stay buffered.  Degradation
  // must be graceful — what the server did flush is a faithful prefix of
  // the sequential run, and the owner's trace is untouched.
  auto scenario = lossy_control_scenario(/*retry=*/true);
  scenario.options.spec.control_retry_limit = 2;
  for (auto& link : scenario.links) link.config.drop_probability = 0.9;
  auto result = baseline::run_scenario(scenario, true, sim::seconds(30));
  ASSERT_TRUE(result.all_completed) << result.stats.to_string();
  auto pessimistic =
      baseline::run_scenario(scenario, false, sim::seconds(30));
  ASSERT_TRUE(pessimistic.all_completed);
  // The owner (process 0) commits locally; its observable sequence is exact.
  std::string why;
  EXPECT_TRUE(trace::compare_process_trace(pessimistic.trace, result.trace,
                                           ProcessId{0}, &why))
      << why;
  // The receiver (process 1) stalls once the budget is exhausted: fewer
  // events flush than in the sequential run...
  const auto& ref = pessimistic.trace.for_process(ProcessId{1});
  const auto& got = result.trace.for_process(ProcessId{1});
  EXPECT_LT(got.size(), ref.size())
      << "a 2-copy budget at 90% loss should strand at least one COMMIT";
  // ...but every event that did flush matches the sequential run in order
  // and value (prefix property — exhaustion truncates, never corrupts).
  ASSERT_LE(got.size(), ref.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], ref[i]) << "event " << i << ": "
                              << trace::to_string(got[i]) << " vs "
                              << trace::to_string(ref[i]);
  }
  // Restoring an adequate budget on the very same lossy link recovers full
  // trace equality (LossyControlPlaneRunsStayCorrect covers the default).
  scenario.options.spec.control_retry_limit = 30;
  auto recovered = baseline::run_scenario(scenario, true, sim::seconds(30));
  ASSERT_TRUE(recovered.all_completed) << recovered.stats.to_string();
  EXPECT_TRUE(trace::compare_traces(pessimistic.trace, recovered.trace, &why))
      << why;
}

TEST(Liveness, RetryLimitFallsBackUnderSustainedDataLoss) {
  // Data-plane loss with the reliable transport on: retransmissions keep
  // every call alive, but the retransmit delay blows repeated fork
  // timeouts at the streamed site until retry limit L demotes it.
  core::PutLineParams p;
  p.lines = 8;
  p.net.latency = sim::microseconds(200);
  p.service_time = sim::microseconds(100);
  p.spec.fork_timeout = sim::milliseconds(2);
  p.spec.retry_limit = 2;
  p.spec.control_retry = true;
  p.spec.control_retry_interval = sim::milliseconds(2);
  auto scenario = core::putline_scenario(p);
  scenario.options.reliable.enabled = true;
  scenario.options.reliable.rto_initial = sim::milliseconds(4);
  scenario.options.fault_plan.enabled = true;
  scenario.options.fault_plan.data.drop = 0.6;
  auto result = baseline::run_scenario(scenario, true, sim::seconds(30));
  ASSERT_TRUE(result.all_completed) << result.stats.to_string();
  EXPECT_GT(result.metrics.counter_or("retransmissions"), 0u);
  EXPECT_GE(result.stats.aborts_timeout, 1u) << result.stats.to_string();
  EXPECT_GE(result.stats.sequential_forks, 1u) << result.stats.to_string();
  // The fault-free sequential run is the Theorem 1 reference.
  auto reference =
      baseline::run_scenario(core::putline_scenario(p), false);
  ASSERT_TRUE(reference.all_completed);
  std::string why;
  EXPECT_TRUE(trace::compare_traces(reference.trace, result.trace, &why))
      << why;
}

// A join left waiting on a guard gives up after join_wait_timeout: the
// waiting guess aborts, and S2 re-executes from the left thread's final
// state.  Figure 6 has one join that waits (Z's, on x1); Figure 7 has two.
TEST(Liveness, JoinWaitTimeoutAbortsAndReexecutes) {
  for (bool crossing : {false, true}) {
    core::MutualParams p;
    p.crossing = crossing;
    p.spec.join_wait_timeout = sim::microseconds(1);
    const auto scenario = core::mutual_scenario(p);
    const auto result = baseline::run_scenario(scenario, true);
    ASSERT_TRUE(result.all_completed) << crossing;
    EXPECT_FALSE(result.stalled) << crossing;
    const auto pessimistic = baseline::run_scenario(scenario, false);
    std::string why;
    EXPECT_TRUE(trace::compare_traces(pessimistic.trace, result.trace, &why))
        << crossing << ": " << why;
    std::size_t timeouts = 0;
    for (const obs::Event& e : result.recorder->events()) {
      if (e.kind == obs::EventKind::kAbort &&
          result.recorder->detail(e) == "join-wait-timeout") {
        ++timeouts;
      }
    }
    EXPECT_EQ(timeouts, crossing ? 2u : 1u);
    EXPECT_EQ(result.stats.aborts_timeout, timeouts) << crossing;
  }
}

TEST(Liveness, SpeculationDisabledNeverForksSpeculatively) {
  core::PutLineParams p;
  p.lines = 4;
  auto result = baseline::run_scenario(core::putline_scenario(p), false);
  ASSERT_TRUE(result.all_completed);
  EXPECT_EQ(result.stats.sequential_forks, result.stats.forks);
  EXPECT_EQ(result.stats.checkpoints, 0u + result.stats.checkpoints);
  EXPECT_EQ(result.stats.commits, 0u);
  EXPECT_EQ(result.stats.control_sent, 0u);
}

// A run whose event queue drains with a client still waiting says so: the
// server takes the call and never replies.  A run cut off by its deadline
// with work pending is not stalled.
TEST(Liveness, DrainedRunWithWaitingClientReportsStalled) {
  baseline::Scenario scenario;
  scenario.options.default_link.latency =
      net::fixed_latency(sim::microseconds(100));
  scenario.add("X", csp::seq({csp::call("S", "Ping", {lit(Value(1))}, "r"),
                              csp::print(var("r"))}));
  scenario.add("S", csp::while_(lit(Value(true)), csp::receive()));
  for (bool speculation : {true, false}) {
    const auto sequential = baseline::run_scenario(scenario, speculation);
    EXPECT_FALSE(sequential.all_completed) << speculation;
    EXPECT_TRUE(sequential.stalled) << speculation;
    const auto sharded =
        exec::run_scenario_parallel(scenario, /*workers=*/2, speculation);
    EXPECT_FALSE(sharded.result.all_completed) << speculation;
    EXPECT_TRUE(sharded.result.stalled) << speculation;
  }
  // Stopped before the call lands: unfinished, not stalled.
  const auto cut =
      baseline::run_scenario(scenario, true, sim::microseconds(50));
  EXPECT_FALSE(cut.all_completed);
  EXPECT_FALSE(cut.stalled);
  const auto sharded_cut = exec::run_scenario_parallel(
      scenario, /*workers=*/2, true, 0.0, sim::microseconds(50));
  EXPECT_FALSE(sharded_cut.result.stalled);
}

}  // namespace
}  // namespace ocsp
