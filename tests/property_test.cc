// Property-based tests of Theorem 1: for randomized client programs and
// network conditions, the optimistic parallelization must produce exactly
// the committed partial traces of the pessimistic execution — including
// under non-FIFO links, where speculative calls can overtake their
// predecessors at a *stateful* server and the protocol has to detect the
// time fault and re-execute in order.
#include <gtest/gtest.h>

#include <tuple>

#include "baseline/scenario.h"
#include "core/workloads.h"
#include "csp/service.h"
#include "trace/causality.h"
#include "transform/transform.h"
#include "util/rng.h"

namespace ocsp {
namespace {

using csp::lit;
using csp::Value;
using csp::var;

// ---------------------------------------------------------------------------
// Random client generator
// ---------------------------------------------------------------------------

csp::ExprPtr random_expr(util::Rng& rng, int depth = 0) {
  const std::string v =
      std::string("v") + std::to_string(rng.uniform_int(0, 3));
  if (depth >= 2 || rng.bernoulli(0.4)) {
    return rng.bernoulli(0.5) ? var(v)
                              : lit(Value(rng.uniform_int(0, 9)));
  }
  auto a = random_expr(rng, depth + 1);
  auto b = random_expr(rng, depth + 1);
  switch (rng.uniform_int(0, 2)) {
    case 0:
      return csp::add(std::move(a), std::move(b));
    case 1:
      return csp::sub(std::move(a), std::move(b));
    default:
      return csp::mul(std::move(a), std::move(b));
  }
}

csp::StmtPtr random_client(util::Rng& rng, int length) {
  std::vector<csp::StmtPtr> body;
  for (int i = 0; i < 4; ++i) {
    body.push_back(
        csp::assign(std::string("v") + std::to_string(i), lit(Value(i))));
  }
  for (int i = 0; i < length; ++i) {
    const std::string dst =
        std::string("v") + std::to_string(rng.uniform_int(0, 3));
    switch (rng.uniform_int(0, 9)) {
      case 0:
      case 1:
      case 2: {  // pure call: doubled-plus-one echo
        const std::string server = rng.bernoulli(0.5) ? "SA" : "SB";
        body.push_back(csp::call(server, "F", {random_expr(rng)}, dst));
        break;
      }
      case 3:
      case 4: {  // stateful call: server-side counter
        const std::string server = rng.bernoulli(0.5) ? "SA" : "SB";
        body.push_back(csp::call(server, "G", {random_expr(rng)}, dst));
        break;
      }
      case 5:
      case 6:
        body.push_back(csp::assign(dst, random_expr(rng)));
        break;
      case 7:
        body.push_back(csp::compute(sim::microseconds(
            static_cast<sim::Time>(rng.uniform_int(1, 40)))));
        break;
      case 8:
        body.push_back(csp::print(random_expr(rng)));
        break;
      default:
        body.push_back(csp::if_(csp::gt(random_expr(rng), lit(Value(5))),
                                csp::assign(dst, random_expr(rng)),
                                csp::print(random_expr(rng))));
        break;
    }
  }
  // Observable summary so the trace is sensitive to every variable.
  body.push_back(csp::print(
      csp::list_of({var("v0"), var("v1"), var("v2"), var("v3")})));
  return csp::seq(std::move(body));
}

csp::StmtPtr stateful_server() {
  std::map<std::string, csp::NativeHandler> handlers;
  handlers["F"] = [](const csp::ValueList& args, csp::Env&, util::Rng&) {
    return Value(args[0].as_int() * 2 + 1);
  };
  handlers["G"] = [](const csp::ValueList& args, csp::Env& state,
                     util::Rng&) {
    const std::int64_t n = state.get_or("n", Value(0)).as_int();
    state.set("n", Value(n + args[0].as_int() + 1));
    return Value(n);
  };
  csp::ServiceConfig sc;
  sc.service_time = sim::microseconds(7);
  return csp::native_service(std::move(handlers), sc);
}

struct RandomCase {
  std::uint64_t seed;
  bool fifo;
  sim::Time latency;
};

class RandomProgramProperty
    : public ::testing::TestWithParam<std::tuple<int, bool, int, bool>> {};

TEST_P(RandomProgramProperty, OptimisticTraceEqualsPessimistic) {
  const auto [seed, fifo, latency_us, use_replay] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
  csp::StmtPtr client = random_client(rng, 14);
  transform::StreamingOptions opts;
  opts.predictor = [](const csp::CallStmt&) {
    // Reasonable-but-fallible guess: last committed return per site.
    return csp::PredictorSpec::last_committed(Value(0));
  };
  csp::StmtPtr streamed = transform::stream_calls(client, opts).program;

  baseline::Scenario scenario;
  scenario.options.seed = static_cast<std::uint64_t>(seed);
  scenario.options.default_link.latency = net::fixed_latency(
      sim::microseconds(latency_us));
  scenario.options.default_link.fifo = fifo;
  scenario.options.spec.retry_limit = 4;
  scenario.options.spec.rollback =
      use_replay ? spec::RollbackStrategy::kReplayFromLog
                 : spec::RollbackStrategy::kCheckpointEveryInterval;
  scenario.options.spec.replay_checkpoint_every = 4;  // stress replay
  scenario.add("X", streamed);
  scenario.add("SA", stateful_server());
  scenario.add("SB", stateful_server());

  auto pessimistic =
      baseline::run_scenario(scenario, false, sim::seconds(60));
  auto optimistic = baseline::run_scenario(scenario, true, sim::seconds(60));
  // Liveness: no run drains with the client still waiting.
  ASSERT_FALSE(pessimistic.stalled) << "seed " << seed;
  ASSERT_FALSE(optimistic.stalled)
      << "seed " << seed << " " << optimistic.stats.to_string();
  ASSERT_TRUE(pessimistic.all_completed) << "seed " << seed;
  ASSERT_TRUE(optimistic.all_completed)
      << "seed " << seed << " " << optimistic.stats.to_string();
  std::string why;
  EXPECT_TRUE(
      trace::compare_traces(pessimistic.trace, optimistic.trace, &why))
      << "seed " << seed << ": " << why << "\noptimistic stats: "
      << optimistic.stats.to_string() << "\npessimistic:\n"
      << pessimistic.trace.to_string() << "optimistic:\n"
      << optimistic.trace.to_string();
  // Sanity: the protocol did something and its books balance.
  EXPECT_LE(optimistic.stats.commits,
            optimistic.stats.forks - optimistic.stats.sequential_forks);
  // The committed execution is causally sound: every receive matches its
  // send and the happens-before relation is acyclic.
  auto causal = trace::check_causality(optimistic.trace);
  EXPECT_TRUE(causal) << "seed " << seed << ": " << causal.why;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomProgramProperty,
    ::testing::Combine(::testing::Range(0, 12),
                       ::testing::Values(true, false),
                       ::testing::Values(50, 400),
                       ::testing::Values(false, true)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_fifo" : "_reorder") + "_lat" +
             std::to_string(std::get<2>(info.param)) +
             (std::get<3>(info.param) ? "_replay" : "_checkpoint");
    });

// ---------------------------------------------------------------------------
// Parameter sweeps over the canonical workloads
// ---------------------------------------------------------------------------

class PutLineFailureSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PutLineFailureSweep, TraceEquality) {
  const auto [seed, fail_pct] = GetParam();
  core::PutLineParams p;
  p.lines = 10;
  p.seed = static_cast<std::uint64_t>(seed) + 1;
  p.fail_probability = fail_pct / 100.0;
  p.net.latency = sim::microseconds(250);
  auto scenario = core::putline_scenario(p);
  auto pess = baseline::run_scenario(scenario, false, sim::seconds(60));
  auto opt = baseline::run_scenario(scenario, true, sim::seconds(60));
  ASSERT_TRUE(pess.all_completed);
  ASSERT_TRUE(opt.all_completed) << opt.stats.to_string();
  std::string why;
  EXPECT_TRUE(trace::compare_traces(pess.trace, opt.trace, &why)) << why;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PutLineFailureSweep,
                         ::testing::Combine(::testing::Range(0, 6),
                                            ::testing::Values(0, 10, 30,
                                                              60, 100)));

class DbFsFailureSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DbFsFailureSweep, TraceEquality) {
  const auto [seed, fail_pct] = GetParam();
  core::DbFsParams p;
  p.transactions = 6;
  p.seed = static_cast<std::uint64_t>(seed) * 31 + 7;
  p.update_fail_probability = fail_pct / 100.0;
  p.net.latency = sim::microseconds(300);
  auto scenario = core::db_fs_scenario(p);
  auto pess = baseline::run_scenario(scenario, false, sim::seconds(60));
  auto opt = baseline::run_scenario(scenario, true, sim::seconds(60));
  ASSERT_TRUE(pess.all_completed);
  ASSERT_TRUE(opt.all_completed) << opt.stats.to_string();
  std::string why;
  EXPECT_TRUE(trace::compare_traces(pess.trace, opt.trace, &why)) << why;
}

INSTANTIATE_TEST_SUITE_P(Sweep, DbFsFailureSweep,
                         ::testing::Combine(::testing::Range(0, 6),
                                            ::testing::Values(0, 25, 50,
                                                              75)));

// Jittered (randomly delayed) links across workloads.
class JitterSweep : public ::testing::TestWithParam<int> {};

TEST_P(JitterSweep, PipelineTraceEquality) {
  core::PipelineParams p;
  p.calls = 6;
  p.chain_depth = 2;
  p.seed = static_cast<std::uint64_t>(GetParam()) * 101 + 3;
  p.net.latency = sim::microseconds(100);
  p.net.jitter = sim::microseconds(400);
  auto scenario = core::pipeline_scenario(p);
  auto pess = baseline::run_scenario(scenario, false, sim::seconds(60));
  auto opt = baseline::run_scenario(scenario, true, sim::seconds(60));
  ASSERT_TRUE(pess.all_completed);
  ASSERT_TRUE(opt.all_completed) << opt.stats.to_string();
  std::string why;
  EXPECT_TRUE(trace::compare_traces(pess.trace, opt.trace, &why)) << why;
}

INSTANTIATE_TEST_SUITE_P(Sweep, JitterSweep, ::testing::Range(0, 10));

}  // namespace
}  // namespace ocsp
