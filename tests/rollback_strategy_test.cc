// Tests for the two rollback strategies of section 4.1.3.
//
// "A process may take a state checkpoint at each point prior to acquiring
// a new commit guard predicate [Time Warp style] ... Alternatively, a
// process may take less frequent checkpoints, and log input messages,
// restoring the state by resuming from the checkpoint and replaying the
// logged messages [Optimistic Recovery style].  The particular technique
// used for rollback is a performance tuning decision and does not affect
// the correctness of the transformation."
//
// These tests are that last sentence, executed: every workload must
// produce identical committed traces under both strategies, while the
// replay strategy takes measurably fewer checkpoints.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/workloads.h"

namespace ocsp {
namespace {

template <typename Params>
baseline::Scenario with_strategy(Params params, spec::RollbackStrategy s,
                                 auto builder) {
  params.spec.rollback = s;
  return builder(params);
}

struct StrategyOutcome {
  baseline::RunResult checkpointing;
  baseline::RunResult replaying;
};

template <typename Params>
StrategyOutcome run_both_strategies(Params params, auto builder) {
  params.spec.rollback = spec::RollbackStrategy::kCheckpointEveryInterval;
  auto a = baseline::run_scenario(builder(params), true, sim::seconds(60));
  params.spec.rollback = spec::RollbackStrategy::kReplayFromLog;
  auto b = baseline::run_scenario(builder(params), true, sim::seconds(60));
  return {a, b};
}

TEST(RollbackStrategy, ValueFaultWorkloadMatchesAcrossStrategies) {
  core::DbFsParams p;
  p.transactions = 8;
  p.update_fail_probability = 0.5;
  p.net.latency = sim::microseconds(300);
  auto out = run_both_strategies(p, core::db_fs_scenario);
  ASSERT_TRUE(out.checkpointing.all_completed)
      << out.checkpointing.stats.to_string();
  ASSERT_TRUE(out.replaying.all_completed)
      << out.replaying.stats.to_string();
  std::string why;
  EXPECT_TRUE(trace::compare_traces(out.checkpointing.trace,
                                    out.replaying.trace, &why))
      << why;
  // And both must match the pessimistic run.
  p.spec.rollback = spec::RollbackStrategy::kReplayFromLog;
  auto pess = baseline::run_scenario(core::db_fs_scenario(p), false);
  EXPECT_TRUE(trace::compare_traces(pess.trace, out.replaying.trace, &why))
      << why;
}

TEST(RollbackStrategy, TimeFaultWorkloadMatchesAcrossStrategies) {
  core::WriteThroughParams p;
  p.force_fault = true;
  p.transactions = 3;
  p.net.latency = sim::microseconds(150);
  auto out = run_both_strategies(p, core::write_through_scenario);
  ASSERT_TRUE(out.checkpointing.all_completed);
  ASSERT_TRUE(out.replaying.all_completed)
      << out.replaying.stats.to_string();
  std::string why;
  EXPECT_TRUE(trace::compare_traces(out.checkpointing.trace,
                                    out.replaying.trace, &why))
      << why;
  EXPECT_GT(out.replaying.stats.replays, 0u)
      << out.replaying.stats.to_string();
}

TEST(RollbackStrategy, MutualAbortMatchesAcrossStrategies) {
  core::MutualParams p;
  p.crossing = true;
  p.net.latency = sim::microseconds(100);
  auto out = run_both_strategies(p, core::mutual_scenario);
  ASSERT_TRUE(out.checkpointing.all_completed);
  ASSERT_TRUE(out.replaying.all_completed)
      << out.replaying.stats.to_string();
  std::string why;
  EXPECT_TRUE(trace::compare_traces(out.checkpointing.trace,
                                    out.replaying.trace, &why))
      << why;
}

TEST(RollbackStrategy, ReplayTakesFewerCheckpointsAtTheServer) {
  // The server side shows the strategies' real difference: it never forks,
  // so under the Time Warp style it checkpoints before every guess-tagged
  // acceptance, while under replay it checkpoints only once at creation
  // and keeps metadata records instead.
  auto server_checkpoints = [](spec::RollbackStrategy s) {
    core::PutLineParams p;
    p.lines = 24;
    p.net.latency = sim::microseconds(300);
    p.spec.rollback = s;
    auto rt = baseline::make_runtime(core::putline_scenario(p), true);
    rt->run(sim::seconds(60));
    EXPECT_TRUE(rt->process(0).completed());
    return rt->process(rt->find("Y")).stats().checkpoints;
  };
  const auto checkpointing =
      server_checkpoints(spec::RollbackStrategy::kCheckpointEveryInterval);
  const auto replaying =
      server_checkpoints(spec::RollbackStrategy::kReplayFromLog);
  EXPECT_LT(replaying, checkpointing);
  EXPECT_LE(replaying, 2u);          // creation only
  EXPECT_GE(checkpointing, 20u);     // ~one per tagged request
}

TEST(RollbackStrategy, NoFaultRunsNeverReplay) {
  core::PutLineParams p;
  p.lines = 8;
  p.spec.rollback = spec::RollbackStrategy::kReplayFromLog;
  auto result = baseline::run_scenario(core::putline_scenario(p), true);
  ASSERT_TRUE(result.all_completed);
  EXPECT_EQ(result.stats.replays, 0u);
  EXPECT_EQ(result.stats.rollbacks, 0u);
}

// Abort decisions on the workloads that publish PRECEDENCE (or abort on a
// time fault), pinned exactly under both strategies and both control
// planes: how the commit dependency graph is kept must not change which
// guesses fork, commit, abort or roll back, nor the control traffic.
TEST(RollbackStrategy, PrecedenceWorkloadDecisionsPinned) {
  struct Pinned {
    std::string label;
    baseline::Scenario scenario;
    int clients;  ///< >0: compare only the first `clients` processes' traces
    std::uint64_t forks, commits, time_faults, cascades, rollbacks;
    std::uint64_t precedence;
    std::uint64_t control_broadcast, control_targeted;
    sim::Time completion_broadcast, completion_targeted;
  };
  auto cases = [](spec::RollbackStrategy strategy, spec::ControlPlane plane) {
    auto configure = [&](spec::SpecConfig& c) {
      c.rollback = strategy;
      c.control = plane;
    };
    core::PipelineParams relay;
    relay.calls = 32;
    relay.chain_depth = 3;
    relay.stream_relays = true;
    configure(relay.spec);
    core::MutualParams crossing;
    crossing.crossing = true;
    configure(crossing.spec);
    core::WriteThroughParams write_through;
    write_through.transactions = 3;
    configure(write_through.spec);
    core::SharedServerParams shared;
    shared.clients = 4;
    configure(shared.spec);
    return std::vector<Pinned>{
        {"relay", core::pipeline_scenario(relay), 0, 96, 96, 0, 0, 0, 95,
         573, 535, sim::microseconds(49515), sim::microseconds(65015)},
        {"crossing", core::mutual_scenario(crossing), 0, 2, 0, 2, 6, 6, 2,
         12, 12, sim::microseconds(12020), sim::microseconds(12020)},
        {"write-through", core::write_through_scenario(write_through), 0, 6,
         0, 5, 13, 13, 0, 12, 16, sim::microseconds(30140),
         sim::microseconds(30140)},
        {"shared server", core::shared_server_scenario(shared), 4, 24, 24, 0,
         0, 0, 18, 168, 98, sim::microseconds(2550),
         sim::microseconds(4650)},
    };
  };
  for (auto strategy : {spec::RollbackStrategy::kCheckpointEveryInterval,
                        spec::RollbackStrategy::kReplayFromLog}) {
    for (auto plane :
         {spec::ControlPlane::kBroadcast, spec::ControlPlane::kTargeted}) {
      const bool targeted = plane == spec::ControlPlane::kTargeted;
      for (const Pinned& pin : cases(strategy, plane)) {
        const std::string label =
            pin.label +
            (strategy == spec::RollbackStrategy::kReplayFromLog ? "/replay"
                                                                : "/checkpoint") +
            (targeted ? "/targeted" : "/broadcast");
        auto pess = baseline::run_scenario(pin.scenario, false);
        auto opt = baseline::run_scenario(pin.scenario, true);
        ASSERT_TRUE(pess.all_completed) << label;
        ASSERT_TRUE(opt.all_completed) << label << " " << opt.stats.to_string();
        std::string why;
        if (pin.clients > 0) {
          // The server may see the clients' requests in another order.
          for (int c = 0; c < pin.clients; ++c) {
            EXPECT_TRUE(trace::compare_process_trace(
                pess.trace, opt.trace, static_cast<ProcessId>(c), &why))
                << label << ": " << why;
          }
        } else {
          EXPECT_TRUE(trace::compare_traces(pess.trace, opt.trace, &why))
              << label << ": " << why;
        }
        const spec::SpecStats& s = opt.stats;
        EXPECT_EQ(s.forks, pin.forks) << label;
        EXPECT_EQ(s.commits, pin.commits) << label;
        EXPECT_EQ(s.aborts_value_fault, 0u) << label;
        EXPECT_EQ(s.aborts_time_fault, pin.time_faults) << label;
        EXPECT_EQ(s.aborts_timeout, 0u) << label;
        EXPECT_EQ(s.aborts_crash, 0u) << label;
        EXPECT_EQ(s.aborts_cascade, pin.cascades) << label;
        EXPECT_EQ(s.rollbacks, pin.rollbacks) << label;
        EXPECT_EQ(s.precedence_sent, pin.precedence) << label;
        EXPECT_EQ(s.control_sent,
                  targeted ? pin.control_targeted : pin.control_broadcast)
            << label;
        EXPECT_EQ(opt.last_completion, targeted ? pin.completion_targeted
                                                : pin.completion_broadcast)
            << label;
      }
    }
  }
}

class StrategySweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(StrategySweep, PutLineTraceEqualityUnderReplay) {
  const auto [seed, fail_pct] = GetParam();
  core::PutLineParams p;
  p.lines = 10;
  p.seed = static_cast<std::uint64_t>(seed) * 13 + 1;
  p.fail_probability = fail_pct / 100.0;
  p.net.latency = sim::microseconds(250);
  p.spec.rollback = spec::RollbackStrategy::kReplayFromLog;
  auto scenario = core::putline_scenario(p);
  auto pess = baseline::run_scenario(scenario, false, sim::seconds(60));
  auto opt = baseline::run_scenario(scenario, true, sim::seconds(60));
  ASSERT_TRUE(pess.all_completed);
  ASSERT_TRUE(opt.all_completed) << opt.stats.to_string();
  std::string why;
  EXPECT_TRUE(trace::compare_traces(pess.trace, opt.trace, &why)) << why;
}

INSTANTIATE_TEST_SUITE_P(Sweep, StrategySweep,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Values(0, 20, 50,
                                                              80)));

}  // namespace
}  // namespace ocsp
