// State garbage collection: a long-running server's retained speculative
// state (checkpoints, replay metadata, input log) must be bounded by the
// window of in-doubt guesses, not by the length of the run.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/workloads.h"
#include "fault/plan.h"
#include "speculation/runtime.h"

namespace ocsp {
namespace {

core::PutLineParams long_run(int lines,
                             spec::RollbackStrategy strategy) {
  core::PutLineParams p;
  p.lines = lines;
  p.net.latency = sim::microseconds(200);
  p.spec.rollback = strategy;
  return p;
}

TEST(Gc, ServerCheckpointsBoundedUnderCheckpointStrategy) {
  // Without GC the server would retain one checkpoint per tagged request.
  auto small = baseline::make_runtime(
      core::putline_scenario(
          long_run(16, spec::RollbackStrategy::kCheckpointEveryInterval)),
      true);
  small->run(sim::seconds(60));
  auto large = baseline::make_runtime(
      core::putline_scenario(
          long_run(128, spec::RollbackStrategy::kCheckpointEveryInterval)),
      true);
  large->run(sim::seconds(60));
  ASSERT_TRUE(large->process(0).completed());
  const auto small_cp = small->process(small->find("Y")).checkpoint_count();
  const auto large_cp = large->process(large->find("Y")).checkpoint_count();
  // Retained state does not grow with run length (8x the traffic).
  EXPECT_LE(large_cp, small_cp + 2) << "small=" << small_cp
                                    << " large=" << large_cp;
  EXPECT_GT(large->process(large->find("Y")).stats().checkpoints_pruned, 0u);
}

TEST(Gc, InputLogBoundedUnderReplayStrategy) {
  auto params = long_run(128, spec::RollbackStrategy::kReplayFromLog);
  params.spec.replay_checkpoint_every = 8;
  auto rt = baseline::make_runtime(core::putline_scenario(params), true);
  rt->run(sim::seconds(60));
  ASSERT_TRUE(rt->process(0).completed());
  const auto& server = rt->process(rt->find("Y"));
  // All guesses resolved: at most one checkpoint period of log remains.
  EXPECT_LT(server.input_log_size(), 20u);
  EXPECT_GT(server.stats().log_entries_pruned, 64u);
}

TEST(Gc, PruningNeverBreaksRollback) {
  // Mix GC pressure with faults: rollbacks must still find their state.
  for (auto strategy : {spec::RollbackStrategy::kCheckpointEveryInterval,
                        spec::RollbackStrategy::kReplayFromLog}) {
    core::PutLineParams p = long_run(64, strategy);
    p.fail_probability = 0.05;
    auto scenario = core::putline_scenario(p);
    auto pess = baseline::run_scenario(scenario, false, sim::seconds(60));
    auto opt = baseline::run_scenario(scenario, true, sim::seconds(60));
    ASSERT_TRUE(opt.all_completed) << opt.stats.to_string();
    std::string why;
    EXPECT_TRUE(trace::compare_traces(pess.trace, opt.trace, &why)) << why;
  }
}

TEST(Gc, ClientStateAlsoPruned) {
  auto rt = baseline::make_runtime(
      core::putline_scenario(
          long_run(128, spec::RollbackStrategy::kCheckpointEveryInterval)),
      true);
  rt->run(sim::seconds(60));
  ASSERT_TRUE(rt->process(0).completed());
  // The client created 128 speculative threads; once everything committed,
  // the dead threads' checkpoints are pruned and only the live tail stays.
  EXPECT_LT(rt->process(0).checkpoint_count(), 8u);
  EXPECT_GT(rt->process(0).stats().checkpoints_pruned, 100u);
}

// ---- per-guess bookkeeping ----------------------------------------------

/// The targeted-control relay pipeline: guesses chain through three
/// streaming relays, and every resolution is forwarded hop by hop.  (Its
/// cost grows steeply with the call count — precedence cycle checks walk
/// every thread's CDG — so the tests keep it short.)
core::PipelineParams targeted_relays() {
  core::PipelineParams p;
  p.calls = 32;
  p.chain_depth = 3;
  p.stream_relays = true;
  p.spec.control = spec::ControlPlane::kTargeted;
  return p;
}

TEST(Gc, PerGuessMapsEmptyOnceQuiet) {
  auto rt = baseline::make_runtime(core::pipeline_scenario(targeted_relays()),
                                   true);
  rt->run(0);
  // Step the run to see step flags in use before they drain.  (Forward
  // marks live only within the handling of one control message.)
  std::size_t peak_steps = 0;
  while (rt->scheduler().step()) {
    for (ProcessId id : rt->all_process_ids()) {
      peak_steps = std::max(peak_steps, rt->process(id).step_flag_count());
    }
  }
  ASSERT_TRUE(rt->all_clients_completed());
  EXPECT_GT(peak_steps, 0u);
  std::size_t forwards = 0;
  for (const auto& ev : rt->recorder().events()) {
    if (ev.kind == obs::EventKind::kControlSent && ev.detail == "forward") {
      ++forwards;
    }
  }
  EXPECT_GT(forwards, 0u);  // relays did mark resolutions as forwarded
  std::uint64_t control_sent = 0;
  for (ProcessId id : rt->all_process_ids()) {
    const auto& proc = rt->process(id);
    EXPECT_EQ(proc.control_forwarded_count(), 0u) << proc.name();
    EXPECT_EQ(proc.step_flag_count(), 0u) << proc.name();
    EXPECT_EQ(proc.safe_claim_count(), 0u) << proc.name();
    control_sent += proc.stats().control_sent;
  }
  // Dropping the forward marks with the recipients forwards nothing new:
  // the run sends exactly the control traffic it sent with unbounded maps.
  EXPECT_EQ(control_sent, 535u);
}

// ---- rollback-point index versus the whole-thread walk ----------------------

struct SteppedRun {
  std::size_t in_doubt = 0;  ///< (step, process) checks with a dependency
  std::uint64_t rollbacks = 0;
};

/// Run `scenario` one scheduler step at a time and, after every step,
/// require each process's rollback-point index to agree with a walk over
/// every thread's rollback map.
SteppedRun expect_index_matches_walk(const baseline::Scenario& scenario,
                                     sim::Time deadline) {
  auto rt = baseline::make_runtime(scenario, true);
  rt->run(0);
  sim::Scheduler& sched = rt->scheduler();
  SteppedRun out;
  std::size_t steps = 0;
  while (sched.next_time() <= deadline) {
    sched.step();
    ++steps;
    for (ProcessId id : rt->all_process_ids()) {
      const auto& proc = rt->process(id);
      const auto index = proc.rollback_summary();
      const auto walk = proc.rollback_summary_by_walk();
      if (!(index == walk)) {
        ADD_FAILURE() << proc.name() << " after step " << steps << ": index "
                      << index.to_string() << ", walk " << walk.to_string();
        return out;
      }
      if (index.any_unresolved) ++out.in_doubt;
    }
  }
  out.rollbacks = rt->total_stats().rollbacks;
  return out;
}

TEST(Gc, RollbackIndexMatchesWalkUnderValueFaults) {
  for (auto strategy : {spec::RollbackStrategy::kCheckpointEveryInterval,
                        spec::RollbackStrategy::kReplayFromLog}) {
    core::PutLineParams p = long_run(64, strategy);
    p.fail_probability = 0.05;
    const SteppedRun run =
        expect_index_matches_walk(core::putline_scenario(p), sim::seconds(60));
    EXPECT_GT(run.in_doubt, 0u);
    EXPECT_GT(run.rollbacks, 0u);
  }
}

TEST(Gc, RollbackIndexMatchesWalkUnderChaos) {
  core::AbortStormParams p;
  p.calls = 12;
  p.hit_period = 3;
  p.spec.control_retry = true;
  p.spec.control_retry_interval = sim::milliseconds(1);
  p.spec.control_retry_limit = 30;
  p.spec.join_wait_timeout = sim::milliseconds(200);
  const auto base = core::abort_storm_scenario(p);
  fault::ChaosSpec chaos;
  chaos.horizon = baseline::run_scenario(base, false).last_completion;
  chaos.partition_min_len = sim::milliseconds(1);
  chaos.partition_max_len = sim::milliseconds(5);
  chaos.crash_min_downtime = sim::milliseconds(1);
  chaos.crash_max_downtime = sim::milliseconds(4);
  for (std::uint64_t seed = 0; seed < 6; ++seed) {  // one per fault class
    auto scenario = base;
    scenario.options.fault_plan = fault::make_chaos_plan(
        seed, chaos, static_cast<std::uint32_t>(scenario.processes.size()));
    scenario.options.reliable.enabled = true;
    const SteppedRun run = expect_index_matches_walk(scenario, sim::seconds(10));
    EXPECT_GT(run.in_doubt, 0u) << "chaos seed " << seed;
    EXPECT_GT(run.rollbacks, 0u) << "chaos seed " << seed;
  }
}

TEST(Gc, RollbackIndexMatchesWalkOnTargetedRelays) {
  EXPECT_GT(expect_index_matches_walk(
                core::pipeline_scenario(targeted_relays()), sim::seconds(60))
                .in_doubt,
            0u);
}

}  // namespace
}  // namespace ocsp
