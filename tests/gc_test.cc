// State garbage collection: a long-running server's retained speculative
// state (checkpoints, replay metadata, input log) must be bounded by the
// window of in-doubt guesses, not by the length of the run.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

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
  // The threads themselves retire once settled: the table keeps none.
  EXPECT_EQ(rt->process(0).tabled_thread_count(), 0u);
}

/// Everything the speculation bookkeeping visits (thread-table entries,
/// rollback entries indexed or scrubbed, index entries the GC reads, state
/// the GC sweep examines) per kernel event stays flat as the PutLine
/// stream deepens: forks inherit only their guard members' rollback
/// entries, settled threads retire, and the GC visits only what changed.
TEST(Gc, PutLineBookkeepingFlatInLineCount) {
  for (auto strategy : {spec::RollbackStrategy::kCheckpointEveryInterval,
                        spec::RollbackStrategy::kReplayFromLog}) {
    std::vector<double> per_event;
    for (int lines : {16, 1024}) {
      // BM_StreamDepth's parameters.
      core::PutLineParams p;
      p.lines = lines;
      p.net.latency = sim::microseconds(1000);
      p.service_time = sim::microseconds(10);
      p.client_compute = sim::microseconds(2);
      p.spec.rollback = strategy;
      auto rt = baseline::make_runtime(core::putline_scenario(p), true);
      rt->run();
      ASSERT_TRUE(rt->all_clients_completed()) << lines;
      std::uint64_t visits = 0;
      for (ProcessId id : rt->all_process_ids()) {
        const auto& proc = rt->process(id);
        visits += proc.bookkeeping_visits();
        // No terminated thread stays in a table once the run is over.
        EXPECT_EQ(proc.tabled_thread_count(), proc.live_thread_count())
            << proc.name() << " at " << lines << " lines";
      }
      per_event.push_back(
          static_cast<double>(visits) /
          static_cast<double>(rt->metrics().counter_or("sim_events_fired")));
    }
    // Work per event at 64x the lines is at most 2x the work at 16.
    EXPECT_LE(per_event[1], 2.0 * per_event[0])
        << "16 lines: " << per_event[0] << ", 1024 lines: " << per_event[1];
  }
}

// ---- per-guess bookkeeping ----------------------------------------------

/// The streamed 3-relay pipeline: guesses chain through three streaming
/// relays, every join publishes PRECEDENCE, and under targeted control
/// every resolution is forwarded hop by hop.
core::PipelineParams relay_pipeline(int calls, spec::ControlPlane plane) {
  core::PipelineParams p;
  p.calls = calls;
  p.chain_depth = 3;
  p.stream_relays = true;
  p.spec.control = plane;
  return p;
}

/// Commit dependency graph nodes each process still holds.
std::map<std::string, std::size_t> cdg_nodes(const spec::Runtime& rt) {
  std::map<std::string, std::size_t> out;
  for (ProcessId id : rt.all_process_ids()) {
    out[rt.process(id).name()] = rt.process(id).cdg_node_count();
  }
  return out;
}

TEST(Gc, PerGuessMapsEmptyOnceQuiet) {
  auto rt = baseline::make_runtime(
      core::pipeline_scenario(
          relay_pipeline(256, spec::ControlPlane::kTargeted)),
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
    if (ev.kind == obs::EventKind::kControlSent &&
        rt->recorder().detail(ev) == "forward") {
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
  EXPECT_EQ(control_sent, 4343u);

  // Targeted control routes a COMMIT only to the processes that saw the
  // guess in a tag, so a relay keeps the few nodes PRECEDENCE taught it
  // about guesses it never held.  That residue must not grow with the run.
  auto short_run = baseline::make_runtime(
      core::pipeline_scenario(relay_pipeline(16, spec::ControlPlane::kTargeted)),
      true);
  short_run->run();
  ASSERT_TRUE(short_run->all_clients_completed());
  EXPECT_EQ(cdg_nodes(*rt), cdg_nodes(*short_run));
}

/// Under broadcast control every process hears every resolution, so once a
/// run goes quiet no process's commit dependency graph holds a node: commits
/// and aborts remove theirs, and implicit aborts are swept.
TEST(Gc, CommitGraphEmptyOnceBroadcastRunsGoQuiet) {
  core::SharedServerParams shared;
  shared.clients = 4;
  shared.net.jitter = sim::microseconds(300);
  shared.net.fifo = false;
  const std::vector<std::pair<std::string, baseline::Scenario>> runs = {
      {"relay pipeline", core::pipeline_scenario(relay_pipeline(
                             32, spec::ControlPlane::kBroadcast))},
      {"shared server", core::shared_server_scenario(shared)},
  };
  for (const auto& [label, scenario] : runs) {
    auto rt = baseline::make_runtime(scenario, true);
    rt->run();
    ASSERT_TRUE(rt->all_clients_completed()) << label;
    EXPECT_GT(rt->recorder().count(obs::EventKind::kCdgEdgeAdded), 0u)
        << label;
    for (const auto& [name, nodes] : cdg_nodes(*rt)) {
      EXPECT_EQ(nodes, 0u) << label << ": " << name;
    }
  }
}

/// Each PRECEDENCE inserts its edges into one graph per process, so the
/// edge work per PRECEDENCE stays flat as the relay pipeline lengthens,
/// instead of growing with the threads that hold one of its guesses.  So
/// do the bookkeeping visits per kernel event, though the relays keep
/// many left threads waiting at their joins: a guard change looks only
/// at the waiters it may have made ready.
TEST(Gc, RelayCdgEdgesPerPrecedenceFlatInCallCount) {
  struct Point {
    spec::ControlPlane plane;
    int calls;
    std::uint64_t sim_events;  ///< the run's kernel events, pinned
  };
  const Point points[] = {{spec::ControlPlane::kBroadcast, 16, 625},
                          {spec::ControlPlane::kBroadcast, 128, 4993},
                          {spec::ControlPlane::kTargeted, 16, 603},
                          {spec::ControlPlane::kTargeted, 128, 4859}};
  std::map<spec::ControlPlane, std::vector<double>> per_precedence;
  std::map<spec::ControlPlane, std::vector<double>> visits_per_event;
  for (const Point& pt : points) {
    auto rt = baseline::make_runtime(
        core::pipeline_scenario(relay_pipeline(pt.calls, pt.plane)), true);
    rt->run();
    ASSERT_TRUE(rt->all_clients_completed()) << pt.calls;
    EXPECT_EQ(rt->metrics().counter_or("sim_events_fired"), pt.sim_events)
        << pt.calls;
    const std::uint64_t precedence = rt->total_stats().precedence_sent;
    ASSERT_GT(precedence, 0u) << pt.calls;
    per_precedence[pt.plane].push_back(
        static_cast<double>(
            rt->recorder().count(obs::EventKind::kCdgEdgeAdded)) /
        static_cast<double>(precedence));
    std::uint64_t visits = 0;
    for (ProcessId id : rt->all_process_ids()) {
      visits += rt->process(id).bookkeeping_visits();
    }
    visits_per_event[pt.plane].push_back(static_cast<double>(visits) /
                                         static_cast<double>(pt.sim_events));
  }
  for (const auto& per_unit : {per_precedence, visits_per_event}) {
    for (const auto& [plane, ratios] : per_unit) {
      // Work per unit at 8x the calls is at most 2x the work at 16.
      EXPECT_LE(ratios[1], 2.0 * ratios[0])
          << "16 calls: " << ratios[0] << ", 128 calls: " << ratios[1];
    }
  }
}

// ---- rollback-point index versus the whole-thread walk ----------------------

struct SteppedRun {
  std::size_t in_doubt = 0;  ///< (step, process) checks with a dependency
  std::uint64_t rollbacks = 0;
  std::uint64_t redelivered = 0;
  bool completed = false;
};

/// Run `scenario` one scheduler step at a time and, after every step,
/// require each process's rollback-point index to agree with a walk over
/// every tabled thread's rollback entries, and to hold no entries of a
/// thread outside the table (a kill or a zombie restore that kept them).
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
      for (const auto& [thread, entries] : proc.rollback_index().by_thread()) {
        if (proc.thread(thread) == nullptr) {
          ADD_FAILURE() << proc.name() << " after step " << steps
                        << ": untabled thread " << thread << " holds "
                        << entries.size() << " rollback entries";
          return out;
        }
      }
      if (index.any_unresolved) ++out.in_doubt;
    }
  }
  out.rollbacks = rt->total_stats().rollbacks;
  out.redelivered = rt->total_stats().messages_redelivered;
  out.completed = rt->all_clients_completed();
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

TEST(Gc, RollbackIndexMatchesWalkOnDeepStream) {
  // Fault-free and deep: forks inherit only their guard members' entries,
  // settled threads retire, and the index is read without filtering.
  const SteppedRun run = expect_index_matches_walk(
      core::putline_scenario(
          long_run(512, spec::RollbackStrategy::kCheckpointEveryInterval)),
      sim::seconds(60));
  EXPECT_GT(run.in_doubt, 0u);
  EXPECT_EQ(run.rollbacks, 0u);
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
  // The reference walks every tabled thread's rollback map after every
  // scheduler step; with settled threads retired that is the in-doubt
  // window, not every thread the run ever created.
  EXPECT_GT(expect_index_matches_walk(
                core::pipeline_scenario(
                    relay_pipeline(128, spec::ControlPlane::kTargeted)),
                sim::seconds(60))
                .in_doubt,
            0u);
}

TEST(Gc, RollbackIndexMatchesWalkOnReorderedRelays) {
  // The smallest reorder stall the discard path fixed: relay threads killed
  // because their own guess aborted requeue the inputs they had consumed.
  for (auto strategy : {spec::RollbackStrategy::kCheckpointEveryInterval,
                        spec::RollbackStrategy::kReplayFromLog}) {
    core::PipelineParams p;
    p.calls = 8;
    p.chain_depth = 2;
    p.stream_relays = true;
    p.net.jitter = sim::microseconds(50);
    p.net.fifo = false;
    p.spec.rollback = strategy;
    const SteppedRun run = expect_index_matches_walk(
        core::pipeline_scenario(p), sim::seconds(20));
    EXPECT_GT(run.in_doubt, 0u);
    EXPECT_GT(run.rollbacks, 0u);
    EXPECT_GT(run.redelivered, 0u);
    EXPECT_TRUE(run.completed);  // it stalled while the kills dropped them
  }
}

}  // namespace
}  // namespace ocsp
