// Faults under sharding: the robustness stack (seeded fault plans, the
// ack/retransmit transport, crash/restart with incarnation recovery) on
// exec::ParallelRuntime's worker threads.
//
// The load-bearing test is the parallel chaos sweep: every seeded fault
// plan, at every worker count, must commit exactly the fault-free
// sequential run's trace (Theorem 1).  Fault decisions draw from per-link
// fault streams, so a single shard must also reproduce the sequential
// fault-injected recorder stream bit for bit; and a crash on one shard
// must unwind dependent speculation on another shard through incarnation
// tags alone, even when every explicit ABORT is lost with the crash.
#include <gtest/gtest.h>

#include <string>

#include "baseline/scenario.h"
#include "core/workloads.h"
#include "event_text.h"
#include "exec/parallel.h"
#include "fault/plan.h"
#include "net/message.h"
#include "trace/events.h"

namespace ocsp {
namespace {

using test::serialize_events;

constexpr int kWorkerCounts[] = {1, 2, 4, 8};
constexpr sim::Time kDeadline = sim::seconds(10);

// Same chaos scaffolding as fault_tolerance_test: a PutLine run sized so
// the generated fault windows land inside it, full recovery stack on.
core::PutLineParams chaos_params() {
  core::PutLineParams p;
  p.lines = 10;
  p.service_time = sim::microseconds(200);
  p.client_compute = sim::microseconds(100);
  p.net.latency = sim::microseconds(500);
  p.spec.control_retry = true;
  p.spec.control_retry_interval = sim::milliseconds(1);
  p.spec.control_retry_limit = 30;
  p.spec.join_wait_timeout = sim::milliseconds(200);
  return p;
}

fault::ChaosSpec chaos_spec() {
  fault::ChaosSpec s;
  s.horizon = sim::milliseconds(20);
  s.partition_min_len = sim::milliseconds(1);
  s.partition_max_len = sim::milliseconds(5);
  s.crash_min_downtime = sim::milliseconds(1);
  s.crash_max_downtime = sim::milliseconds(4);
  return s;
}

baseline::Scenario chaos_scenario(const fault::FaultPlan& plan) {
  auto scenario = core::putline_scenario(chaos_params());
  scenario.options.fault_plan = plan;
  scenario.options.reliable.enabled = true;
  return scenario;
}

// Build a ParallelRuntime for `scenario` by hand (run_scenario_parallel
// minus the RunResult plumbing) so tests can reach per-process stats and
// per-shard recorders.
exec::ParallelRuntime make_parallel(const baseline::Scenario& scenario,
                                    int workers) {
  exec::ParallelOptions options;
  options.seed = scenario.options.seed;
  options.workers = workers;
  options.default_link = scenario.options.default_link;
  options.spec = scenario.options.spec;
  options.spec.speculation_enabled = true;
  options.fault_plan = scenario.options.fault_plan;
  options.reliable = scenario.options.reliable;
  return exec::ParallelRuntime(options);
}

void populate(exec::ParallelRuntime& rt, const baseline::Scenario& scenario) {
  for (const auto& proc : scenario.processes) {
    rt.add_process(proc.name, proc.program, proc.env);
  }
  for (const auto& link : scenario.links) {
    rt.set_link(rt.find(link.src), rt.find(link.dst), link.config);
  }
}

// ---------------------------------------------------------------------------
// The tentpole oracle: 64 seeded plans x every worker count, every
// committed trace equal to the fault-free sequential run.
// ---------------------------------------------------------------------------

TEST(ParallelChaos, TheoremOneHoldsAtEveryWorkerCount) {
  const auto reference =
      baseline::run_scenario(core::putline_scenario(chaos_params()), false);
  ASSERT_TRUE(reference.all_completed);

  int with_drop = 0, with_dup = 0, with_corrupt = 0, with_partition = 0,
      with_crash = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const fault::FaultPlan plan =
        fault::make_chaos_plan(seed, chaos_spec(), /*num_processes=*/2);
    ASSERT_TRUE(plan.enabled);
    if (plan.data.drop > 0 || plan.control.drop > 0) ++with_drop;
    if (plan.data.duplicate > 0 || plan.control.duplicate > 0) ++with_dup;
    if (plan.data.corrupt > 0 || plan.control.corrupt > 0) ++with_corrupt;
    if (!plan.partitions.empty()) ++with_partition;
    if (!plan.crashes.empty()) ++with_crash;

    const auto scenario = chaos_scenario(plan);
    for (int workers : kWorkerCounts) {
      const auto par = exec::run_scenario_parallel(
          scenario, workers, /*speculation=*/true, /*compute_scale=*/0.0,
          kDeadline);
      ASSERT_TRUE(par.result.all_completed)
          << "seed " << seed << " workers " << workers << " plan "
          << plan.describe() << "\n"
          << par.result.stats.to_string();
      std::string why;
      EXPECT_TRUE(
          trace::compare_traces(reference.trace, par.result.trace, &why))
          << "seed " << seed << " workers " << workers << " plan "
          << plan.describe() << ": " << why;
    }
  }
  // The sweep must actually have exercised every fault class.
  EXPECT_GE(with_drop, 8);
  EXPECT_GE(with_dup, 8);
  EXPECT_GE(with_corrupt, 8);
  EXPECT_GE(with_partition, 8);
  EXPECT_GE(with_crash, 8);
}

// Every protocol counter and every metrics counter agrees with the
// sequential run of the same plan (both sides inject the same faults when
// the schedule is the per-link deterministic one, and free speculation
// state through the same sweep); only the executor's own gvt_windows has
// no sequential counterpart.
TEST(ParallelChaos, FaultCountersMatchSequentialPerLinkRun) {
  for (std::uint64_t seed : {1ull, 4ull, 5ull}) {  // drop, crash, mixed
    const fault::FaultPlan plan = fault::make_chaos_plan(seed, chaos_spec(), 2);
    auto scenario = chaos_scenario(plan);
    baseline::Scenario seq = scenario;
    seq.options.per_link_net = true;
    const auto ref = baseline::run_scenario(seq, true, kDeadline);
    ASSERT_TRUE(ref.all_completed);
    for (int workers : {1, 4}) {
      const std::string label =
          "seed " + std::to_string(seed) + " workers " +
          std::to_string(workers);
      const auto par = exec::run_scenario_parallel(scenario, workers, true,
                                                   0.0, kDeadline);
      EXPECT_TRUE(ref.stats == par.result.stats)
          << label << "\n  sequential: " << ref.stats.to_string()
          << "\n  parallel:   " << par.result.stats.to_string();
      auto counters = par.result.metrics.counters();
      EXPECT_EQ(counters.erase("gvt_windows"), 1u) << label;
      EXPECT_EQ(ref.metrics.counters(), counters) << label;
    }
  }
}

// ---------------------------------------------------------------------------
// Workers=1 bit-for-bit: the single shard must reproduce the sequential
// fault-injected recorder stream exactly — including kFaultInjected,
// kRetransmit, kDuplicateSuppressed, and the crash/recovery events.
// ---------------------------------------------------------------------------

TEST(ParallelChaos, SingleShardReproducesFaultInjectedStreamBitForBit) {
  // One seed per chaos category (seed % 6 selects it).
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const fault::FaultPlan plan = fault::make_chaos_plan(seed, chaos_spec(), 2);
    const auto scenario = chaos_scenario(plan);

    baseline::Scenario seq = scenario;
    seq.options.per_link_net = true;
    auto rt = baseline::make_runtime(seq, true);
    rt->run(kDeadline);

    exec::ParallelRuntime prt = make_parallel(scenario, /*workers=*/1);
    populate(prt, scenario);
    prt.run(kDeadline);

    EXPECT_EQ(serialize_events(rt->recorder()),
              serialize_events(*prt.shard_recorder(0)))
        << "seed " << seed << " plan " << plan.describe();
  }
}

// ---------------------------------------------------------------------------
// Cross-shard incarnation propagation: a crash on shard A must unwind a
// dependent guess on shard B through the incarnation tags piggybacked on
// reliable frames, even when every explicit ABORT is lost with the crash.
// ---------------------------------------------------------------------------

TEST(ParallelChaos, CrashUnwindsCrossShardDependentsWithoutExplicitAborts) {
  // Client X (shard 0) speculates against server Y (shard 1) with genuine
  // guess misses in the mix, then crashes mid-stream while a partition
  // spanning the crash eats everything in flight — including the explicit
  // ABORTs of X's failed guesses.  Y's unwinding therefore leans on the
  // incarnation machinery crossing the shard boundary: the bump reaches
  // Y's shard through X's shard's outbox (frame tags and the surviving
  // control re-broadcasts), dead-incarnation traffic is filtered as
  // orphans, and the rollback fixpoint runs on Y's own shard.
  core::PutLineParams params = chaos_params();
  params.fail_probability = 0.3;  // pre-crash misses: real ABORTs in flight
  const auto reference =
      baseline::run_scenario(core::putline_scenario(params), false);
  ASSERT_TRUE(reference.all_completed);

  fault::FaultPlan plan;
  plan.enabled = true;
  plan.crashes.push_back(
      {/*process=*/0, sim::microseconds(1500), sim::milliseconds(4)});
  plan.partitions.push_back(
      {0, 1, sim::microseconds(1000), sim::milliseconds(4)});
  auto scenario = core::putline_scenario(params);
  scenario.options.fault_plan = plan;
  scenario.options.reliable.enabled = true;

  // Client X lands on shard 0 and server Y on shard 1 at both widths.
  for (int workers : {2, 4}) {
    exec::ParallelRuntime prt = make_parallel(scenario, workers);
    populate(prt, scenario);
    prt.run(kDeadline);

    ASSERT_TRUE(prt.all_clients_completed())
        << "workers " << workers << "\n" << prt.total_stats().to_string();
    const auto stats = prt.total_stats();
    EXPECT_EQ(stats.crashes, 1u) << "workers " << workers;
    EXPECT_EQ(stats.crash_recoveries, 1u) << "workers " << workers;
    // The dependent really unwound on Y's shard...
    const auto& y = prt.process(prt.find("Y")).stats();
    EXPECT_GE(y.aborts_cascade + y.rollbacks, 1u) << "workers " << workers;
    // ...and Y filtered traffic from X's dead incarnation, which requires
    // the incarnation bump to have crossed the shard boundary.
    EXPECT_GE(y.orphans_discarded, 1u) << "workers " << workers;
    std::string why;
    EXPECT_TRUE(
        trace::compare_traces(reference.trace, prt.committed_trace(), &why))
        << "workers " << workers << ": " << why;
  }
}

// ---------------------------------------------------------------------------
// Reliable transport under sharding: heavy data drop forces cross-shard
// retransmissions (RTO timers on the sender's shard), and the run still
// commits the exact fault-free trace.
// ---------------------------------------------------------------------------

TEST(ParallelChaos, RetransmissionsRecoverCrossShardDrops) {
  const auto reference =
      baseline::run_scenario(core::putline_scenario(chaos_params()), false);
  ASSERT_TRUE(reference.all_completed);

  fault::FaultPlan plan;
  plan.enabled = true;
  plan.data.drop = 0.4;
  const auto scenario = chaos_scenario(plan);
  for (int workers : {2, 8}) {
    const auto par =
        exec::run_scenario_parallel(scenario, workers, true, 0.0, kDeadline);
    ASSERT_TRUE(par.result.all_completed)
        << "workers " << workers << "\n" << par.result.stats.to_string();
    EXPECT_GT(par.result.network.faults_dropped, 0u) << "workers " << workers;
    EXPECT_GT(par.result.metrics.counter_or("retransmissions"), 0u)
        << "workers " << workers;
    std::string why;
    EXPECT_TRUE(
        trace::compare_traces(reference.trace, par.result.trace, &why))
        << "workers " << workers << ": " << why;
  }
}

}  // namespace
}  // namespace ocsp
