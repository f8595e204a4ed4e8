// Fault-tolerance stack: seeded fault plans injected into net::Network, the
// ack/retransmit transport, crash/recovery with incarnation filtering, and
// the adaptive speculation governor.
//
// The load-bearing test is the chaos sweep: 64 seeded fault plans spanning
// drop / duplicate / corrupt / partition / crash, each run checked against
// Theorem 1 — the committed trace under faults must equal the fault-free
// sequential run's trace exactly.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/workloads.h"
#include "fault/plan.h"
#include "net/latency.h"
#include "net/network.h"
#include "sim/scheduler.h"

namespace ocsp {
namespace {

using csp::Value;

class TestMessage final : public net::Message {
 public:
  explicit TestMessage(int n) : n_(n) {}
  std::string kind() const override { return "TEST"; }
  int n() const { return n_; }

 private:
  int n_;
};

// ---------------------------------------------------------------------------
// Satellite: fault injection draws from its own RNG stream, so enabling it
// never perturbs the latency draws of surviving messages.
// ---------------------------------------------------------------------------

TEST(FaultRng, LatencyDrawsUnperturbedByFaultHook) {
  auto run = [](bool faults) {
    sim::Scheduler sched;
    net::Network netw(sched, util::Rng(7));
    net::LinkConfig link;
    link.latency =
        net::uniform_latency(sim::microseconds(100), sim::microseconds(900));
    link.fifo = false;  // every send takes an independent latency draw
    netw.set_default_link(link);
    std::map<MsgId, sim::Time> first_delivery;
    netw.register_endpoint(1, [&](const net::Envelope& env) {
      first_delivery.emplace(env.id, sched.now());
    });
    int n = 0;  // outlives the hook, which runs during sched.run()
    if (faults) {
      netw.set_fault_hook([&n](const net::Envelope&, util::Rng& rng) {
        net::FaultDecision d;
        ++n;
        if (n % 3 == 0) d.drop = true;
        if (n % 2 == 0) d.duplicates = 1;
        d.cause = "test";
        // Burn extra fault-stream entropy: must not leak into latency.
        (void)rng.uniform01();
        return d;
      });
    }
    for (int i = 0; i < 24; ++i) {
      netw.send(0, 1, std::make_shared<TestMessage>(i));
    }
    sched.run();
    return first_delivery;
  };

  const auto clean = run(false);
  const auto faulty = run(true);
  ASSERT_EQ(clean.size(), 24u);
  EXPECT_LT(faulty.size(), clean.size());  // drops really happened
  for (const auto& [id, when] : faulty) {
    auto it = clean.find(id);
    ASSERT_NE(it, clean.end());
    EXPECT_EQ(it->second, when)
        << "fault injection perturbed the latency draw of message " << id;
  }
}

// ---------------------------------------------------------------------------
// Chaos sweep scaffolding: a PutLine run sized so the generated fault
// windows land inside it, with the full recovery stack switched on.
// ---------------------------------------------------------------------------

core::PutLineParams chaos_params() {
  core::PutLineParams p;
  p.lines = 10;
  p.service_time = sim::microseconds(200);
  p.client_compute = sim::microseconds(100);
  p.net.latency = sim::microseconds(500);
  // Control liveness on lossy/partitioned links: blind re-broadcast whose
  // 30 x 1ms window outlasts every outage the chaos spec can generate.
  p.spec.control_retry = true;
  p.spec.control_retry_interval = sim::milliseconds(1);
  p.spec.control_retry_limit = 30;
  p.spec.join_wait_timeout = sim::milliseconds(200);
  return p;
}

fault::ChaosSpec chaos_spec() {
  fault::ChaosSpec s;
  // The workload spans ~15-20 virtual ms; squeeze the fault windows into it.
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

// ---------------------------------------------------------------------------
// The oracle: 64 seeded plans, every committed trace equal to the
// fault-free sequential run.
// ---------------------------------------------------------------------------

TEST(ChaosSweep, TheoremOneHoldsForSixtyFourSeededPlans) {
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

    auto result = baseline::run_scenario(chaos_scenario(plan), true,
                                         sim::seconds(10));
    ASSERT_TRUE(result.all_completed)
        << "seed " << seed << " plan " << plan.describe() << "\n"
        << result.stats.to_string();
    std::string why;
    EXPECT_TRUE(trace::compare_traces(reference.trace, result.trace, &why))
        << "seed " << seed << " plan " << plan.describe() << ": " << why;
  }
  // The sweep must actually have exercised every fault class.
  EXPECT_GE(with_drop, 8);
  EXPECT_GE(with_dup, 8);
  EXPECT_GE(with_corrupt, 8);
  EXPECT_GE(with_partition, 8);
  EXPECT_GE(with_crash, 8);
}

// ---------------------------------------------------------------------------
// Satellite: determinism regression — same seed + same plan => identical
// committed trace and identical virtual finishing time.
// ---------------------------------------------------------------------------

TEST(ChaosSweep, SameSeedSamePlanReproducesExactly) {
  const fault::FaultPlan plan =
      fault::make_chaos_plan(5, chaos_spec(), 2);  // 5 % 6 -> mixed plan
  auto a = baseline::run_scenario(chaos_scenario(plan), true, sim::seconds(10));
  auto b = baseline::run_scenario(chaos_scenario(plan), true, sim::seconds(10));
  ASSERT_TRUE(a.all_completed);
  ASSERT_TRUE(b.all_completed);
  EXPECT_EQ(a.finished_at, b.finished_at);
  EXPECT_EQ(a.stats.total_aborts(), b.stats.total_aborts());
  EXPECT_EQ(a.network.faults_dropped, b.network.faults_dropped);
  std::string why;
  EXPECT_TRUE(trace::compare_traces(a.trace, b.trace, &why)) << why;
}

TEST(ChaosSweep, ZeroProbabilityPlanIsBitIdenticalToNoPlan) {
  auto vanilla =
      baseline::run_scenario(core::putline_scenario(chaos_params()), true);
  fault::FaultPlan noop;
  noop.enabled = true;  // hook installed, but nothing ever fires
  auto scenario = core::putline_scenario(chaos_params());
  scenario.options.fault_plan = noop;
  auto hooked = baseline::run_scenario(scenario, true);
  ASSERT_TRUE(vanilla.all_completed);
  ASSERT_TRUE(hooked.all_completed);
  EXPECT_EQ(vanilla.finished_at, hooked.finished_at);
  std::string why;
  EXPECT_TRUE(trace::compare_traces(vanilla.trace, hooked.trace, &why)) << why;
}

// ---------------------------------------------------------------------------
// Targeted recovery-layer tests.
// ---------------------------------------------------------------------------

TEST(Recovery, DuplicateStormIsSuppressed) {
  fault::FaultPlan plan;
  plan.enabled = true;
  plan.data.duplicate = 0.9;
  plan.control.duplicate = 0.9;
  auto result =
      baseline::run_scenario(chaos_scenario(plan), true, sim::seconds(10));
  ASSERT_TRUE(result.all_completed) << result.stats.to_string();
  EXPECT_GT(result.network.faults_duplicated, 0u);
  EXPECT_GT(result.metrics.counter_or("duplicates_suppressed"), 0u);
  auto reference =
      baseline::run_scenario(core::putline_scenario(chaos_params()), false);
  std::string why;
  EXPECT_TRUE(trace::compare_traces(reference.trace, result.trace, &why))
      << why;
}

TEST(Recovery, CorruptionIsRecoveredByRetransmission) {
  fault::FaultPlan plan;
  plan.enabled = true;
  plan.data.corrupt = 0.5;
  auto result =
      baseline::run_scenario(chaos_scenario(plan), true, sim::seconds(10));
  ASSERT_TRUE(result.all_completed) << result.stats.to_string();
  EXPECT_GT(result.network.faults_corrupted, 0u);
  EXPECT_GT(result.metrics.counter_or("retransmissions"), 0u);
  auto reference =
      baseline::run_scenario(core::putline_scenario(chaos_params()), false);
  std::string why;
  EXPECT_TRUE(trace::compare_traces(reference.trace, result.trace, &why))
      << why;
}

TEST(Recovery, PartitionHealsAndRunCompletes) {
  fault::FaultPlan plan;
  plan.enabled = true;
  plan.partitions.push_back(
      {0, 1, sim::milliseconds(2), sim::milliseconds(6)});
  auto result =
      baseline::run_scenario(chaos_scenario(plan), true, sim::seconds(10));
  ASSERT_TRUE(result.all_completed) << result.stats.to_string();
  EXPECT_GT(result.metrics.counter_or("fault_partition_drops"), 0u);
  auto reference =
      baseline::run_scenario(core::putline_scenario(chaos_params()), false);
  std::string why;
  EXPECT_TRUE(trace::compare_traces(reference.trace, result.trace, &why))
      << why;
}

TEST(Recovery, CrashRestartResumesFromCommittedState) {
  fault::FaultPlan plan;
  plan.enabled = true;
  plan.crashes.push_back({/*process=*/0, sim::microseconds(1500),
                          sim::milliseconds(4)});
  auto result =
      baseline::run_scenario(chaos_scenario(plan), true, sim::seconds(10));
  ASSERT_TRUE(result.all_completed) << result.stats.to_string();
  EXPECT_EQ(result.stats.crashes, 1u);
  EXPECT_EQ(result.stats.crash_recoveries, 1u);
  auto reference =
      baseline::run_scenario(core::putline_scenario(chaos_params()), false);
  std::string why;
  EXPECT_TRUE(trace::compare_traces(reference.trace, result.trace, &why))
      << why;
}

TEST(Recovery, ServerCrashParksFramesUntilRestart) {
  fault::FaultPlan plan;
  plan.enabled = true;
  plan.crashes.push_back({/*process=*/1, sim::milliseconds(1),
                          sim::milliseconds(4)});
  auto result =
      baseline::run_scenario(chaos_scenario(plan), true, sim::seconds(10));
  ASSERT_TRUE(result.all_completed) << result.stats.to_string();
  EXPECT_EQ(result.stats.crashes, 1u);
  EXPECT_GT(result.metrics.counter_or("parked_deliveries"), 0u);
  auto reference =
      baseline::run_scenario(core::putline_scenario(chaos_params()), false);
  std::string why;
  EXPECT_TRUE(trace::compare_traces(reference.trace, result.trace, &why))
      << why;
}

// ---------------------------------------------------------------------------
// Adaptive speculation governor.
// ---------------------------------------------------------------------------

core::AbortStormParams storm_params(bool governed) {
  core::AbortStormParams p;
  p.calls = 60;
  p.hit_period = 3;
  p.spec.governor_enabled = governed;
  return p;
}

TEST(Governor, DemotesStormingSiteAndCutsAborts) {
  auto off = baseline::run_scenario(
      core::abort_storm_scenario(storm_params(false)), true);
  auto on = baseline::run_scenario(
      core::abort_storm_scenario(storm_params(true)), true);
  ASSERT_TRUE(off.all_completed) << off.stats.to_string();
  ASSERT_TRUE(on.all_completed) << on.stats.to_string();

  // Without the governor the storm rages for the whole run: the periodic
  // hits keep resetting retry limit L, so roughly 2/3 of the 60 calls
  // abort.  With it, the EWMA breaker demotes the site.
  EXPECT_GE(off.stats.total_aborts(), 20u) << off.stats.to_string();
  EXPECT_EQ(off.stats.governor_demotions, 0u);
  EXPECT_GE(on.stats.governor_demotions, 1u) << on.stats.to_string();
  EXPECT_GT(on.stats.governor_sequential_forks, 0u);
  EXPECT_LT(on.stats.total_aborts(), off.stats.total_aborts());

  // Correctness is untouched either way.
  auto reference = baseline::run_scenario(
      core::abort_storm_scenario(storm_params(false)), false);
  std::string why;
  EXPECT_TRUE(trace::compare_traces(reference.trace, off.trace, &why)) << why;
  EXPECT_TRUE(trace::compare_traces(reference.trace, on.trace, &why)) << why;
}

TEST(Governor, HysteresisReenablesAfterCalm) {
  // Long run: the governed site's sequential passes decay the EWMA below
  // the promote threshold, so speculation resumes at least once.
  auto p = storm_params(true);
  p.calls = 120;
  auto result = baseline::run_scenario(core::abort_storm_scenario(p), true);
  ASSERT_TRUE(result.all_completed) << result.stats.to_string();
  EXPECT_GE(result.stats.governor_demotions, 1u);
  EXPECT_GE(result.stats.governor_promotions, 1u)
      << result.stats.to_string();
}

}  // namespace
}  // namespace ocsp
