// Determinism: a run is a pure function of its configuration and seed.
//
// This property is what makes the figure-level tests exact and the
// benchmarks reproducible, and it is easy to break accidentally (iteration
// over unordered containers, wall-clock leakage, RNG shared across
// processes).  These tests re-run workloads and require bit-identical
// recorded event streams, traces, and counters — and different seeds to
// actually produce different event timings where randomness is involved.
#include <gtest/gtest.h>

#include "core/workloads.h"
#include "obs/recorder.h"

namespace ocsp {
namespace {

/// Every recorded event of the run, one obs::to_string line each (with
/// its detail string, never the per-recorder id).
std::string events_of(const baseline::Scenario& scenario, bool spec) {
  auto rt = baseline::make_runtime(scenario, spec);
  rt->run(sim::seconds(120));
  std::string out;
  for (const auto& e : rt->recorder().events()) {
    out += rt->recorder().to_string(e) + "\n";
  }
  return out;
}

TEST(Determinism, PutLineRunsAreBitIdentical) {
  core::PutLineParams p;
  p.lines = 12;
  p.fail_probability = 0.3;
  p.net.jitter = sim::microseconds(200);
  auto scenario = core::putline_scenario(p);
  EXPECT_EQ(events_of(scenario, true), events_of(scenario, true));
  EXPECT_EQ(events_of(scenario, false), events_of(scenario, false));
}

TEST(Determinism, MutualCycleRunsAreBitIdentical) {
  core::MutualParams p;
  p.crossing = true;
  auto scenario = core::mutual_scenario(p);
  EXPECT_EQ(events_of(scenario, true), events_of(scenario, true));
}

TEST(Determinism, SeedsChangeJitteredTimings) {
  core::PutLineParams p;
  p.lines = 8;
  p.net.jitter = sim::microseconds(500);
  p.seed = 1;
  auto a = events_of(core::putline_scenario(p), true);
  p.seed = 2;
  auto b = events_of(core::putline_scenario(p), true);
  EXPECT_NE(a, b);
}

TEST(Determinism, SeedsChangeFailureOutcomes) {
  // The first PutLine failure ends the run, so the *number of lines
  // written* (and hence the completion time) varies with the seed.
  core::PutLineParams p;
  p.lines = 10;
  p.fail_probability = 0.5;
  std::set<sim::Time> completions;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    p.seed = seed;
    auto result = baseline::run_scenario(core::putline_scenario(p), true);
    completions.insert(result.last_completion);
  }
  EXPECT_GT(completions.size(), 1u);
}

TEST(Determinism, StatsIdenticalAcrossReruns) {
  core::DbFsParams p;
  p.transactions = 6;
  p.update_fail_probability = 0.4;
  auto scenario = core::db_fs_scenario(p);
  auto a = baseline::run_scenario(scenario, true);
  auto b = baseline::run_scenario(scenario, true);
  EXPECT_TRUE(a.stats == b.stats) << a.stats.to_string() << "\n"
                                  << b.stats.to_string();
  EXPECT_EQ(a.last_completion, b.last_completion);
  std::string why;
  EXPECT_TRUE(trace::compare_traces(a.trace, b.trace, &why)) << why;
}

TEST(Determinism, ReplayStrategyIdenticalToItself) {
  core::WriteThroughParams p;
  p.force_fault = true;
  p.transactions = 2;
  p.spec.rollback = spec::RollbackStrategy::kReplayFromLog;
  auto scenario = core::write_through_scenario(p);
  EXPECT_EQ(events_of(scenario, true), events_of(scenario, true));
}

}  // namespace
}  // namespace ocsp
