// Experiment C13 — fault tolerance and graceful degradation.
//
// Claim: under seeded chaos (message drop/duplicate/corrupt on both planes,
// link partitions with heal windows, process crash/restart), the recovery
// stack — ack/retransmit data plane, blind control re-broadcast, crash
// recovery from committed state with incarnation filtering — keeps every
// run's committed trace exactly equal to the fault-free sequential run
// (Theorem 1).  And when sustained faults turn speculation into an abort
// storm, the adaptive governor demotes the storming fork site and cuts the
// wasted (discarded) virtual time, re-enabling speculation once the site
// calms down.
#include "bench_common.h"

#include "exec/parallel.h"
#include "fault/plan.h"

namespace ocsp::bench {
namespace {

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

const char* category_name(std::uint64_t seed) {
  switch (seed % 6) {
    case 0: return "drop";
    case 1: return "duplicate";
    case 2: return "corrupt";
    case 3: return "partition";
    case 4: return "crash";
    default: return "mixed";
  }
}

core::AbortStormParams storm_params(bool governed) {
  core::AbortStormParams p;
  p.calls = 60;
  p.hit_period = 3;
  p.spec.governor_enabled = governed;
  return p;
}

std::int64_t wasted_ns_of(const baseline::RunResult& result) {
  if (!result.recorder) return 0;
  return obs::build_attribution(*result.recorder, result.process_names)
      .wasted_total_ns;
}

void report() {
  print_header(
      "C13 — fault tolerance and graceful degradation",
      "Claim: the recovery stack (retransmit + dedup, control re-broadcast,\n"
      "crash recovery with incarnation filtering) keeps the committed trace\n"
      "of every seeded chaos plan equal to the fault-free sequential run;\n"
      "the adaptive governor then bounds the wasted work an abort storm\n"
      "can cause, with hysteresis re-enable.");

  // ---- chaos sweep: Theorem 1 against the fault-free sequential run ------
  const auto reference =
      baseline::run_scenario(core::putline_scenario(chaos_params()), false);
  OCSP_CHECK(reference.all_completed);

  struct Bucket {
    int runs = 0;
    std::uint64_t faults = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t aborts = 0;
    std::uint64_t crashes = 0;
    double virt_ms = 0;
  };
  std::map<std::string, Bucket> buckets;
  const std::uint64_t plans = smoke_mode() ? 18 : 64;
  std::uint64_t divergences = 0;
  for (std::uint64_t seed = 0; seed < plans; ++seed) {
    const fault::FaultPlan plan =
        fault::make_chaos_plan(seed, chaos_spec(), /*num_processes=*/2);
    auto result = baseline::run_scenario(chaos_scenario(plan), true,
                                         sim::seconds(10));
    OCSP_CHECK_MSG(result.all_completed,
                   ("chaos seed " + std::to_string(seed) + " stalled: " +
                    plan.describe()).c_str());
    std::string why;
    if (!trace::compare_traces(reference.trace, result.trace, &why)) {
      std::printf("  DIVERGENCE seed %llu plan %s: %s\n",
                  static_cast<unsigned long long>(seed),
                  plan.describe().c_str(), why.c_str());
      ++divergences;
    }
    Bucket& b = buckets[category_name(seed)];
    ++b.runs;
    b.faults += result.metrics.counter_or("faults_injected") +
                result.network.faults_dropped +
                result.network.faults_corrupted +
                result.network.faults_duplicated;
    b.retransmissions += result.metrics.counter_or("retransmissions");
    b.aborts += result.stats.total_aborts();
    b.crashes += result.stats.crashes;
    b.virt_ms += sim::to_millis(result.last_completion);
  }

  util::Table sweep({"category", "plans", "faults", "retransmits", "aborts",
                     "crashes", "avg_virt_ms"});
  for (const auto& [name, b] : buckets) {
    char avg[32];
    std::snprintf(avg, sizeof(avg), "%.3f", b.virt_ms / b.runs);
    sweep.row(name, b.runs, b.faults, b.retransmissions, b.aborts, b.crashes,
              avg);
  }
  std::printf("%s\n", sweep.to_string().c_str());
  std::printf("chaos sweep: %llu plans, %llu trace divergences\n\n",
              static_cast<unsigned long long>(plans),
              static_cast<unsigned long long>(divergences));
  OCSP_CHECK(divergences == 0);

  // ---- chaos under sharding: the same oracle at every worker count -------
  // One row per plan, one column per width: faults are injected on the
  // sender's shard from per-link fault streams, so the counters — and the
  // committed trace — must not depend on the worker count.
  {
    const std::vector<int> widths =
        smoke_mode() && workers_override() == 0 ? std::vector<int>{2, 4}
                                                : sweep_workers();
    const std::uint64_t par_plans = smoke_mode() ? 6 : 12;
    std::vector<std::string> headers = {"seed", "category", "faults",
                                        "retransmits"};
    for (int w : widths) {
      headers.push_back(std::string("w") + std::to_string(w) + "_ms");
    }
    util::Table par_sweep(headers);
    std::uint64_t par_divergences = 0;
    for (std::uint64_t seed = 0; seed < par_plans; ++seed) {
      const fault::FaultPlan plan =
          fault::make_chaos_plan(seed, chaos_spec(), /*num_processes=*/2);
      const auto scenario = chaos_scenario(plan);
      std::vector<std::string> row = {std::to_string(seed),
                                      category_name(seed), "", ""};
      for (int w : widths) {
        const auto par = exec::run_scenario_parallel(
            scenario, w, /*speculation=*/true, /*compute_scale=*/0.0,
            sim::seconds(10));
        OCSP_CHECK_MSG(par.result.all_completed,
                       ("parallel chaos seed " + std::to_string(seed) +
                        " stalled at workers=" + std::to_string(w))
                           .c_str());
        std::string why;
        if (!trace::compare_traces(reference.trace, par.result.trace, &why)) {
          std::printf("  DIVERGENCE seed %llu workers %d: %s\n",
                      static_cast<unsigned long long>(seed), w, why.c_str());
          ++par_divergences;
        }
        row[2] = std::to_string(
            par.result.metrics.counter_or("faults_injected") +
            par.result.network.faults_dropped +
            par.result.network.faults_corrupted +
            par.result.network.faults_duplicated);
        row[3] = std::to_string(
            par.result.metrics.counter_or("retransmissions"));
        char ms[32];
        std::snprintf(ms, sizeof(ms), "%.3f",
                      sim::to_millis(par.result.last_completion));
        row.push_back(ms);
      }
      par_sweep.add_row(row);
    }
    std::printf("%s\n", par_sweep.to_string().c_str());
    std::printf("parallel chaos sweep: %llu plans x %zu widths, "
                "%llu trace divergences\n\n",
                static_cast<unsigned long long>(par_plans), widths.size(),
                static_cast<unsigned long long>(par_divergences));
    OCSP_CHECK(par_divergences == 0);
  }

  // ---- governor: wasted work before/after under an abort storm ----------
  auto storm_reference = baseline::run_scenario(
      core::abort_storm_scenario(storm_params(false)), false);
  auto off = baseline::run_scenario(
      core::abort_storm_scenario(storm_params(false)), true);
  auto on = baseline::run_scenario(
      core::abort_storm_scenario(storm_params(true)), true);
  OCSP_CHECK(storm_reference.all_completed && off.all_completed &&
             on.all_completed);
  std::string why;
  OCSP_CHECK_MSG(
      trace::compare_traces(storm_reference.trace, off.trace, &why),
      why.c_str());
  OCSP_CHECK_MSG(trace::compare_traces(storm_reference.trace, on.trace, &why),
                 why.c_str());

  const std::int64_t wasted_off = wasted_ns_of(off);
  const std::int64_t wasted_on = wasted_ns_of(on);
  util::Table storm({"governor", "virt_ms", "aborts", "seq_forks",
                     "demotions", "promotions", "wasted_ms"});
  auto ms = [](std::int64_t ns) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
    return std::string(buf);
  };
  storm.row("off", sim::to_millis(off.last_completion),
            off.stats.total_aborts(), off.stats.sequential_forks,
            off.stats.governor_demotions, off.stats.governor_promotions,
            ms(wasted_off));
  storm.row("on", sim::to_millis(on.last_completion),
            on.stats.total_aborts(), on.stats.sequential_forks,
            on.stats.governor_demotions, on.stats.governor_promotions,
            ms(wasted_on));
  std::printf("%s\n", storm.to_string().c_str());
  std::printf(
      "Expected shape: without the governor the periodic hits keep retry\n"
      "limit L reset, so ~2/3 of the storm's forks abort for the whole run;\n"
      "the governor's EWMA breaker demotes the site after a handful of\n"
      "samples, slashing the wasted (discarded) virtual time, and its\n"
      "hysteresis re-enables speculation whenever the site calms down.\n\n");

  // Acceptance gates: the storm is real, the governor engages, and it
  // strictly cuts both aborts and wasted time.
  OCSP_CHECK(off.stats.total_aborts() >= 20);
  OCSP_CHECK(on.stats.governor_demotions >= 1);
  OCSP_CHECK(on.stats.governor_sequential_forks > 0);
  OCSP_CHECK(on.stats.total_aborts() < off.stats.total_aborts());
  OCSP_CHECK(wasted_on < wasted_off);

  // ---- governor under sharding ------------------------------------------
  // The breaker's EWMA lives in the process, the schedule is the per-link
  // deterministic one, so its demote/promote decisions must be identical
  // to the sequential per-link run — sharding changes nothing.
  {
    const int width = workers_override() > 0 ? workers_override() : 2;
    auto on_seq_scenario = core::abort_storm_scenario(storm_params(true));
    on_seq_scenario.options.per_link_net = true;
    const auto on_seq = baseline::run_scenario(on_seq_scenario, true);
    const auto off_par = exec::run_scenario_parallel(
        core::abort_storm_scenario(storm_params(false)), width, true);
    const auto on_par = exec::run_scenario_parallel(
        core::abort_storm_scenario(storm_params(true)), width, true);
    OCSP_CHECK(off_par.result.all_completed && on_par.result.all_completed);
    OCSP_CHECK_MSG(trace::compare_traces(storm_reference.trace,
                                         off_par.result.trace, &why),
                   why.c_str());
    OCSP_CHECK_MSG(trace::compare_traces(storm_reference.trace,
                                         on_par.result.trace, &why),
                   why.c_str());

    const std::int64_t wasted_off_par = wasted_ns_of(off_par.result);
    const std::int64_t wasted_on_par = wasted_ns_of(on_par.result);
    util::Table sharded({"governor", "workers", "aborts", "seq_forks",
                         "demotions", "promotions", "wasted_ms"});
    sharded.row("off", width, off_par.result.stats.total_aborts(),
                off_par.result.stats.sequential_forks,
                off_par.result.stats.governor_demotions,
                off_par.result.stats.governor_promotions,
                ms(wasted_off_par));
    sharded.row("on", width, on_par.result.stats.total_aborts(),
                on_par.result.stats.sequential_forks,
                on_par.result.stats.governor_demotions,
                on_par.result.stats.governor_promotions,
                ms(wasted_on_par));
    std::printf("%s\n", sharded.to_string().c_str());

    // Same gates as the sequential storm, plus width-invariance of the
    // breaker's decisions (demote and hysteresis re-enable alike).
    OCSP_CHECK(off_par.result.stats.total_aborts() >= 20);
    OCSP_CHECK(on_par.result.stats.governor_demotions >= 1);
    OCSP_CHECK(on_par.result.stats.governor_sequential_forks > 0);
    OCSP_CHECK(on_par.result.stats.total_aborts() <
               off_par.result.stats.total_aborts());
    OCSP_CHECK(wasted_on_par < wasted_off_par);
    OCSP_CHECK(on_par.result.stats.governor_demotions ==
               on_seq.stats.governor_demotions);
    OCSP_CHECK(on_par.result.stats.governor_promotions ==
               on_seq.stats.governor_promotions);
  }
}

void BM_ChaosPutline(benchmark::State& state) {
  const auto seed = static_cast<std::uint64_t>(state.range(0));
  const fault::FaultPlan plan = fault::make_chaos_plan(seed, chaos_spec(), 2);
  baseline::RunResult result;
  for (auto _ : state) {
    result =
        baseline::run_scenario(chaos_scenario(plan), true, sim::seconds(10));
    benchmark::DoNotOptimize(result.last_completion);
  }
  set_counters(state, result,
               std::string("chaos/") + category_name(seed) + "/seed" +
                   std::to_string(seed));
  state.counters["faults_injected"] =
      static_cast<double>(result.metrics.counter_or("faults_injected"));
  state.counters["retransmissions"] =
      static_cast<double>(result.metrics.counter_or("retransmissions"));
  state.counters["crashes"] = static_cast<double>(result.stats.crashes);
}
BENCHMARK(BM_ChaosPutline)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Arg(5);

void BM_ParallelChaos(benchmark::State& state) {
  const auto seed = static_cast<std::uint64_t>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  const fault::FaultPlan plan = fault::make_chaos_plan(seed, chaos_spec(), 2);
  const auto scenario = chaos_scenario(plan);
  exec::ParallelRunResult par;
  for (auto _ : state) {
    par = exec::run_scenario_parallel(scenario, workers, /*speculation=*/true,
                                      /*compute_scale=*/0.0, sim::seconds(10));
    benchmark::DoNotOptimize(par.result.last_completion);
  }
  set_counters(state, par.result,
               "parallel_chaos/w" + std::to_string(workers) + "/seed" +
                   std::to_string(seed));
  state.counters["faults_injected"] =
      static_cast<double>(par.result.metrics.counter_or("faults_injected"));
  state.counters["retransmissions"] =
      static_cast<double>(par.result.metrics.counter_or("retransmissions"));
  state.counters["crashes"] = static_cast<double>(par.result.stats.crashes);
  state.counters["gvt_windows"] = static_cast<double>(par.windows.size());
}
BENCHMARK(BM_ParallelChaos)
    ->Args({4, 2})
    ->Args({4, 4})
    ->Args({5, 2})
    ->Args({5, 4});

void BM_GovernorStorm(benchmark::State& state) {
  const bool governed = state.range(0) != 0;
  baseline::RunResult result;
  for (auto _ : state) {
    result = baseline::run_scenario(
        core::abort_storm_scenario(storm_params(governed)), true);
    benchmark::DoNotOptimize(result.last_completion);
  }
  set_counters(state, result,
               std::string("storm/governor_") + (governed ? "on" : "off"));
  state.counters["governor_demotions"] =
      static_cast<double>(result.stats.governor_demotions);
  state.counters["governor_sequential_forks"] =
      static_cast<double>(result.stats.governor_sequential_forks);
}
BENCHMARK(BM_GovernorStorm)->Arg(0)->Arg(1);

}  // namespace
}  // namespace ocsp::bench

OCSP_BENCH_MAIN(ocsp::bench::report)
