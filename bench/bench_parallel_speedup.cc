// Experiment C14 — real wall-clock speedup from the parallel executor.
//
// Every other benchmark measures *virtual* time: the simulator proves the
// protocol wins round trips, but runs on one thread.  This one runs the
// same speculation protocol on exec::ParallelRuntime's sharded worker
// threads, turns each Compute statement into real wall time
// (ParallelOptions::compute_scale), and reports how the wall clock scales
// at 1/2/4/8 workers.
//
// Two burn modes, two claims:
//   - overlap (sleep burn): a worker emulating compute yields its core, so
//     the curve isolates how well the executor overlaps independent
//     shards' work.  Meaningful on any host, including single-core CI.
//   - CPU scaling (spin burn): a worker occupies its core, so the curve
//     shows raw multicore scaling and flattens at the core count.
// A third curve burns nothing: on a broadcast fan-out the wall clock is
// then all delivery, control processing and cross-shard handoff, the
// executor's own cost that burn hides.  It is printed only; it has no
// google-benchmark entry and no snapshot.
//
// Methodology split (EXPERIMENTS.md C14): everything deterministic —
// committed traces, commits, aborts, GVT windows — is CHECKed here and
// gated in CI via the committed JSON snapshot; wall-clock numbers are
// printed and attached as google-benchmark counters but never gated,
// because they depend on the machine.
#include "bench_common.h"

#include <thread>

#include "exec/parallel.h"
#include "trace/events.h"
#include "util/check.h"

namespace ocsp::bench {
namespace {

core::ComputeFanoutParams curve_params(int miss_period) {
  core::ComputeFanoutParams p;
  p.pairs = 8;
  p.calls = 8;
  p.compute = sim::microseconds(200);
  p.miss_period = miss_period;
  return p;
}

/// The control-plane curve's fan-out: broadcast control (the default), as
/// large as the end-to-end benchmark's at full size.
core::ComputeFanoutParams control_params() {
  core::ComputeFanoutParams p;
  p.pairs = smoke_mode() ? 16 : 64;
  p.calls = smoke_mode() ? 8 : 32;
  return p;
}

/// Wall-ns of emulated compute per virtual ns of Compute.  Smoke keeps CI
/// fast; the scale changes only the wall clock, never a gated counter.
double sleep_scale() { return smoke_mode() ? 2.0 : 20.0; }
double spin_scale() { return smoke_mode() ? 0.05 : 5.0; }

void curve_report(const std::string& title,
                  const core::ComputeFanoutParams& params, bool sleep_burn,
                  double scale) {
  const auto scenario = core::compute_fanout_scenario(params);
  baseline::Scenario seq = scenario;
  seq.options.per_link_net = true;
  const baseline::RunResult ref = baseline::run_scenario(seq, true);
  OCSP_CHECK(ref.all_completed);

  std::printf("%s\n", title.c_str());
  util::Table table({"workers", "wall ms", "speedup", "virt ms", "commits",
                     "aborts", "gvt windows"});
  double wall_1 = 0.0;
  for (int workers : {1, 2, 4, 8}) {
    const auto par = exec::run_scenario_parallel(
        scenario, workers, true, scale, sim::kTimeNever, sleep_burn);
    // The speedup claim is only worth reporting if the parallel run is the
    // *same computation*: exact committed-trace equality with the
    // deterministic simulator, at every worker count.
    std::string why;
    OCSP_CHECK_MSG(trace::compare_traces(ref.trace, par.result.trace, &why),
                   why.c_str());
    OCSP_CHECK(par.result.all_completed);
    const double wall_ms = static_cast<double>(par.wall_ns) / 1e6;
    if (workers == 1) wall_1 = wall_ms;
    table.row(workers, wall_ms, wall_ms > 0 ? wall_1 / wall_ms : 0.0,
              sim::to_millis(par.result.last_completion),
              par.result.stats.commits, par.result.stats.total_aborts(),
              par.windows.size());
  }
  std::printf("%s\n", table.to_string().c_str());
}

void report() {
  print_header(
      "C14 — wall-clock speedup of the sharded speculation executor",
      "Claim: the GVT-fenced parallel executor turns the protocol's\n"
      "virtual-time wins into real wall-clock speedup (> 1.5x at 4 workers\n"
      "on the overlap curve), while committing exactly the simulator's\n"
      "trace at every worker count.");

  std::printf("Host cores: %u\n\n", std::thread::hardware_concurrency());
  curve_report("Overlap curve (sleep burn, all guesses verify):",
               curve_params(0), /*sleep_burn=*/true, sleep_scale());
  curve_report("Overlap curve, every 4th guess misses (aborts discard real "
               "work):",
               curve_params(4), /*sleep_burn=*/true, sleep_scale());
  curve_report("CPU-scaling curve (spin burn; flattens at the core count):",
               curve_params(0), /*sleep_burn=*/false, spin_scale());
  const core::ComputeFanoutParams control = control_params();
  curve_report(std::string("Control-plane curve (no burn, broadcast "
                           "control, ") +
                   std::to_string(control.pairs) + " pairs x " +
                   std::to_string(control.calls) + " calls):",
               control, /*sleep_burn=*/false, /*scale=*/0.0);
  std::printf(
      "Expected shape: near-linear overlap scaling to 8 workers (one shard\n"
      "per client/server pair); the miss curve pays for re-executed compute\n"
      "but stays exact; the spin curve tracks min(workers, cores); the\n"
      "control-plane curve, with no burn to hide behind, shows what the\n"
      "executor's delivery and cross-shard handoff cost per worker count.\n"
      "Wall columns are machine-dependent and never gated; every other\n"
      "column is deterministic, and the CI bench gate snapshots the\n"
      "overlap curves' counters.\n\n");
}

void BM_ParallelSpeedup(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const auto scenario = core::compute_fanout_scenario(curve_params(0));
  exec::ParallelRunResult par;
  for (auto _ : state) {
    par = exec::run_scenario_parallel(scenario, workers, true, sleep_scale(),
                                      sim::kTimeNever, /*compute_sleep=*/true);
    benchmark::DoNotOptimize(par.result.last_completion);
  }
  set_counters(state, par.result, "parallel_w" + std::to_string(workers));
  // Wall-clock numbers ride on the google-benchmark report only (ungated).
  state.counters["wall_ms"] = static_cast<double>(par.wall_ns) / 1e6;
  state.counters["gvt_windows"] = static_cast<double>(par.windows.size());
}
BENCHMARK(BM_ParallelSpeedup)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_ParallelSpeedupWithMisses(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const auto scenario = core::compute_fanout_scenario(curve_params(4));
  exec::ParallelRunResult par;
  for (auto _ : state) {
    par = exec::run_scenario_parallel(scenario, workers, true, sleep_scale(),
                                      sim::kTimeNever, /*compute_sleep=*/true);
    benchmark::DoNotOptimize(par.result.last_completion);
  }
  set_counters(state, par.result,
               "parallel_miss_w" + std::to_string(workers));
  state.counters["wall_ms"] = static_cast<double>(par.wall_ns) / 1e6;
  state.counters["gvt_windows"] = static_cast<double>(par.windows.size());
}
BENCHMARK(BM_ParallelSpeedupWithMisses)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

}  // namespace
}  // namespace ocsp::bench

OCSP_BENCH_MAIN(ocsp::bench::report)
