// Experiment F6 — Figure 6: successful parallelization of two processes.
//
// X and Z both speculate.  Z's guess z1 inherits X's guess x1 through a
// message, so Z's join publishes PRECEDENCE(z1, {x1}) and waits; when X
// commits x1 the COMMIT cascades and z1 commits too — two processes'
// speculations pipelined with no rollback.
#include "bench_common.h"

namespace ocsp::bench {
namespace {

core::MutualParams params() {
  core::MutualParams p;
  p.crossing = false;
  p.net.latency = sim::microseconds(200);
  p.service_time = sim::microseconds(20);
  return p;
}

void report() {
  print_header(
      "F6 — two mutually speculating processes, success (paper Figure 6)",
      "Claim: a guess may depend on another process's guess; PRECEDENCE\n"
      "publishes the ordering and the COMMIT cascade resolves the chain.");

  auto rt = baseline::make_runtime(core::mutual_scenario(params()), true);
  rt->run();
  std::printf("Scenario timeline:\n");
  print_timeline(rt->recorder());
  std::printf("\nprotocol: %s\n\n", rt->total_stats().to_string().c_str());

  auto [pess, opt] = run_both(core::mutual_scenario(params()));
  std::string why;
  util::Table table({"metric", "value"});
  table.row("precedence messages", opt.stats.precedence_sent);
  table.row("commits", opt.stats.commits);
  table.row("aborts", opt.stats.total_aborts());
  table.row("sequential completion ms", sim::to_millis(pess.last_completion));
  table.row("optimistic completion ms", sim::to_millis(opt.last_completion));
  table.row("speedup", speedup(pess, opt));
  table.row("traces match", trace::compare_traces(pess.trace, opt.trace, &why));
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Expected shape: >=1 PRECEDENCE, 2 commits, 0 aborts, and a\n"
              "speedup from overlapping both processes' round trips.\n\n");
}

void BM_Fig6Success(benchmark::State& state) {
  baseline::RunResult result;
  for (auto _ : state) {
    result = baseline::run_scenario(core::mutual_scenario(params()), true);
    benchmark::DoNotOptimize(result.last_completion);
  }
  set_counters(state, result);
}
BENCHMARK(BM_Fig6Success);

}  // namespace
}  // namespace ocsp::bench

OCSP_BENCH_MAIN(ocsp::bench::report)
