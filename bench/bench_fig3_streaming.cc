// Experiment F3 — Figure 3: successful optimistic call streaming.
//
// The same PutLine workload with the call streaming transformation: the
// runtime forks a guess-guarded thread per call, the calls leave back to
// back, and the guard sets on the wire show the dependency tracking
// ({x1} on the second call, etc.).  Every guess commits; the committed
// trace equals the sequential one.
#include "bench_common.h"

namespace ocsp::bench {
namespace {

core::PutLineParams params_for(int lines, sim::Time latency) {
  core::PutLineParams p;
  p.lines = lines;
  p.net.latency = latency;
  p.service_time = sim::microseconds(10);
  p.client_compute = sim::microseconds(5);
  return p;
}

void report() {
  print_header(
      "F3 — successful call streaming (paper Figure 3)",
      "Claim: the transformed client overlaps all round trips; guard sets\n"
      "propagate on messages and every guess commits without rollback.");

  std::printf("Scenario timeline (4 calls, 500us one-way latency) — note\n"
              "the guard tags {g(P0.0.n)} on the streamed calls:\n");
  auto scenario = core::putline_scenario(
      params_for(4, sim::microseconds(500)));
  auto rt = baseline::make_runtime(scenario, true);
  rt->run();
  print_timeline(rt->recorder());
  std::printf("\nprotocol: %s\n", rt->total_stats().to_string().c_str());

  std::printf("\nSequential vs streamed completion:\n");
  util::Table table({"calls", "sequential ms", "streamed ms", "speedup",
                     "commits", "aborts"});
  for (int lines : {1, 2, 4, 8, 16, 32}) {
    auto scen = core::putline_scenario(
        params_for(lines, sim::microseconds(500)));
    auto [pess, opt] = run_both(scen);
    table.row(lines, sim::to_millis(pess.last_completion),
              sim::to_millis(opt.last_completion), speedup(pess, opt),
              opt.stats.commits, opt.stats.total_aborts());
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Expected shape: streamed time ~ 1 RTT + calls x service; "
              "speedup grows\nwith call count toward RTT/service.\n\n");
}

void BM_StreamedPutLine(benchmark::State& state) {
  const int lines = static_cast<int>(state.range(0));
  baseline::RunResult result;
  for (auto _ : state) {
    result = baseline::run_scenario(
        core::putline_scenario(params_for(lines, sim::microseconds(500))),
        true);
    benchmark::DoNotOptimize(result.last_completion);
  }
  set_counters(state, result);
}
BENCHMARK(BM_StreamedPutLine)->Arg(4)->Arg(16)->Arg(64);

}  // namespace
}  // namespace ocsp::bench

OCSP_BENCH_MAIN(ocsp::bench::report)
