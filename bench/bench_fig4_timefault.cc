// Experiment F4 — Figure 4: a time fault.
//
// X updates server Y (which writes through to Z) and speculatively writes
// to Z directly.  The speculative write overtakes Y's propagation at Z,
// the reply chain carries X's own guess back to X's left thread, and the
// join detects the happens-before cycle: x1 is aborted.
#include "bench_common.h"

namespace ocsp::bench {
namespace {

core::WriteThroughParams params_for(bool fault) {
  core::WriteThroughParams p;
  p.force_fault = fault;
  p.net.latency = sim::microseconds(200);
  p.service_time = sim::microseconds(10);
  return p;
}

void report() {
  print_header(
      "F4 — time fault detection (paper Figure 4)",
      "Claim: when X's speculative call reaches Z before the causally\n"
      "earlier Y->Z message, the cycle in happens-before is detected\n"
      "dynamically and the guess aborts.");

  std::printf("Faulting timeline (X->Z fast, Y->Z slow):\n");
  auto rt = baseline::make_runtime(
      core::write_through_scenario(params_for(true)), true);
  rt->run();
  print_timeline(rt->recorder());
  std::printf("\nprotocol: %s\n\n", rt->total_stats().to_string().c_str());

  util::Table table({"ordering", "time faults", "rollbacks", "orphans",
                     "completion ms", "traces match"});
  for (bool fault : {false, true}) {
    auto scenario = core::write_through_scenario(params_for(fault));
    auto [pess, opt] = run_both(scenario);
    std::string why;
    table.row(fault ? "violated (Fig 4)" : "holds",
              opt.stats.aborts_time_fault, opt.stats.rollbacks,
              opt.stats.orphans_discarded,
              sim::to_millis(opt.last_completion),
              trace::compare_traces(pess.trace, opt.trace, &why));
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Expected shape: exactly the violated ordering produces the "
              "time fault,\nand the run still converges to the sequential "
              "trace.\n\n");
}

void BM_TimeFaultScenario(benchmark::State& state) {
  const bool fault = state.range(0) != 0;
  baseline::RunResult result;
  for (auto _ : state) {
    result = baseline::run_scenario(
        core::write_through_scenario(params_for(fault)), true);
    benchmark::DoNotOptimize(result.last_completion);
  }
  set_counters(state, result);
}
BENCHMARK(BM_TimeFaultScenario)->Arg(0)->Arg(1);

}  // namespace
}  // namespace ocsp::bench

OCSP_BENCH_MAIN(ocsp::bench::report)
