// Experiment F7 — Figure 7: aborted parallelization of two processes.
//
// The two speculative sends cross: X's guess ends up depending on Z's and
// vice versa.  The PRECEDENCE exchange closes the cycle x1 -> z1 -> x1 in
// the commit dependency graphs; both processes abort their guesses, the
// contaminated servers roll back, and both sides re-execute pessimistically.
#include "bench_common.h"

namespace ocsp::bench {
namespace {

core::MutualParams params() {
  core::MutualParams p;
  p.crossing = true;
  p.net.latency = sim::microseconds(200);
  p.service_time = sim::microseconds(20);
  return p;
}

void report() {
  print_header(
      "F7 — mutual speculation cycle, both abort (paper Figure 7)",
      "Claim: crossing speculations create a causal cycle; every guess on\n"
      "the cycle aborts and the system converges to a valid sequential\n"
      "outcome.");

  auto rt = baseline::make_runtime(core::mutual_scenario(params()), true);
  rt->run();
  std::printf("Scenario timeline (protocol events only):\n");
  print_timeline(rt->recorder(), /*include_messages=*/false);
  std::printf("\nprotocol: %s\n\n", rt->total_stats().to_string().c_str());

  auto [pess, opt] = run_both(core::mutual_scenario(params()));
  util::Table table({"metric", "pessimistic", "optimistic"});
  table.row("time-fault aborts", pess.stats.aborts_time_fault,
            opt.stats.aborts_time_fault);
  table.row("rollbacks", pess.stats.rollbacks, opt.stats.rollbacks);
  table.row("precedence messages", pess.stats.precedence_sent,
            opt.stats.precedence_sent);
  table.row("completion ms", sim::to_millis(pess.last_completion),
            sim::to_millis(opt.last_completion));
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Expected shape: both guesses abort (2 time faults), several\n"
      "rollbacks across the four processes, and the optimistic run pays a\n"
      "penalty relative to sequential — the price of guessing wrong, paid\n"
      "only when the cycle actually occurs.\n\n");
}

void BM_Fig7Cycle(benchmark::State& state) {
  baseline::RunResult result;
  for (auto _ : state) {
    result = baseline::run_scenario(core::mutual_scenario(params()), true);
    benchmark::DoNotOptimize(result.last_completion);
  }
  set_counters(state, result);
}
BENCHMARK(BM_Fig7Cycle);

}  // namespace
}  // namespace ocsp::bench

OCSP_BENCH_MAIN(ocsp::bench::report)
