// Experiment F1/F2 — Figures 1 and 2: the sequential client.
//
// Process X makes blocking PutLine calls to process Y; every call costs a
// full round trip plus service time, so total time grows linearly in
// calls x RTT.  This is the baseline every other experiment is measured
// against.
#include "bench_common.h"

namespace ocsp::bench {
namespace {

core::PutLineParams params_for(int lines, sim::Time latency) {
  core::PutLineParams p;
  p.lines = lines;
  p.net.latency = latency;
  p.service_time = sim::microseconds(10);
  p.client_compute = sim::microseconds(5);
  p.stream = false;  // untransformed program: Figure 1's code as written
  return p;
}

void report() {
  print_header(
      "F1/F2 — sequential execution (paper Figures 1 and 2)",
      "Claim: without streaming, process X waits a full round trip per "
      "call;\ncompletion time = calls x (RTT + service).");

  std::printf("Scenario timeline (4 calls, 500us one-way latency):\n");
  auto scenario = core::putline_scenario(
      params_for(4, sim::microseconds(500)));
  auto rt = baseline::make_runtime(scenario, false);
  rt->run();
  print_timeline(rt->recorder());

  std::printf("\nCompletion time vs call count (one-way latency 500us):\n");
  util::Table table({"calls", "completion ms", "ms per call", "messages"});
  for (int lines : {1, 2, 4, 8, 16, 32}) {
    auto result = baseline::run_scenario(
        core::putline_scenario(params_for(lines, sim::microseconds(500))),
        false);
    table.row(lines, sim::to_millis(result.last_completion),
              sim::to_millis(result.last_completion) / lines,
              result.network.messages_delivered);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Expected shape: ms/call constant at ~RTT (1.0ms) + "
              "service — linear blocking cost.\n\n");
}

void BM_SequentialPutLine(benchmark::State& state) {
  const int lines = static_cast<int>(state.range(0));
  baseline::RunResult result;
  for (auto _ : state) {
    result = baseline::run_scenario(
        core::putline_scenario(params_for(lines, sim::microseconds(500))),
        false);
    benchmark::DoNotOptimize(result.last_completion);
  }
  set_counters(state, result);
}
BENCHMARK(BM_SequentialPutLine)->Arg(4)->Arg(16)->Arg(64);

}  // namespace
}  // namespace ocsp::bench

OCSP_BENCH_MAIN(ocsp::bench::report)
