// Mutual speculation between two processes — Figures 6 and 7.
//
// In the Figure 6 configuration, Z's speculative thread inherits X's guess
// through a message, so z1 can only commit after PRECEDENCE(z1,{x1}) is
// published and COMMIT(x1) cascades through.  In the Figure 7
// configuration the speculative sends cross, closing the causal cycle
// x1 -> z1 -> x1: both processes detect the time fault, abort, roll their
// servers back, and re-execute.
//
// Build and run:   ./build/examples/mutual_speculation
// Pass --trace-out=<path> to export the Figure 7 (crossing) run as a
// Chrome trace-event JSON.
#include <cstdio>
#include <string>

#include "core/workloads.h"
#include "obs/chrome_trace.h"
#include "obs/events.h"

using namespace ocsp;

namespace {

int run_case(const char* label, bool crossing, const std::string& trace_out) {
  core::MutualParams params;
  params.crossing = crossing;
  params.net.latency = sim::microseconds(200);
  params.service_time = sim::microseconds(20);

  auto scenario = core::mutual_scenario(params);
  auto rt = baseline::make_runtime(scenario, true);
  rt->run();

  auto stats = rt->total_stats();
  std::printf("%s\n", label);
  std::printf("  commits=%llu time-faults=%llu rollbacks=%llu "
              "precedence-msgs=%llu\n",
              static_cast<unsigned long long>(stats.commits),
              static_cast<unsigned long long>(stats.aborts_time_fault),
              static_cast<unsigned long long>(stats.rollbacks),
              static_cast<unsigned long long>(stats.precedence_sent));
  std::printf("  protocol timeline:\n");
  for (const auto& e : rt->recorder().events()) {
    using K = obs::EventKind;
    if (e.kind == K::kFork || e.kind == K::kCommit || e.kind == K::kAbort ||
        e.kind == K::kRollback || e.kind == K::kJoin ||
        e.kind == K::kCdgCycleDetected) {
      std::printf("    %s\n", rt->recorder().to_string(e).c_str());
    }
  }
  if (!trace_out.empty()) {
    if (!obs::write_chrome_trace(trace_out, rt->recorder(),
                                 rt->process_names())) {
      return 1;
    }
    std::printf("  wrote Chrome trace to %s\n", trace_out.c_str());
  }
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prefix = "--trace-out=";
    if (arg.rfind(prefix, 0) == 0) trace_out = arg.substr(prefix.size());
  }

  std::printf("Mutual speculation (paper Figures 6 and 7)\n\n");
  if (run_case("Figure 6: dependent guesses, PRECEDENCE then commit cascade",
               /*crossing=*/false, {}) != 0) {
    return 1;
  }
  // The crossing case shows the full event vocabulary (CDG cycle, abort,
  // rollback, re-execution), so it is the one exported.
  return run_case("Figure 7: crossing speculations close a cycle; both abort",
                  /*crossing=*/true, trace_out);
}
