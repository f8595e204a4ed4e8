// Experiment C3 — streaming depth: the right-branching fork structure of
// section 3.2 at scale.  How does completion time scale with the number of
// outstanding speculative calls, and what does the bookkeeping cost?  The
// BM_FanoutPairs sweep asks the same of the process count, and
// BM_AbortStormDepth of the call count under an abort storm.
#include <cstdlib>
#include <new>

#include "bench_common.h"

// Every global operator new in this binary is counted, so the untimed run
// below can report heap allocations per kernel event.
namespace {
std::size_t g_allocations = 0;
}  // namespace

// Out of line, so the compiler sees operator new and delete paired, not
// malloc and free (which it would warn of as mismatched).
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace ocsp::bench {
namespace {

core::PutLineParams params_for(int lines) {
  core::PutLineParams p;
  p.lines = lines;
  p.net.latency = sim::microseconds(1000);
  p.service_time = sim::microseconds(10);
  p.client_compute = sim::microseconds(2);
  return p;
}

void report() {
  print_header(
      "C3 — streaming depth (outstanding speculative calls)",
      "Claim: the fork chain scales; per-call cost approaches the service\n"
      "time while the speedup approaches RTT/service.");

  util::Table table({"calls in flight", "sequential ms", "streamed ms",
                     "speedup", "checkpoints", "us per call"});
  for (int lines : {1, 2, 4, 8, 16, 32, 64}) {
    auto scenario = core::putline_scenario(params_for(lines));
    auto [pess, opt] = run_both(scenario);
    table.row(lines, sim::to_millis(pess.last_completion),
              sim::to_millis(opt.last_completion), speedup(pess, opt),
              opt.stats.checkpoints,
              sim::to_micros(opt.last_completion) / lines);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Expected shape: streamed completion ~ 1 RTT + calls x service;\n"
      "us-per-call falls toward the service floor as the chain deepens.\n\n");
}

/// Host cost per kernel event: flat in depth when the speculation layer's
/// bookkeeping is O(1) amortized per event.
benchmark::Counter time_per_event(const baseline::RunResult& result) {
  return benchmark::Counter(
      static_cast<double>(result.metrics.counter_or("sim_events_fired")),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

/// Per-kernel-event costs counted in one untimed run.
struct EventCosts {
  /// Elements the speculation bookkeeping visits, summed over processes:
  /// flat in depth when fork, commit, control handling and GC cost what
  /// each event changes.
  double bookkeeping = 0;
  /// Global operator new calls while the run executes (set-up excluded).
  double allocs = 0;
};

EventCosts event_costs(const baseline::Scenario& scenario) {
  auto rt = baseline::make_runtime(scenario, true);
  const std::size_t allocs_before = g_allocations;
  rt->run();
  const std::size_t allocs = g_allocations - allocs_before;
  std::uint64_t visits = 0;
  for (ProcessId id : rt->all_process_ids()) {
    visits += rt->process(id).bookkeeping_visits();
  }
  const auto events =
      static_cast<double>(rt->metrics().counter_or("sim_events_fired"));
  return {static_cast<double>(visits) / events,
          static_cast<double>(allocs) / events};
}

void BM_StreamDepth(benchmark::State& state) {
  const int lines = static_cast<int>(state.range(0));
  baseline::RunResult result;
  for (auto _ : state) {
    result = baseline::run_scenario(
        core::putline_scenario(params_for(lines)), true);
    benchmark::DoNotOptimize(result.last_completion);
  }
  set_counters(state, result);
  state.SetItemsProcessed(state.iterations() * lines);
  state.counters["time_per_event"] = time_per_event(result);
  const EventCosts costs =
      event_costs(core::putline_scenario(params_for(lines)));
  state.counters["bookkeeping_per_event"] = costs.bookkeeping;
  state.counters["allocs_per_event"] = costs.allocs;
}
// 256 to 4096 lines extend the depth curve past the report's table; the
// 1024 point runs for about 0.1 s per iteration.
BENCHMARK(BM_StreamDepth)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(4096);

void BM_RelayStreamDepth(benchmark::State& state) {
  core::PipelineParams p;
  p.chain_depth = static_cast<int>(state.range(0));
  p.calls = static_cast<int>(state.range(1));
  p.net.latency = sim::microseconds(500);
  p.stream_relays = true;
  baseline::RunResult result;
  for (auto _ : state) {
    result = baseline::run_scenario(core::pipeline_scenario(p), true);
    benchmark::DoNotOptimize(result.last_completion);
  }
  set_counters(state, result);
  // Edge insertions per PRECEDENCE: flat in the call count when each
  // message updates one graph per process, not one per thread.
  state.counters["cdg_edges_per_precedence"] =
      static_cast<double>(
          result.recorder->count(obs::EventKind::kCdgEdgeAdded)) /
      static_cast<double>(result.stats.precedence_sent);
  state.counters["time_per_event"] = time_per_event(result);
}
// Arguments are (relays, calls): the depth points at 12 calls, then the
// streamed 3-relay pipeline from 16 to 256 calls (the 256 point runs for
// one to two seconds per iteration).
BENCHMARK(BM_RelayStreamDepth)
    ->ArgNames({"relays", "calls"})
    ->Args({2, 12})
    ->Args({4, 12})
    ->Args({8, 12})
    ->ArgsProduct({{3}, {16, 32, 64, 128, 256}});

/// compute_fanout at 32 calls per client on the per-link network that
/// perfbench's fanout_sharded runs, sequentially.  Under broadcast control
/// every COMMIT reaches every peer, so the per-message path (history
/// update, link table, recorder) carries the run; per-event host cost
/// should stay flat as the pair count grows.
baseline::Scenario fanout_for(int pairs, bool targeted) {
  core::ComputeFanoutParams p;
  p.pairs = pairs;
  p.calls = 32;
  p.spec.control = targeted ? spec::ControlPlane::kTargeted
                            : spec::ControlPlane::kBroadcast;
  auto scenario = core::compute_fanout_scenario(p);
  scenario.options.per_link_net = true;
  return scenario;
}

void BM_FanoutPairs(benchmark::State& state) {
  const int pairs = static_cast<int>(state.range(0));
  const bool targeted = state.range(1) != 0;
  baseline::RunResult result;
  for (auto _ : state) {
    result = baseline::run_scenario(fanout_for(pairs, targeted), true);
    benchmark::DoNotOptimize(result.last_completion);
  }
  set_counters(state, result);
  state.counters["time_per_event"] = time_per_event(result);
  state.counters["allocs_per_event"] =
      event_costs(fanout_for(pairs, targeted)).allocs;
}
// The 64-pair broadcast point runs for about 0.3 s per iteration.
BENCHMARK(BM_FanoutPairs)
    ->ArgNames({"pairs", "targeted"})
    ->ArgsProduct({{8, 32, 64}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

/// The abort storm (every third guess verifies): rollbacks, kills,
/// requeues and cascades carry the run, so per-event host cost should stay
/// flat in the call count once killing a thread costs what it discards.
baseline::Scenario storm_for(int calls) {
  core::AbortStormParams p;
  p.calls = calls;
  p.hit_period = 3;
  return core::abort_storm_scenario(p);
}

void BM_AbortStormDepth(benchmark::State& state) {
  const int calls = static_cast<int>(state.range(0));
  baseline::RunResult result;
  for (auto _ : state) {
    result = baseline::run_scenario(storm_for(calls), true);
    benchmark::DoNotOptimize(result.last_completion);
  }
  set_counters(state, result);
  state.counters["time_per_event"] = time_per_event(result);
  const EventCosts costs = event_costs(storm_for(calls));
  state.counters["bookkeeping_per_event"] = costs.bookkeeping;
  state.counters["allocs_per_event"] = costs.allocs;
}
BENCHMARK(BM_AbortStormDepth)
    ->ArgName("calls")
    ->Arg(15)
    ->Arg(30)
    ->Arg(60)
    ->Arg(120);

}  // namespace
}  // namespace ocsp::bench

OCSP_BENCH_MAIN(ocsp::bench::report)
