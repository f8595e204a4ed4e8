// Experiment C7 — transparency overhead.
//
// Section 6 claims the transformation is transparent; the cost of running
// it is the protocol bookkeeping: guard tagging, checkpointing, commit
// histories.  This bench measures (a) the wall-clock cost of simulating
// the same workload with speculation on vs off, and (b) microbenchmarks of
// the hot protocol data structures and of the event kernel under them.
#include <array>
#include <chrono>
#include <set>

#include "bench_common.h"
#include "obs/recorder.h"
#include "sim/scheduler.h"
#include "speculation/cdg.h"
#include "speculation/guard_set.h"
#include "speculation/history.h"
#include "util/rng.h"

namespace ocsp::bench {
namespace {

core::PutLineParams workload(int lines) {
  core::PutLineParams p;
  p.lines = lines;
  p.net.latency = sim::microseconds(200);
  return p;
}

void report() {
  print_header(
      "C7 — protocol bookkeeping overhead",
      "Claim: the transformation is transparent to the program; its cost\n"
      "is guard tagging + checkpoints + control messages, paid only where\n"
      "speculation is active.");

  util::Table table({"mode", "messages", "checkpoints", "control msgs",
                     "virtual ms"});
  auto off = baseline::run_scenario(core::putline_scenario(workload(32)),
                                    false);
  auto on = baseline::run_scenario(core::putline_scenario(workload(32)),
                                   true);
  table.row("speculation off", off.network.messages_delivered,
            off.stats.checkpoints, off.stats.control_sent,
            sim::to_millis(off.last_completion));
  table.row("speculation on", on.network.messages_delivered,
            on.stats.checkpoints, on.stats.control_sent,
            sim::to_millis(on.last_completion));
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Expected shape: speculation adds one COMMIT per fork and one\n"
      "checkpoint per dependency acquisition, and buys a large virtual-\n"
      "time win; the wall-clock per-event costs below bound the\n"
      "implementation overhead.\n\n");
}

void BM_SimulationSpeculationOff(benchmark::State& state) {
  for (auto _ : state) {
    auto r = baseline::run_scenario(
        core::putline_scenario(workload(static_cast<int>(state.range(0)))),
        false);
    benchmark::DoNotOptimize(r.last_completion);
  }
}
BENCHMARK(BM_SimulationSpeculationOff)->Arg(16)->Arg(64);

void BM_SimulationSpeculationOn(benchmark::State& state) {
  for (auto _ : state) {
    auto r = baseline::run_scenario(
        core::putline_scenario(workload(static_cast<int>(state.range(0)))),
        true);
    benchmark::DoNotOptimize(r.last_completion);
  }
}
BENCHMARK(BM_SimulationSpeculationOn)->Arg(16)->Arg(64);

void BM_GuardSetMerge(benchmark::State& state) {
  const int owners = static_cast<int>(state.range(0));
  spec::GuardSet a, b;
  for (int i = 0; i < owners; ++i) {
    a.add(spec::GuessId{static_cast<ProcessId>(i), 0, 5});
    b.add(spec::GuessId{static_cast<ProcessId>(i), 0,
                        static_cast<std::uint32_t>(5 + i % 3)});
  }
  for (auto _ : state) {
    spec::GuardSet c = a;
    c.merge(b);
    benchmark::DoNotOptimize(c.size());
  }
}
BENCHMARK(BM_GuardSetMerge)->Arg(2)->Arg(8)->Arg(32);

void BM_GuardSetMinus(benchmark::State& state) {
  const int owners = static_cast<int>(state.range(0));
  spec::GuardSet tag, local;
  for (int i = 0; i < owners; ++i) {
    tag.add(spec::GuessId{static_cast<ProcessId>(i), 0, 7});
    if (i % 2) local.add(spec::GuessId{static_cast<ProcessId>(i), 0, 9});
  }
  for (auto _ : state) {
    auto fresh = tag.minus(local);
    benchmark::DoNotOptimize(fresh.size());
  }
}
BENCHMARK(BM_GuardSetMinus)->Arg(2)->Arg(8)->Arg(32);

void BM_CdgCycleCheck(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    spec::Cdg cdg;
    for (int i = 0; i + 1 < n; ++i) {
      cdg.add_edge(spec::GuessId{static_cast<ProcessId>(i), 0, 1},
                   spec::GuessId{static_cast<ProcessId>(i + 1), 0, 1});
    }
    state.ResumeTiming();
    auto cycle =
        cdg.add_edge(spec::GuessId{static_cast<ProcessId>(n - 1), 0, 1},
                     spec::GuessId{0, 0, 1});
    benchmark::DoNotOptimize(cycle.size());
  }
}
BENCHMARK(BM_CdgCycleCheck)->Arg(4)->Arg(16)->Arg(64);

/// Status query on a peer that has been through `incarnations`
/// incarnations, incarnation i starting at index 3i.  Queries hit
/// incarnation 3 at indices 0-39: 12 and above read as implicitly aborted,
/// the rest as unknown after the test against every later start.  The
/// dense history answers both with one comparison, so ns per query should
/// not depend on the incarnation count.
void BM_HistoryImplicitAbortQuery(benchmark::State& state) {
  const auto incarnations = static_cast<std::uint32_t>(state.range(0));
  spec::PeerHistory h;
  for (std::uint32_t inc = 1; inc <= incarnations; ++inc) {
    h.observe_incarnation(inc, inc * 3);
  }
  // google-benchmark calls this once per trial run; report each size once.
  static std::set<std::uint32_t> reported;
  auto& trajectory = MetricsTrajectory::instance();
  if (!trajectory.path().empty() && reported.insert(incarnations).second) {
    // Deterministic answers of one sweep over the queried indices.
    obs::MetricsRegistry sweep;
    sweep.counter("incarnations") = h.latest_incarnation();
    for (std::uint32_t idx = 0; idx < 40; ++idx) {
      if (h.status(spec::GuessId{1, 3, idx}) == spec::GuessStatus::kAborted) {
        ++sweep.counter("implicit_aborts");
      }
    }
    trajectory.add(
        "BM_HistoryImplicitAbortQuery/" + std::to_string(incarnations), 0.0,
        std::move(sweep));
  }
  std::uint32_t idx = 0;
  for (auto _ : state) {
    auto s = h.status(spec::GuessId{1, 3, (idx++ % 40)});
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_HistoryImplicitAbortQuery)->Arg(8)->Arg(64);

/// Recording cost: each iteration records kRecorderBatch message-sized
/// events into a fresh recorder, so the event vector's growth (and the
/// first touch of its pages) is paid as in a run.  The batch is the size
/// of a large traced run (perfbench's fanout_sharded records 811,392), so
/// the vector outgrows the allocator's largest heap-served block and the
/// figure does not depend on what earlier iterations freed.  Details
/// cycle through four strings, as a run's few kinds and sites do.
constexpr std::size_t kRecorderBatch = std::size_t{1} << 19;

void BM_RecorderRecord(benchmark::State& state) {
  static const char* const kDetails[] = {"COMMIT", "COMMIT", "ABORT",
                                         "put-site"};
  std::size_t stored_bytes = 0;
  std::size_t strings = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    obs::RunRecorder rec;
    for (std::size_t i = 0; i < kRecorderBatch; ++i) {
      obs::Event e;
      e.kind = obs::EventKind::kMsgSent;
      e.when = static_cast<sim::Time>(i);
      e.process = 1;
      e.peer = 2;
      e.msg_id = i;
      rec.record(e, kDetails[i % 4]);
    }
    benchmark::DoNotOptimize(rec.events().data());
    // Steady-state storage: the events plus the string table's characters
    // (vector slack excluded).
    stored_bytes = rec.events().size() * sizeof(obs::Event);
    strings = rec.string_count();
    for (std::uint32_t id = 1; id <= strings; ++id) {
      stored_bytes += rec.string(id).size();
    }
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  const double events =
      static_cast<double>(state.iterations() * kRecorderBatch);
  const double bytes_per_event =
      static_cast<double>(stored_bytes) / static_cast<double>(kRecorderBatch);
  state.counters["ns_per_event"] = elapsed.count() / events;
  state.counters["bytes_per_event"] = bytes_per_event;
  static bool reported = false;
  auto& trajectory = MetricsTrajectory::instance();
  if (!trajectory.path().empty() && !reported) {
    reported = true;
    obs::MetricsRegistry batch;
    batch.counter("events_recorded") = kRecorderBatch;
    batch.counter("strings_interned") = strings;
    batch.gauge("bytes_per_event") = bytes_per_event;
    trajectory.add("BM_RecorderRecord", 0.0, std::move(batch));
  }
}
BENCHMARK(BM_RecorderRecord)->Unit(benchmark::kMillisecond);

/// Steady-state kernel load: `pending` events in flight.  Each firing
/// schedules one 56-byte closure — a delivery's size — at a pseudo-random
/// later time, and one firing in twenty also cancels a random pending
/// event and schedules a replacement, so about 5% of events are cancelled
/// and the pending count stays constant.
class SchedulerChurn {
 public:
  explicit SchedulerChurn(std::size_t pending) : handles_(pending) {
    for (std::size_t i = 0; i < pending; ++i) schedule(i);
  }

  void step() { sched_.step(); }
  const sim::Scheduler& scheduler() const { return sched_; }
  std::uint64_t cancelled() const { return cancelled_; }

 private:
  struct Event {
    SchedulerChurn* churn;
    std::size_t index;
    std::array<std::uint64_t, 5> payload;
    void operator()() const { churn->fired(index); }
  };
  static_assert(sizeof(Event) == sim::Scheduler::Callback::kInlineBytes);

  void schedule(std::size_t index) {
    handles_[index] = sched_.after(rng_.uniform_int(1, 1000000),
                                   Event{this, index, {}});
  }

  void fired(std::size_t index) {
    schedule(index);
    if (rng_.uniform_int(0, 19) != 0) return;
    const auto victim = static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(handles_.size()) - 1));
    if (sched_.cancel(handles_[victim])) {
      ++cancelled_;
      schedule(victim);
    }
  }

  sim::Scheduler sched_;
  util::Rng rng_{11};
  std::vector<sim::Scheduler::Handle> handles_;
  std::uint64_t cancelled_ = 0;
};

void BM_SchedulerChurn(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  SchedulerChurn churn(pending);
  // Untimed warm-up: the heap and slot table reach their steady size.  Its
  // deterministic kernel counters go to the --ocsp_json_out document.
  for (std::size_t i = 0; i < 4 * pending; ++i) churn.step();
  auto& trajectory = MetricsTrajectory::instance();
  if (!trajectory.path().empty()) {
    const sim::Scheduler& sched = churn.scheduler();
    obs::MetricsRegistry warmup;
    warmup.counter("sim_events_fired") = sched.fired_count();
    warmup.counter("sim_events_cancelled") = churn.cancelled();
    warmup.gauge("sim_peak_pending") =
        static_cast<double>(sched.peak_pending());
    trajectory.add("BM_SchedulerChurn/pending:" + std::to_string(pending),
                   sim::to_millis(sched.now()), std::move(warmup));
  }
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) churn.step();
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  benchmark::DoNotOptimize(churn.scheduler().fired_count());
  state.counters["ns_per_event"] =
      elapsed.count() / static_cast<double>(state.iterations());
}
// One kernel event per iteration.  32768 pending is above storm_chaos's
// peak of 21,262 (perfbench).
BENCHMARK(BM_SchedulerChurn)
    ->ArgName("pending")
    ->Arg(16)
    ->Arg(1024)
    ->Arg(32768);

}  // namespace
}  // namespace ocsp::bench

OCSP_BENCH_MAIN(ocsp::bench::report)
