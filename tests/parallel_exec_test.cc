// exec::ParallelRuntime vs the deterministic simulator.
//
// Theorem 1's oracle, executor edition: the committed trace of a parallel
// run must be *exactly* the sequential simulator's, for every registry
// workload, across seeds and worker counts.  The sequential reference runs
// with RuntimeOptions::per_link_net = true — the same deterministic
// schedule the sharded executor computes — so equality is required
// bit-for-bit, not merely up to reordering.
//
// The GVT tests assert the fencing invariants directly from the window
// audit trail: no drained straggler ever lands below the GVT that fenced
// it, GVT advances strictly, and a single shard reproduces the sequential
// recorder stream byte for byte.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/workloads.h"
#include "event_text.h"
#include "exec/parallel.h"
#include "net/message.h"
#include "obs/profile.h"
#include "trace/events.h"

namespace ocsp {
namespace {

using test::serialize_events;

constexpr int kWorkerCounts[] = {1, 2, 4, 8};
constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4, 5, 6, 7, 8};
constexpr sim::Time kDeadline = sim::seconds(120);

struct Workload {
  std::string name;
  std::function<baseline::Scenario(std::uint64_t seed)> build;
};

// Every registry workload the parallel executor supports (no fault plans,
// no reliable transport), sized for a sweep.
std::vector<Workload> registry_workloads() {
  std::vector<Workload> w;
  w.push_back({"putline", [](std::uint64_t seed) {
                 core::PutLineParams p;
                 p.lines = 6;
                 p.fail_probability = 0.2;
                 p.net.jitter = sim::microseconds(120);
                 p.seed = seed;
                 return core::putline_scenario(p);
               }});
  w.push_back({"db_fs", [](std::uint64_t seed) {
                 core::DbFsParams p;
                 p.transactions = 4;
                 p.update_fail_probability = 0.3;
                 p.seed = seed;
                 return core::db_fs_scenario(p);
               }});
  w.push_back({"pipeline", [](std::uint64_t seed) {
                 core::PipelineParams p;
                 p.calls = 5;
                 p.chain_depth = 3;
                 p.stream_relays = true;
                 p.seed = seed;
                 return core::pipeline_scenario(p);
               }});
  w.push_back({"write_through", [](std::uint64_t seed) {
                 core::WriteThroughParams p;
                 p.force_fault = true;
                 p.transactions = 2;
                 p.seed = seed;
                 return core::write_through_scenario(p);
               }});
  w.push_back({"mutual_fig6", [](std::uint64_t seed) {
                 core::MutualParams p;
                 p.crossing = false;
                 p.seed = seed;
                 return core::mutual_scenario(p);
               }});
  w.push_back({"mutual_fig7", [](std::uint64_t seed) {
                 core::MutualParams p;
                 p.crossing = true;
                 p.seed = seed;
                 return core::mutual_scenario(p);
               }});
  w.push_back({"shared_server", [](std::uint64_t seed) {
                 core::SharedServerParams p;
                 p.clients = 3;
                 p.calls_per_client = 4;
                 p.net.jitter = sim::microseconds(80);
                 p.seed = seed;
                 return core::shared_server_scenario(p);
               }});
  w.push_back({"safe_fanout", [](std::uint64_t seed) {
                 core::SafeFanoutParams p;
                 p.servers = 5;
                 p.seed = seed;
                 return core::safe_fanout_scenario(p);
               }});
  w.push_back({"commute_registry", [](std::uint64_t seed) {
                 core::CommuteRegistryParams p;
                 p.clients = 2;
                 p.iterations = 4;
                 p.seed = seed;
                 return core::commute_registry_scenario(p);
               }});
  w.push_back({"abort_storm", [](std::uint64_t seed) {
                 core::AbortStormParams p;
                 p.calls = 15;
                 p.hit_period = 3;
                 p.seed = seed;
                 return core::abort_storm_scenario(p);
               }});
  w.push_back({"compute_fanout", [](std::uint64_t seed) {
                 core::ComputeFanoutParams p;
                 p.pairs = 4;
                 p.calls = 4;
                 p.miss_period = 3;  // some aborts in the mix
                 p.seed = seed;
                 return core::compute_fanout_scenario(p);
               }});
  // Lossy control plane: exercises the per-link drop draws (consumed
  // before the latency sample) and the blind control re-broadcast.
  w.push_back({"lossy_control", [](std::uint64_t seed) {
                 core::PutLineParams p;
                 p.lines = 5;
                 p.seed = seed;
                 p.spec.control_retry = true;
                 auto scenario = core::putline_scenario(p);
                 scenario.options.default_link.drop_probability = 0.25;
                 scenario.options.default_link.drop_filter =
                     [](const net::Message& m) { return m.control_plane(); };
                 return scenario;
               }});
  // Serialization delay and reordering: the send path's bandwidth term and
  // its non-FIFO branch.
  w.push_back({"bandwidth_reorder", [](std::uint64_t seed) {
                 core::SharedServerParams p;
                 p.clients = 3;
                 p.calls_per_client = 4;
                 p.net.jitter = sim::microseconds(400);
                 p.net.fifo = false;
                 p.seed = seed;
                 auto scenario = core::shared_server_scenario(p);
                 scenario.options.default_link.bandwidth_bytes_per_sec =
                     2'000'000;
                 return scenario;
               }});
  return w;
}

baseline::RunResult sequential_reference(baseline::Scenario scenario,
                                         bool speculation) {
  scenario.options.per_link_net = true;
  return baseline::run_scenario(scenario, speculation, kDeadline);
}

void expect_same_run(const std::string& label,
                     const baseline::RunResult& ref,
                     const exec::ParallelRunResult& par) {
  std::string why;
  EXPECT_TRUE(trace::compare_traces(ref.trace, par.result.trace, &why))
      << label << ": " << why;
  EXPECT_EQ(ref.last_completion, par.result.last_completion) << label;
  EXPECT_EQ(ref.all_completed, par.result.all_completed) << label;
  // Protocol counters must agree action for action: both executors free
  // speculation state through the same per-process sweep.
  EXPECT_TRUE(ref.stats == par.result.stats)
      << label << "\n  sequential: " << ref.stats.to_string()
      << "\n  parallel:   " << par.result.stats.to_string();
  EXPECT_EQ(ref.network.messages_sent, par.result.network.messages_sent)
      << label;
  EXPECT_EQ(ref.network.messages_delivered,
            par.result.network.messages_delivered)
      << label;
  EXPECT_EQ(ref.network.messages_dropped,
            par.result.network.messages_dropped)
      << label;
}

// The tentpole oracle: every workload, eight seeds, every worker count.
TEST(ParallelOracle, CommittedTracesMatchSimulatorEverywhere) {
  for (const auto& workload : registry_workloads()) {
    for (std::uint64_t seed : kSeeds) {
      const baseline::Scenario scenario = workload.build(seed);
      const baseline::RunResult ref = sequential_reference(scenario, true);
      for (int workers : kWorkerCounts) {
        const auto par = exec::run_scenario_parallel(
            scenario, workers, /*speculation=*/true, /*compute_scale=*/0.0,
            kDeadline);
        expect_same_run(workload.name + " seed=" + std::to_string(seed) +
                            " workers=" + std::to_string(workers),
                        ref, par);
      }
    }
  }
}

// Speculation disabled must also shard soundly (the pessimistic baseline
// exercises a different fork path).
TEST(ParallelOracle, PessimisticRunsMatchSimulator) {
  for (const auto& workload : registry_workloads()) {
    const baseline::Scenario scenario = workload.build(/*seed=*/3);
    const baseline::RunResult ref = sequential_reference(scenario, false);
    for (int workers : {1, 4}) {
      const auto par = exec::run_scenario_parallel(
          scenario, workers, /*speculation=*/false, /*compute_scale=*/0.0,
          kDeadline);
      expect_same_run(workload.name + " pessimistic workers=" +
                          std::to_string(workers),
                      ref, par);
    }
  }
}

// A nonzero compute_scale burns real time but must not move virtual time.
TEST(ParallelOracle, ComputeScaleIsTraceInvisible) {
  core::ComputeFanoutParams p;
  p.pairs = 4;
  p.calls = 3;
  p.compute = sim::microseconds(50);
  const baseline::Scenario scenario = core::compute_fanout_scenario(p);
  const baseline::RunResult ref = sequential_reference(scenario, true);
  const auto par = exec::run_scenario_parallel(scenario, 4, true,
                                               /*compute_scale=*/0.05,
                                               kDeadline);
  expect_same_run("compute_scale", ref, par);
}

// With no deadline the executor must report the sequential scheduler's
// post-drain clock — the time of the last event that actually fired — not
// the end of the final GVT window.
TEST(ParallelOracle, NoDeadlineFinishTimeMatchesSequentialClock) {
  core::SharedServerParams p;
  p.clients = 3;
  p.calls_per_client = 4;
  p.net.jitter = sim::microseconds(80);
  const baseline::Scenario scenario = core::shared_server_scenario(p);
  baseline::Scenario seq = scenario;
  seq.options.per_link_net = true;
  const auto ref = baseline::run_scenario(seq, true);  // drain, no deadline
  for (int workers : {1, 4}) {
    const auto par = exec::run_scenario_parallel(scenario, workers, true, 0.0);
    EXPECT_EQ(ref.finished_at, par.result.finished_at)
        << "workers=" << workers;
    // Sanity: the clamp really bites — the last window extends past the
    // last event by construction (its end is gvt + lookahead).
    ASSERT_FALSE(par.windows.empty());
    EXPECT_LE(par.result.finished_at, par.windows.back().end);
  }
}

// ---------------------------------------------------------------------------
// GVT fencing invariants
// ---------------------------------------------------------------------------

exec::ParallelRunResult run_windows_probe(int workers) {
  core::SharedServerParams p;
  p.clients = 4;
  p.calls_per_client = 6;
  p.net.jitter = sim::microseconds(100);
  return exec::run_scenario_parallel(core::shared_server_scenario(p),
                                     workers, true, 0.0, kDeadline);
}

TEST(ParallelGvt, FenceNeverCommitsPastAStraggler) {
  const auto run = run_windows_probe(4);
  ASSERT_FALSE(run.windows.empty());
  ASSERT_GT(run.lookahead, 0);
  sim::Time prev_end = 0;
  sim::Time prev_gvt = 0;
  bool first = true;
  for (const auto& w : run.windows) {
    // GVT is a true lower bound: nothing drained at this fence was due
    // before it, and nothing sent in the previous window could be either.
    EXPECT_GE(w.min_drained_delivery, w.gvt);
    EXPECT_GE(w.min_drained_delivery, prev_end);
    EXPECT_GE(w.gvt, prev_end);
    // Strict monotonicity (bounded-lag: every window advances GVT by at
    // least the lookahead).
    if (!first) {
      EXPECT_GE(w.gvt, prev_gvt + run.lookahead);
    }
    EXPECT_EQ(w.end, w.gvt + run.lookahead);
    first = false;
    prev_end = w.end;
    prev_gvt = w.gvt;
  }
  const auto& m = run.result.metrics;
  EXPECT_EQ(m.counter_or("gvt_windows"), run.windows.size());
}

// ---------------------------------------------------------------------------
// Shards=1 bit-for-bit oracle
// ---------------------------------------------------------------------------

TEST(ParallelGvt, SingleShardReproducesSimulatorEventOrderBitForBit) {
  for (const auto& workload : registry_workloads()) {
    const baseline::Scenario scenario = workload.build(/*seed=*/7);

    baseline::Scenario seq = scenario;
    seq.options.per_link_net = true;
    auto rt = baseline::make_runtime(seq, true);
    rt->run(kDeadline);

    exec::ParallelOptions options;
    options.seed = scenario.options.seed;
    options.workers = 1;
    options.default_link = scenario.options.default_link;
    options.spec = scenario.options.spec;
    options.spec.speculation_enabled = true;
    exec::ParallelRuntime prt(options);
    for (const auto& proc : scenario.processes) {
      prt.add_process(proc.name, proc.program, proc.env);
    }
    for (const auto& link : scenario.links) {
      prt.set_link(prt.find(link.src), prt.find(link.dst), link.config);
    }
    prt.run(kDeadline);

    EXPECT_EQ(serialize_events(rt->recorder()),
              serialize_events(*prt.shard_recorder(0)))
        << workload.name;
  }
}

// Metrics (counters and gauges), window triples and the merged event stream
// of one run, as text that repeats exactly between runs.
struct RunFingerprint {
  std::string metrics;
  std::string windows;
  std::string events;
};

RunFingerprint fingerprint(const exec::ParallelRunResult& run) {
  RunFingerprint f;
  std::ostringstream m;
  for (const auto& [name, value] : run.result.metrics.counters()) {
    m << name << '=' << value << '\n';
  }
  for (const auto& [name, value] : run.result.metrics.gauges()) {
    m << name << '=' << value << '\n';
  }
  f.metrics = m.str();
  std::ostringstream w;
  for (const auto& win : run.windows) {
    w << win.gvt << ' ' << win.end << ' ' << win.min_drained_delivery << '\n';
  }
  f.windows = w.str();
  f.events = serialize_events(*run.result.recorder);
  return f;
}

// The first line where `a` and `b` differ, for a readable failure.
std::string first_difference(const std::string& a, const std::string& b) {
  std::istringstream sa(a);
  std::istringstream sb(b);
  std::string la;
  std::string lb;
  for (int line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(sa, la));
    const bool more_b = static_cast<bool>(std::getline(sb, lb));
    if (!more_a && !more_b) return "none";
    if (!more_a || !more_b || la != lb) {
      return std::string("line ") + std::to_string(line) + ": '" +
             (more_a ? la : "<end>") + "' vs '" + (more_b ? lb : "<end>") +
             "'";
    }
  }
}

// A shard must queue exactly the envelopes its peers parked before the
// barrier, never a peer's current-window sends.  Queuing those early keeps
// the committed trace, but how many a shard sees depends on thread timing,
// so its queue peaks differently from run to run.  expect_same_run cannot
// see that (the sequential run's peak differs anyway), so repeats of one
// broadcast fan-out must agree on every counter and gauge
// (sim_peak_pending included), every window, and every recorded event.
// 16 pairs x 8 calls is the smallest fan-out at which a locked per-shard
// inbox, swapped at each shard's own window start, failed this test on
// every try (its 8-worker repeats peak at different sim_peak_pending).
TEST(ParallelGvt, CrossShardHandoffRepeatsExactly) {
  core::ComputeFanoutParams p;
  p.pairs = 16;
  p.calls = 8;
  const baseline::Scenario scenario = core::compute_fanout_scenario(p);
  for (int workers : {2, 4, 8}) {
    const std::string label = std::string("workers=") +
                              std::to_string(workers);
    const RunFingerprint first = fingerprint(exec::run_scenario_parallel(
        scenario, workers, true, 0.0, kDeadline));
    ASSERT_FALSE(first.windows.empty()) << label;
    for (int repeat = 1; repeat < 3; ++repeat) {
      const RunFingerprint again = fingerprint(exec::run_scenario_parallel(
          scenario, workers, true, 0.0, kDeadline));
      EXPECT_TRUE(first.metrics == again.metrics)
          << label << " metrics, first difference at "
          << first_difference(first.metrics, again.metrics);
      EXPECT_TRUE(first.windows == again.windows)
          << label << " windows, first difference at "
          << first_difference(first.windows, again.windows);
      EXPECT_TRUE(first.events == again.events)
          << label << " events, first difference at "
          << first_difference(first.events, again.events);
    }
  }
}

// The merged stream is virtual-time ordered, and the profiler's time
// accounting partitions it exactly, as it does a sequential run's.
TEST(ParallelGvt, MergedRecorderProfilePartitionsSpans) {
  const auto run = run_windows_probe(4);
  ASSERT_TRUE(run.result.recorder);
  const obs::RunRecorder& rec = *run.result.recorder;
  ASSERT_FALSE(rec.events().empty());
  sim::Time prev = 0;
  for (const auto& e : rec.events()) {
    EXPECT_GE(e.when, prev);
    prev = e.when;
  }
  EXPECT_GT(rec.count(obs::EventKind::kMsgSent), 0u);
  EXPECT_GT(rec.count(obs::EventKind::kMsgDelivered), 0u);
  EXPECT_GT(rec.count(obs::EventKind::kProcessCompleted), 0u);

  const auto profile = obs::build_profile(rec, run.result.process_names);
  ASSERT_FALSE(profile.per_process.empty());
  std::int64_t span_sum = 0;
  obs::TimeBreakdown sum;
  for (const auto& p : profile.per_process) {
    EXPECT_EQ(p.breakdown.total(), p.span_ns) << p.name;
    span_sum += p.span_ns;
    sum.add(p.breakdown);
  }
  EXPECT_EQ(span_sum, profile.total_process_ns);
  EXPECT_EQ(profile.global.total(), profile.total_process_ns);
  EXPECT_EQ(sum.ns, profile.global.ns);
}

// The N-worker merged stream, process by process: each process records on
// one shard, so its events must be exactly those of the sequential per-link
// run, every field and detail string, in the same order.  Only the
// interleaving across processes may differ.  (Runs with the reliable
// transport stay out: each shard has its own ReliableTransport, so frame
// and ack sequence numbers inside message details differ.)
TEST(ParallelGvt, MergedStreamMatchesSequentialPerProcess) {
  for (const auto& workload : registry_workloads()) {
    for (std::uint64_t seed : {1, 2, 3}) {
      const baseline::Scenario scenario = workload.build(seed);
      const baseline::RunResult ref = sequential_reference(scenario, true);
      ASSERT_TRUE(ref.recorder);
      for (int workers : {2, 4, 8}) {
        const std::string label = workload.name + " seed=" +
                                  std::to_string(seed) + " workers=" +
                                  std::to_string(workers);
        const auto par = exec::run_scenario_parallel(scenario, workers, true,
                                                     0.0, kDeadline);
        ASSERT_TRUE(par.result.recorder) << label;
        const obs::RunRecorder& merged = *par.result.recorder;
        std::set<ProcessId> processes;
        for (const auto& e : ref.recorder->events()) {
          processes.insert(e.process);
        }
        for (const auto& e : merged.events()) processes.insert(e.process);
        for (ProcessId p : processes) {
          const std::string want = serialize_events(*ref.recorder, p);
          const std::string got = serialize_events(merged, p);
          EXPECT_TRUE(want == got)
              << label << " P" << p << ", first difference at "
              << first_difference(want, got);
        }
      }
    }
  }
}

}  // namespace
}  // namespace ocsp
