// ocsp_e2e: outside-in end-to-end benchmark of the OCSP library.
//
// The benchmark uses only the library's public entry points: the
// core::*_scenario functions, baseline::make_runtime / spec::Runtime,
// exec::run_scenario_parallel, obs::build_profile / obs::build_attribution
// and trace::compare_traces.  Per-layer wall time comes from timing, here,
// the calls made into each layer; nothing in src/ is instrumented.
// README.md beside this file explains the workloads, the per-layer →
// end-to-end map and the step-charging table.
//
//   ocsp_e2e --workload stream_deep|fanout_sharded|storm_chaos --seed N
//            --seconds S --trace 0|1 [--size full|tiny] [--wrong-reference]
//            [--spans-out PATH]
//
// Every optimistic run is checked against the pessimistic run of the same
// workload (Theorem 1), and every work counter must repeat exactly.  The
// last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when all checks held, 3 when one failed, 2 on bad usage.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <memory_resource>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/scenario.h"
#include "core/workloads.h"
#include "exec/parallel.h"
#include "fault/plan.h"
#include "obs/attribution.h"
#include "obs/profile.h"
#include "speculation/runtime.h"
#include "trace/events.h"

namespace {

using namespace ocsp;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The q-quantile of `v`, interpolating linearly between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double fastest(const std::vector<double>& v) { return quantile(v, 0); }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------------
// Host-speed calibration
// ---------------------------------------------------------------------------

/// The calibration kernel's time on a quiet reference host (a 4-vCPU Xeon
/// VM, Release build).  End-to-end times are reported in these seconds.
constexpr double kKernelRefS = 4.4e-3;

/// A fixed, library-independent workload whose speed follows the host's:
/// ordered-map churn with string values, like the library's own mix of
/// tree lookups, small allocations and formatting.  It allocates from its
/// own buffers, so a change to the global allocator does not move it.
class Calibration {
 public:
  /// `width` copies of the kernel run at once, one for each thread the
  /// timed runs keep busy: a one-thread kernel does not follow how a
  /// four-thread run slows.
  explicit Calibration(int width)
      : buffers_(static_cast<std::size_t>(width),
                 std::vector<std::byte>(4 << 20)),
        sinks_(buffers_.size()) {}

  /// Run the kernel copies once; return their wall seconds.
  double kernel_s() {
    const auto t0 = Clock::now();
    std::vector<std::thread> helpers;
    for (std::size_t k = 1; k < buffers_.size(); ++k) {
      helpers.emplace_back([this, k] { sinks_[k] += churn(buffers_[k]); });
    }
    sinks_[0] += churn(buffers_[0]);
    for (std::thread& t : helpers) t.join();
    const double s = since(t0);
    samples_.push_back(s);
    return s;
  }

  /// Every kernel time measured so far.
  const std::vector<double>& samples() const { return samples_; }

 private:
  static std::size_t churn(std::vector<std::byte>& buffer) {
    std::pmr::monotonic_buffer_resource arena(buffer.data(), buffer.size());
    std::pmr::unsynchronized_pool_resource pool(&arena);
    std::pmr::map<std::uint64_t, std::pmr::string> m(&pool);
    std::uint64_t h = 1;
    char digits[24];
    for (int k = 0; k < 20000; ++k) {
      h = h * 6364136223846793005ULL + 1442695040888963407ULL;
      const auto end = std::to_chars(digits, digits + sizeof digits, h).ptr;
      m[h >> 40].assign(digits, end);
      if (k % 3 == 0) m.erase(m.begin());
    }
    return m.size();
  }

  std::vector<std::vector<std::byte>> buffers_;
  std::vector<std::size_t> sinks_;
  std::vector<double> samples_;
};

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool tiny = false;
  /// Check against a reference built from a different input (self-test).
  bool wrong_reference = false;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "ocsp_e2e: %s\nusage: ocsp_e2e --workload "
               "stream_deep|fanout_sharded|storm_chaos --seed N --seconds S "
               "--trace 0|1 [--size full|tiny] [--wrong-reference] "
               "[--spans-out PATH]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--wrong-reference") {
      o.wrong_reference = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
        have_seconds = o.seconds > 0;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
        have_trace = true;
      } else if (arg == "--size") {
        if (value != "full" && value != "tiny") usage("bad --size " + value);
        o.tiny = value == "tiny";
      } else if (arg == "--spans-out") {
        o.spans_out = value;
      } else {
        usage("unknown flag " + arg);
      }
    } catch (const std::exception&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (o.workload != "stream_deep" && o.workload != "fanout_sharded" &&
      o.workload != "storm_chaos") {
    usage("unknown workload '" + o.workload + "'");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds (> 0) and --trace are required");
  }
  return o;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One scenario the workload runs per pass: the fault-free run, or the
/// same scenario under one chaos plan.
struct Instance {
  std::string label;
  baseline::Scenario scenario;
};

/// The workload's scenario.  `extra` lengthens it by that many calls; only
/// the deliberately wrong reference of the self-test uses it.
baseline::Scenario base_scenario(const Options& o, int extra) {
  if (o.workload == "stream_deep") {
    core::PutLineParams p;
    p.lines = (o.tiny ? 16 : 512) + extra;
    p.net.latency = sim::microseconds(200);
    p.seed = o.seed;
    return core::putline_scenario(p);
  }
  if (o.workload == "fanout_sharded") {
    core::ComputeFanoutParams p;
    p.pairs = o.tiny ? 4 : 64;
    p.calls = (o.tiny ? 4 : 32) + extra;
    p.seed = o.seed;
    auto scenario = core::compute_fanout_scenario(p);
    // The schedule the parallel executor reproduces; the stepped and
    // recorder-off runs use it too, so every run shares one schedule.
    scenario.options.per_link_net = true;
    return scenario;
  }
  // storm_chaos, with the recovery stack of the chaos tests.  The scenario
  // seed stays at its default: it drives the fault injector's draws, and
  // across seeds those change the work of a pass by up to 15% and the
  // virtual speedup by up to 40%, so figures from different seeds would
  // not be comparable.
  core::AbortStormParams p;
  p.calls = (o.tiny ? 12 : 60) + extra;
  p.hit_period = 3;
  p.spec.control_retry = true;
  p.spec.control_retry_interval = sim::milliseconds(1);
  p.spec.control_retry_limit = 30;
  p.spec.join_wait_timeout = sim::milliseconds(200);
  auto scenario = core::abort_storm_scenario(p);
  scenario.options.reliable.enabled = true;
  return scenario;
}

/// Chaos plans 0-5 are one plan per fault class (make_chaos_plan picks the
/// class by seed % 6).
constexpr std::uint64_t kChaosPlans = 6;

/// Build every instance of the workload.  `horizon` (the pessimistic
/// completion time) bounds where chaos plans place their faults.
std::vector<Instance> build_instances(const Options& o, sim::Time horizon) {
  std::vector<Instance> out;
  out.push_back({"fault-free", base_scenario(o, 0)});
  if (o.workload != "storm_chaos") return out;
  fault::ChaosSpec chaos;  // windows sized as in the chaos tests
  chaos.horizon = horizon;
  chaos.partition_min_len = sim::milliseconds(1);
  chaos.partition_max_len = sim::milliseconds(5);
  chaos.crash_min_downtime = sim::milliseconds(1);
  chaos.crash_max_downtime = sim::milliseconds(4);
  const auto procs =
      static_cast<std::uint32_t>(out.front().scenario.processes.size());
  for (std::uint64_t plan = 0; plan < kChaosPlans; ++plan) {
    Instance inst{"", base_scenario(o, 0)};
    inst.scenario.options.fault_plan =
        fault::make_chaos_plan(plan, chaos, procs);
    inst.label = "plan " + std::to_string(plan) + " " +
                 inst.scenario.options.fault_plan.describe();
    out.push_back(std::move(inst));
  }
  return out;
}

int end_to_end_workers() {
  int cpus = static_cast<int>(std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) cpus = CPU_COUNT(&set);
  return std::clamp(cpus, 1, 4);
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

/// Work counters of one run.  None depends on the host, so each must repeat
/// exactly from pass to pass and between twin runs of one schedule.
struct Counts {
  std::map<std::string, std::uint64_t> counters;  ///< Runtime::metrics()
  double peak_pending = 0;
  std::uint64_t events_recorded = 0;
};

struct RunOut {
  bool completed = false;
  sim::Time last_completion = 0;
  trace::CommittedTrace trace;
  spec::SpecStats stats;
  net::NetworkStats net;
  Counts counts;
  double wall_s = 0;
  std::uint64_t gvt_windows = 0;
  std::shared_ptr<obs::RunRecorder> recorder;
  std::vector<std::string> names;
};

Counts counts_of(const obs::MetricsRegistry& m, const obs::RunRecorder& rec) {
  Counts c;
  c.counters = m.counters();
  const auto it = m.gauges().find("sim_peak_pending");
  if (it != m.gauges().end()) c.peak_pending = it->second;
  c.events_recorded = rec.events().size();
  return c;
}

RunOut collect(spec::Runtime& rt, double wall_s) {
  RunOut r;
  r.completed = rt.all_clients_completed();
  r.last_completion = rt.last_completion_time();
  r.trace = rt.committed_trace();
  r.stats = rt.total_stats();
  r.net = rt.network().stats();
  r.counts = counts_of(rt.metrics(), rt.recorder());
  r.wall_s = wall_s;
  r.recorder = rt.shared_recorder();
  r.names = rt.process_names();
  return r;
}

/// Whole run on the sequential simulator, timed around Runtime::run().
RunOut run_sequential(const Instance& inst, sim::Time deadline,
                      bool speculation, bool recorder) {
  auto rt = baseline::make_runtime(inst.scenario, speculation);
  rt->recorder().set_enabled(recorder);
  const auto t0 = Clock::now();
  rt->run(deadline);
  return collect(*rt, since(t0));
}

/// Whole run on the sharded executor; wall time is the executor's own
/// clock around ParallelRuntime::run().
RunOut run_parallel(const Instance& inst, int workers, sim::Time deadline) {
  auto pr = exec::run_scenario_parallel(inst.scenario, workers,
                                        /*speculation=*/true,
                                        /*compute_scale=*/0.0, deadline);
  RunOut r;
  r.completed = pr.result.all_completed;
  r.last_completion = pr.result.last_completion;
  r.trace = std::move(pr.result.trace);
  r.stats = pr.result.stats;
  r.net = pr.result.network;
  r.counts = counts_of(pr.result.metrics, *pr.result.recorder);
  r.wall_s = static_cast<double>(pr.wall_ns) * 1e-9;
  r.gvt_windows = pr.windows.size();
  return r;
}

// ---------------------------------------------------------------------------
// Tracing: a stepped run charges each scheduler step to one layer
// ---------------------------------------------------------------------------

enum Layer : std::uint8_t {
  kIdle,
  kJoin,
  kFork,
  kAbort,
  kControl,
  kDeliver,
  kSend,
  kFault,
  kCompute,
  kLayerCount
};

constexpr std::array<const char*, kLayerCount> kLayerMetric = {
    "sim.idle_s",     "spec.join_s",   "spec.fork_s",
    "spec.abort_s",   "spec.control_s", "net.deliver_s",
    "net.send_s",     "fault.recovery_s", "csp.compute_s"};

/// The layer that owns an event kind (the table in README.md).
Layer layer_of(obs::EventKind k) {
  using K = obs::EventKind;
  switch (k) {
    case K::kJoin:
    case K::kCommit:
    case K::kGuessVerified:
    case K::kCommuteCommit:
    case K::kThreadResolved:
    case K::kExternalReleased:
      return kJoin;
    case K::kFork:
    case K::kIntervalBegin:
    case K::kGuessMade:
    case K::kCheckpointTaken:
    case K::kSafeForkElided:
      return kFork;
    case K::kAbort:
    case K::kRollback:
    case K::kWorkDiscarded:
    case K::kGuessFailed:
    case K::kExternalDiscarded:
    case K::kGovernorDemote:
    case K::kGovernorPromote:
      return kAbort;
    case K::kControlSent:
    case K::kControlReceived:
    case K::kCdgEdgeAdded:
    case K::kCdgCycleDetected:
      return kControl;
    case K::kMsgDelivered:
      return kDeliver;
    case K::kMsgSent:
      return kSend;
    case K::kFaultInjected:
    case K::kRetransmit:
    case K::kDuplicateSuppressed:
    case K::kCrash:
    case K::kRecovery:
      return kFault;
    case K::kComputeDone:
    case K::kExternalBuffered:
    case K::kThreadBlocked:
    case K::kProcessCompleted:
      return kCompute;
  }
  return kIdle;
}

/// In-memory spans (run → step) plus per-layer seconds of the current
/// stepped pass.  Span ids start at 1; parent 0 marks a root span.
class Tracer {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = 0;
  };

  /// Start a new stepped pass: drop the previous pass's spans and sums.
  void new_pass() {
    spans_.clear();
    layer_s_.fill(0.0);
  }

  std::uint32_t span(std::uint32_t parent, const char* name,
                     Clock::time_point a, Clock::time_point b) {
    spans_.push_back(Span{next_id_, parent, name, ns(a), ns(b) - ns(a)});
    return next_id_++;
  }

  void charge(std::uint32_t parent, Layer layer, Clock::time_point a,
              Clock::time_point b) {
    layer_s_[layer] += std::chrono::duration<double>(b - a).count();
    span(parent, kLayerMetric[layer], a, b);
  }

  /// Fix the end of a span opened with the same start and end.
  void close(std::uint32_t id, Clock::time_point b) {
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
      if (it->id == id) {
        it->dur_ns = ns(b) - it->start_ns;
        return;
      }
    }
  }

  const std::array<double, kLayerCount>& layer_seconds() const {
    return layer_s_;
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "id,parent,name,start_ns,dur_ns\n";
    for (const Span& s : spans_) {
      out << s.id << ',' << s.parent << ",\"" << s.name << "\","
          << s.start_ns << ',' << s.dur_ns << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::uint32_t next_id_ = 1;
  std::vector<Span> spans_;
  std::array<double, kLayerCount> layer_s_{};
};

/// The layer a step is charged to, from the events it appended: the layer of
/// the first one, except that a step that aborted or rolled back is charged
/// to spec.abort_s.  Aborts never lead a step (a failed join or a received
/// ABORT does), yet the rollback and re-execution they start are the cost.
Layer step_layer(const std::vector<obs::Event>& events, std::size_t first) {
  if (first == events.size()) return kIdle;
  for (std::size_t i = first; i < events.size(); ++i) {
    if (layer_of(events[i].kind) == kAbort) return kAbort;
  }
  return layer_of(events[first].kind);
}

/// Run `inst` one scheduler step at a time.  Runtime::run(0) starts the
/// processes, schedules the plan's crashes and fires what is due at time 0;
/// it is charged like a step.
RunOut run_stepped(const Instance& inst, sim::Time deadline, Tracer& tr) {
  auto rt = baseline::make_runtime(inst.scenario, /*speculation=*/true);
  sim::Scheduler& sched = rt->scheduler();
  const std::vector<obs::Event>& events = rt->recorder().events();
  const auto t0 = Clock::now();
  const std::uint32_t run_id = tr.span(0, inst.label.c_str(), t0, t0);
  const auto charged = [&](const auto& body) {
    const std::size_t before = events.size();
    const auto a = Clock::now();
    body();
    const auto b = Clock::now();
    tr.charge(run_id, step_layer(events, before), a, b);
  };
  charged([&] { rt->run(0); });
  for (;;) {
    const sim::Time next = sched.next_time();
    if (next == sim::kTimeNever || next > deadline) break;
    charged([&] { sched.step(); });
  }
  const auto t1 = Clock::now();
  tr.close(run_id, t1);
  return collect(*rt, std::chrono::duration<double>(t1 - t0).count());
}

// ---------------------------------------------------------------------------
// The benchmark
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Bench {
 public:
  explicit Bench(Options o)
      : o_(std::move(o)),
        parallel_(o_.workload == "fanout_sharded"),
        deadline_(o_.workload == "storm_chaos" ? sim::seconds(10)
                                               : sim::kTimeNever),
        workers_(end_to_end_workers()),
        cal_(parallel_ ? workers_ : 1) {}

  int run() {
    prepare();
    if (o_.trace) {
      traced();
    } else {
      untraced();
    }
    return report();
  }

 private:
  // Pessimistic reference, instances, each instance's own pessimistic run
  // (the virt_speedup base), and the set-up batch size.
  void prepare() {
    reference_ = baseline::run_scenario(
        base_scenario(o_, o_.wrong_reference ? 1 : 0), false, deadline_);
    horizon_ = reference_.last_completion;
    instances_ = build_instances(o_, horizon_);
    twins_.resize(instances_.size());
    firsts_.resize(instances_.size());
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      const RunOut r = run_sequential(instances_[i], deadline_, false, true);
      check(r, i, "pessimistic");
      expect_counts(key(i, "pessimistic"), r.counts, true);
      pess_completion_ += static_cast<double>(r.last_completion);
    }
    setup_batch_ = 1;
    setup_sample();
    const SetupSample one = setup_sample();
    setup_batch_ = static_cast<int>(
        std::clamp(1e-2 / (one.scenario_s + one.build_s), 1.0, 1e4));
  }

  struct SetupSample {
    double scenario_s = 0;  ///< building the instances' scenarios
    double build_s = 0;     ///< constructing their runtimes
  };

  // One set-up builds every instance's scenario and constructs its
  // runtime.  A set-up takes microseconds, so a sample times a batch of
  // set-ups (about 10 ms) and reports the mean of one.  Destroying the
  // runtimes is not timed.
  SetupSample setup_sample() {
    SetupSample s;
    for (int k = 0; k < setup_batch_; ++k) {
      const auto a = Clock::now();
      const auto insts = build_instances(o_, horizon_);
      const auto b = Clock::now();
      std::vector<std::unique_ptr<spec::Runtime>> runtimes;
      for (const auto& inst : insts) {
        runtimes.push_back(baseline::make_runtime(inst.scenario, true));
      }
      const auto c = Clock::now();
      s.scenario_s += std::chrono::duration<double>(b - a).count();
      s.build_s += std::chrono::duration<double>(c - b).count();
    }
    s.scenario_s /= setup_batch_;
    s.build_s /= setup_batch_;
    return s;
  }

  // Correctness gate: completed, equal to the pessimistic reference, and
  // (when given) equal to the sequential twin of the same schedule.
  void check(const RunOut& r, std::size_t i, const std::string& executor,
             const trace::CommittedTrace* twin = nullptr) {
    ++attempted_;
    std::string why;
    const auto t0 = Clock::now();
    if (!r.completed) {
      why = "did not complete";
    } else if (std::string d;
               !trace::compare_traces(reference_.trace, r.trace, &d)) {
      why = "committed trace differs from the pessimistic reference: " + d;
    } else if (std::string d;
               twin && !trace::compare_traces(*twin, r.trace, &d)) {
      why = "committed trace differs from the sequential per-link run: " + d;
    }
    check_s_ += since(t0);
    if (why.empty()) return;
    ++failed_;
    std::printf("FAIL workload=%s seed=%llu instance=\"%s\" executor=%s: %s\n",
                o_.workload.c_str(), static_cast<unsigned long long>(o_.seed),
                instances_[i].label.c_str(), executor.c_str(), why.c_str());
  }

  // Determinism gate: the first run under `key` fixes the counters; every
  // later run under the same key must reproduce them exactly.
  void expect_counts(const std::string& key, const Counts& c,
                     bool with_events) {
    const auto [it, fresh] = counts_.emplace(key, c);
    if (fresh) return;
    const Counts& base = it->second;
    std::string diff;
    if (c.counters != base.counters) {
      for (const auto& [name, v] : c.counters) {
        const auto b = base.counters.find(name);
        const std::uint64_t was = b == base.counters.end() ? 0 : b->second;
        if (was != v) {
          diff += " " + name + "=" + std::to_string(v) + "(was " +
                  std::to_string(was) + ")";
        }
      }
      if (diff.empty()) diff = " counter set changed";
    }
    if (c.peak_pending != base.peak_pending) diff += " sim_peak_pending";
    if (with_events && c.events_recorded != base.events_recorded) {
      diff += " events_recorded=" + std::to_string(c.events_recorded) +
              "(was " + std::to_string(base.events_recorded) + ")";
    }
    if (diff.empty()) return;
    drift_ = true;
    std::printf("DRIFT workload=%s seed=%llu %s:%s\n", o_.workload.c_str(),
                static_cast<unsigned long long>(o_.seed), key.c_str(),
                diff.c_str());
  }

  std::string key(std::size_t i, const std::string& executor) const {
    return std::to_string(i) + "/" + executor;
  }

  // The run end-to-end metrics are measured on.
  RunOut end_to_end_run(std::size_t i) {
    return parallel_ ? run_parallel(instances_[i], workers_, deadline_)
                     : run_sequential(instances_[i], deadline_, true, true);
  }

  std::string end_to_end_executor() const {
    return parallel_ ? "parallel-w" + std::to_string(workers_) : "sequential";
  }

  // Sequential per-link runs whose traces every parallel run must equal.
  void compute_twins() {
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      RunOut r = run_sequential(instances_[i], deadline_, true, true);
      check(r, i, "sequential");
      expect_counts(key(i, "sequential"), r.counts, true);
      twins_[i] = std::move(r.trace);
    }
  }

  // After two warm-up passes, passes run for --seconds.  A pass takes one
  // set-up sample, so set-up is timed in the same conditions, then runs
  // every instance.  The host's speed swings by up to 2x for seconds to
  // minutes (README.md shows the data), so the calibration kernel runs
  // before the set-up sample and after each timed piece, and the pass's
  // times are divided by the mean of its kernel times: that ratio holds
  // while the host's speed moves.
  void untraced() {
    constexpr std::size_t kMinPasses = 10;
    if (parallel_) compute_twins();
    const std::string executor = end_to_end_executor();
    bool first = true;
    const auto pass = [&](bool timed) {
      double kernel = cal_.kernel_s();
      const SetupSample s = setup_sample();
      kernel += cal_.kernel_s();
      double wall = 0;
      for (std::size_t i = 0; i < instances_.size(); ++i) {
        RunOut r = end_to_end_run(i);
        kernel += cal_.kernel_s();
        check(r, i, executor, parallel_ ? &twins_[i] : nullptr);
        expect_counts(key(i, executor), r.counts, true);
        wall += r.wall_s;
        if (first) firsts_[i] = std::move(r);
      }
      first = false;
      if (!timed) return;
      const double scale =
          kKernelRefS * static_cast<double>(instances_.size() + 2) / kernel;
      setup_samples_.push_back(s.scenario_s + s.build_s);
      setup_norms_.push_back(setup_samples_.back() * scale);
      pass_walls_.push_back(wall);
      pass_norms_.push_back(wall * scale);
    };
    pass(false);
    pass(false);
    const auto t0 = Clock::now();
    while (pass_walls_.size() < kMinPasses || since(t0) < o_.seconds) {
      pass(true);
    }
  }

  // One round runs every executor once over all instances, so their walls
  // are measured side by side.  Rounds repeat, after one warm-up round, for
  // --seconds.  Each executor's figure is its fastest round, and the layer
  // split is that of the fastest stepped round.
  void traced() {
    Tracer tracer;
    std::array<double, kLayerCount> layer_s{};
    std::vector<double> seq, stepped, quiet, pess, par1, parn, check_s;
    std::vector<double> scenario_s, build_s;
    RunSums par_sums;
    const auto t0 = Clock::now();
    for (int round = 0; round < 4 || since(t0) < o_.seconds; ++round) {
      const bool first = round == 0;
      const auto keep = [&](std::vector<double>& v, double wall) {
        if (!first) v.push_back(wall);
      };

      const SetupSample setup = setup_sample();
      keep(scenario_s, setup.scenario_s);
      keep(build_s, setup.build_s);

      // Untraced sequential runs: the twins of every other run.
      double wall = 0;
      const double check_before = check_s_;
      for (std::size_t i = 0; i < instances_.size(); ++i) {
        RunOut r = run_sequential(instances_[i], deadline_, true, true);
        check(r, i, "sequential");
        expect_counts(key(i, "sequential"), r.counts, true);
        wall += r.wall_s;
        if (first) {
          twins_[i] = r.trace;
          firsts_[i] = std::move(r);
        }
      }
      keep(seq, wall);
      keep(check_s, check_s_ - check_before);

      // Stepped runs: per-layer seconds; counters and traces must equal the
      // untraced twin's.
      tracer.new_pass();
      wall = 0;
      for (std::size_t i = 0; i < instances_.size(); ++i) {
        RunOut r = run_stepped(instances_[i], deadline_, tracer);
        check(r, i, "stepped", &twins_[i]);
        expect_counts(key(i, "sequential"), r.counts, true);
        wall += r.wall_s;
      }
      if (!first && (stepped.empty() || wall < fastest(stepped))) {
        layer_s = tracer.layer_seconds();
      }
      keep(stepped, wall);

      // Recorder off: what recording costs; counters other than the
      // recorder's own count must not move.
      wall = 0;
      for (std::size_t i = 0; i < instances_.size(); ++i) {
        RunOut r = run_sequential(instances_[i], deadline_, true, false);
        check(r, i, "recorder-off", &twins_[i]);
        expect_counts(key(i, "sequential"), r.counts, false);
        wall += r.wall_s;
      }
      keep(quiet, wall);

      // Pessimistic runs of the same scenarios: the speculation overhead.
      wall = 0;
      for (std::size_t i = 0; i < instances_.size(); ++i) {
        RunOut r = run_sequential(instances_[i], deadline_, false, true);
        check(r, i, "pessimistic");
        expect_counts(key(i, "pessimistic"), r.counts, true);
        wall += r.wall_s;
      }
      keep(pess, wall);

      // Executor comparison: workers=1 and workers=N against the
      // sequential per-link twin.  The executor cannot be stepped, so it
      // contributes whole-run spans.
      if (!parallel_) continue;
      for (const int w : {1, workers_}) {
        const std::string executor = "parallel-w" + std::to_string(w);
        wall = 0;
        for (std::size_t i = 0; i < instances_.size(); ++i) {
          const auto a = Clock::now();
          RunOut r = run_parallel(instances_[i], w, deadline_);
          tracer.span(0, w == 1 ? "exec.run_w1" : "exec.run_wN", a,
                      Clock::now());
          check(r, i, executor, &twins_[i]);
          expect_counts(key(i, executor), r.counts, true);
          wall += r.wall_s;
          if (first && w == workers_) par_sums.add(r);
        }
        keep(w == 1 ? par1 : parn, wall);
      }
    }

    // Profiler and abort attribution over each instance's recorded run,
    // once: on fanout_sharded they take several seconds.
    const auto profile_start = Clock::now();
    for (const RunOut& r : firsts_) {
      obs::build_profile(*r.recorder, r.names);
      obs::build_attribution(*r.recorder, r.names);
    }
    const double profile_s = since(profile_start);

    RunSums sums;
    for (const RunOut& r : firsts_) sums.add(r);
    const double seq_wall = fastest(seq);
    const double stepped_wall = fastest(stepped);
    const double quiet_wall = fastest(quiet);
    const double e2e_wall = parallel_ ? fastest(parn) : seq_wall;
    const double e2e_events =
        parallel_ ? par_sums.events : sums.events;  // scheduler events fired

    add("sim.events", sums.events, "count");
    add("sim.peak_pending", sums.peak_pending, "count");
    add("sim.ns_per_event", ratio(e2e_wall * 1e9, e2e_events), "ns");
    for (int l = 0; l < kLayerCount; ++l) {
      add(kLayerMetric[l], layer_s[l], "s");
    }
    add("spec.checkpoints_pruned", sums.pruned, "count");
    add("spec.overhead", ratio(seq_wall, fastest(pess)), "ratio");
    add("spec.forks", sums.forks, "count");
    add("spec.aborts", sums.aborts, "count");
    add("spec.rollbacks", sums.rollbacks, "count");
    add("spec.commit_ratio", ratio(sums.commits, sums.forks), "ratio");
    add("spec.control_per_commit", ratio(sums.control, sums.commits),
        "ratio");
    add("spec.redelivered", sums.redelivered, "count");
    add("net.messages_sent", sums.messages, "count");
    add("net.bytes_sent", sums.bytes, "bytes");
    add("net.retransmissions", sums.retransmissions, "count");
    add("fault.injected", sums.injected, "count");
    add("obs.events_recorded", sums.recorded, "count");
    add("obs.recorder_frac", ratio(seq_wall - quiet_wall, quiet_wall),
        "ratio");
    add("obs.profile_s", profile_s, "s");
    add("exec.gvt_windows", par_sums.windows, "count");
    add("exec.events_per_window", ratio(par_sums.events, par_sums.windows),
        "count");
    add("exec.shard1_over_sim", ratio(fastest(par1), seq_wall), "ratio");
    add("exec.speedup", ratio(fastest(par1), fastest(parn)), "ratio");
    add("trace.check_s", median(check_s), "s");
    add("core.scenario_s", fastest(scenario_s), "s");
    add("spec.runtime_build_s", fastest(build_s), "s");
    add("bench.tracing_overhead_s", stepped_wall - seq_wall, "s");

    std::printf("# %s seed=%llu traced, fastest of %zu rounds: sequential "
                "%.4f s, stepped %.4f s (tracing overhead %.4f s), "
                "recorder-off %.4f s, pessimistic %.4f s per pass\n",
                o_.workload.c_str(), static_cast<unsigned long long>(o_.seed),
                seq.size(), seq_wall, stepped_wall, stepped_wall - seq_wall,
                quiet_wall, fastest(pess));
    if (parallel_) {
      std::printf("# executors: sequential per-link %.4f s, workers=1 %.4f s, "
                  "workers=%d %.4f s, %.0f GVT windows\n",
                  seq_wall, fastest(par1), workers_, fastest(parn),
                  par_sums.windows);
    }
    if (!o_.spans_out.empty() && !tracer.write(o_.spans_out)) {
      std::fprintf(stderr, "ocsp_e2e: cannot write %s\n",
                   o_.spans_out.c_str());
    }
  }

  // Per-pass totals of the public work counters, over all instances.
  struct RunSums {
    double events = 0, peak_pending = 0, pruned = 0, forks = 0, aborts = 0,
           rollbacks = 0, commits = 0, control = 0, redelivered = 0,
           messages = 0, bytes = 0, retransmissions = 0, injected = 0,
           recorded = 0, windows = 0;

    static double counter(const Counts& c, const char* name) {
      const auto it = c.counters.find(name);
      return it == c.counters.end() ? 0.0 : static_cast<double>(it->second);
    }

    void add(const RunOut& r) {
      const spec::SpecStats& s = r.stats;
      events += counter(r.counts, "sim_events_fired");
      peak_pending = std::max(peak_pending, r.counts.peak_pending);
      pruned += static_cast<double>(s.checkpoints_pruned);
      forks += static_cast<double>(s.forks);
      aborts += static_cast<double>(s.total_aborts());
      rollbacks += static_cast<double>(s.rollbacks);
      commits += static_cast<double>(s.commits);
      control += static_cast<double>(s.control_sent);
      redelivered += static_cast<double>(s.messages_redelivered);
      messages += static_cast<double>(r.net.messages_sent);
      bytes += static_cast<double>(r.net.bytes_sent);
      retransmissions += counter(r.counts, "retransmissions");
      injected += counter(r.counts, "faults_injected");
      recorded += static_cast<double>(r.counts.events_recorded);
      windows += static_cast<double>(r.gvt_windows);
    }
  };

  void add(std::string name, double value, const char* unit) {
    metrics_.push_back(Metric{std::move(name), value, unit});
  }

  int report() {
    const double failed_frac =
        ratio(static_cast<double>(failed_), static_cast<double>(attempted_));
    if (!o_.trace) {
      double opt = 0;
      for (const RunOut& r : firsts_) {
        opt += static_cast<double>(r.last_completion);
      }
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      add("wall_s", median(pass_norms_), "s");
      add("setup_s", median(setup_norms_), "s");
      add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
      add("virt_speedup", ratio(pess_completion_, opt), "x");
      add("ok_frac", 1.0 - failed_frac, "ratio");
      const double kernel = median(cal_.samples());
      std::printf("# %s seed=%llu (%s): %zu passes after 2 warm-up passes, "
                  "%zu set-up samples of %d set-ups; calibration kernel "
                  "median %.3f ms (host at %.2fx the reference's time)\n",
                  o_.workload.c_str(), static_cast<unsigned long long>(o_.seed),
                  end_to_end_executor().c_str(), pass_walls_.size(),
                  setup_samples_.size(), setup_batch_, kernel * 1e3,
                  kernel / kKernelRefS);
      // The highest percentile with at least ten passes above it.
      const std::size_t n = pass_norms_.size();
      const double high = n >= 20 ? static_cast<double>(n - 11) / (n - 1) : 1;
      std::printf("# reference-host seconds (reported): wall_s median %.4f s, "
                  "p%.0f %.4f s; setup_s median %.3g s\n",
                  median(pass_norms_), 100 * high,
                  quantile(pass_norms_, high), median(setup_norms_));
      std::printf("# raw host seconds: wall_s fastest %.4f s, median %.4f s; "
                  "setup_s fastest %.3g s, median %.3g s\n",
                  fastest(pass_walls_), median(pass_walls_),
                  fastest(setup_samples_), median(setup_samples_));
    }
    const bool correct = failed_ == 0 && !drift_;
    std::printf("# failed_frac %.6f (%llu of %llu checked runs)%s\n",
                failed_frac, static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_),
                drift_ ? "; work counters drifted" : "");
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit);
    }
    std::printf("}}\n");
    return correct ? 0 : 3;
  }

  Options o_;
  bool parallel_;
  sim::Time deadline_;
  int workers_;
  baseline::RunResult reference_;
  std::vector<Instance> instances_;
  /// Committed trace of each instance's untraced sequential run.
  std::vector<trace::CommittedTrace> twins_;
  /// Each instance's first checked end-to-end (or sequential) run.
  std::vector<RunOut> firsts_;
  std::map<std::string, Counts> counts_;
  /// Untraced wall seconds of every timed pass, and the set-up samples, in
  /// raw host seconds and in reference-host seconds (see Calibration).
  std::vector<double> pass_walls_, setup_samples_, pass_norms_, setup_norms_;
  Calibration cal_;
  /// Sum over instances of the pessimistic virtual completion time.
  double pess_completion_ = 0;
  sim::Time horizon_ = 0;  ///< chaos plan horizon
  int setup_batch_ = 1;    ///< set-ups per setup_sample()
  double check_s_ = 0;
  std::uint64_t attempted_ = 0, failed_ = 0;
  bool drift_ = false;
  std::vector<Metric> metrics_;
};

}  // namespace

int main(int argc, char** argv) {
  Bench bench(parse(argc, argv));
  return bench.run();
}
