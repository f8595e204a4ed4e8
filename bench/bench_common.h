// Shared plumbing for the benchmark binaries.
//
// Every bench binary reproduces one paper figure or claim: it first prints
// a report (the scenario's event series or a parameter-sweep table — the
// "figure"), then runs google-benchmark over the underlying simulation so
// the implementation's own costs are tracked too.  Virtual-time results
// are attached to the google-benchmark runs as counters.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "baseline/scenario.h"
#include "core/workloads.h"
#include "obs/attribution.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/prof_json.h"
#include "obs/profile.h"
#include "obs/recorder.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/table.h"

namespace ocsp::bench {

/// Print the paper-figure slice of a run's recorded events, one
/// RunRecorder::to_string line each: forks, joins, commits, aborts, rollbacks,
/// control distributions, CDG cycles, released outputs and, with
/// `include_messages`, data-message sends and deliveries.  Past `max_lines`
/// it counts the matching events left unprinted.
inline void print_timeline(const obs::RunRecorder& recorder,
                           bool include_messages = true,
                           std::size_t max_lines = 80) {
  using K = obs::EventKind;
  std::vector<const obs::Event*> lines;
  for (const auto& e : recorder.events()) {
    const bool data_message =
        (e.kind == K::kMsgSent || e.kind == K::kMsgDelivered) &&
        e.control == obs::ControlType::kNone;
    if ((include_messages && data_message) || e.kind == K::kFork ||
        e.kind == K::kJoin || e.kind == K::kCommit || e.kind == K::kAbort ||
        e.kind == K::kRollback || e.kind == K::kControlSent ||
        e.kind == K::kCdgCycleDetected || e.kind == K::kExternalReleased) {
      lines.push_back(&e);
    }
  }
  for (std::size_t i = 0; i < lines.size() && i < max_lines; ++i) {
    std::printf("  %s\n", recorder.to_string(*lines[i]).c_str());
  }
  if (lines.size() > max_lines) {
    std::printf("  ... (%zu more entries)\n", lines.size() - max_lines);
  }
}

/// Run a scenario in both modes and return (pessimistic, optimistic).
inline std::pair<baseline::RunResult, baseline::RunResult> run_both(
    const baseline::Scenario& scenario,
    sim::Time deadline = sim::kTimeNever) {
  return {baseline::run_scenario(scenario, false, deadline),
          baseline::run_scenario(scenario, true, deadline)};
}

inline double speedup(const baseline::RunResult& pessimistic,
                      const baseline::RunResult& optimistic) {
  if (optimistic.last_completion == 0) return 0.0;
  return static_cast<double>(pessimistic.last_completion) /
         static_cast<double>(optimistic.last_completion);
}

/// Collector behind --ocsp_json_out=<path>: every set_counters() call
/// appends the run's metrics snapshot, and OCSP_BENCH_MAIN writes the whole
/// trajectory as one machine-readable JSON document on shutdown.
class MetricsTrajectory {
 public:
  static MetricsTrajectory& instance() {
    static MetricsTrajectory t;
    return t;
  }

  void set_output(std::string path) { path_ = std::move(path); }
  const std::string& path() const { return path_; }
  std::size_t size() const { return entries_.size(); }

  void add(std::string label, const baseline::RunResult& result) {
    add(std::move(label), sim::to_millis(result.last_completion),
        result.metrics);
  }

  /// Entry of a bench that drives one layer directly, without a scenario.
  void add(std::string label, double virt_ms, obs::MetricsRegistry metrics) {
    entries_.push_back(Entry{std::move(label), virt_ms, std::move(metrics)});
  }

  /// Document format version: bumped to 2 when histogram summaries gained
  /// p99/p999 and this field itself was introduced (absent == version 1).
  static constexpr int kSchemaVersion = 2;

  /// {"schema":"ocsp-bench-v1","schema_version":2,"binary":...,
  /// "benchmarks":[{name, virt_ms,
  /// metrics:{counters,gauges,accumulators,histograms}}]}.
  bool write(const char* binary) const {
    if (path_.empty()) return true;
    util::JsonWriter w;
    w.begin_object();
    w.key("schema");
    w.value("ocsp-bench-v1");
    w.key("schema_version");
    w.value(kSchemaVersion);
    w.key("binary");
    w.value(binary);
    w.key("benchmarks");
    w.begin_array();
    for (const auto& e : entries_) {
      w.begin_object();
      w.key("name");
      w.value(e.label);
      w.key("virt_ms");
      w.value(e.virt_ms);
      w.key("metrics");
      e.metrics.write_json(w);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      OCSP_ELOG << "cannot write --ocsp_json_out file " << path_;
      return false;
    }
    const std::string text = w.str();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("ocsp: wrote metrics snapshot (%zu runs) to %s\n",
                entries_.size(), path_.c_str());
    return true;
  }

 private:
  struct Entry {
    std::string label;
    double virt_ms = 0;
    obs::MetricsRegistry metrics;
  };
  std::string path_;
  std::vector<Entry> entries_;
};

/// Collector behind --ocsp_prof_out=<path>: every set_counters() call
/// post-processes the run's event stream into a causal profile (time
/// accounting, critical path, abort attribution) and the whole set is
/// written as one ocsp-prof-v1 document on shutdown.
class ProfileTrajectory {
 public:
  static ProfileTrajectory& instance() {
    static ProfileTrajectory t;
    return t;
  }

  void set_output(std::string path) { path_ = std::move(path); }
  const std::string& path() const { return path_; }
  std::size_t size() const { return entries_.size(); }

  void add(const std::string& label, const baseline::RunResult& result) {
    if (path_.empty() || !result.recorder) return;
    Entry e;
    e.label = label;
    e.profile = obs::build_profile(*result.recorder, result.process_names);
    e.attribution =
        obs::build_attribution(*result.recorder, result.process_names);
    entries_.push_back(std::move(e));
  }

  /// {"schema":"ocsp-prof-v1","schema_version":...,"binary":...,
  /// "runs":[{name, profile:<full per-run ocsp-prof-v1 object>}]}.
  bool write(const char* binary) const {
    if (path_.empty()) return true;
    util::JsonWriter w;
    w.begin_object();
    w.key("schema");
    w.value("ocsp-prof-v1");
    w.key("schema_version");
    w.value(obs::kProfSchemaVersion);
    w.key("binary");
    w.value(binary);
    w.key("runs");
    w.begin_array();
    for (const auto& e : entries_) {
      w.begin_object();
      w.key("name");
      w.value(e.label);
      w.key("profile");
      obs::write_prof_json(e.profile, e.attribution, w);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      OCSP_ELOG << "cannot write --ocsp_prof_out file " << path_;
      return false;
    }
    const std::string text = w.str();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("ocsp: wrote causal profiles (%zu runs) to %s\n",
                entries_.size(), path_.c_str());
    return true;
  }

 private:
  struct Entry {
    std::string label;
    obs::RunProfile profile;
    obs::AttributionReport attribution;
  };
  std::string path_;
  std::vector<Entry> entries_;
};

/// Smoke mode (--ocsp_smoke): reports shrink their parameter sweeps so CI
/// can exercise every bench binary end-to-end in seconds.  The claims are
/// still checked — only the swept range is reduced.
inline bool& smoke_mode() {
  static bool smoke = false;
  return smoke;
}

/// Worker-count override (--ocsp_workers=N): report sections that sweep the
/// parallel executor restrict themselves to this single width instead of
/// their default {1, 2, 4, 8}.  0 (default) means sweep.
inline int& workers_override() {
  static int workers = 0;
  return workers;
}

/// The worker counts a report section should sweep: the --ocsp_workers
/// override when given, else the standard width ladder.
inline std::vector<int> sweep_workers() {
  if (workers_override() > 0) return {workers_override()};
  return {1, 2, 4, 8};
}

/// Strip the ocsp-specific flags from argv (google-benchmark would reject
/// them): --ocsp_json_out=<path> arms the metrics collector,
/// --ocsp_prof_out=<path> arms the causal-profile collector,
/// --ocsp_smoke enables smoke mode and --ocsp_workers=N pins the parallel
/// sweep width.
inline void consume_json_out_flag(int* argc, char** argv) {
  const std::string json_prefix = "--ocsp_json_out=";
  const std::string prof_prefix = "--ocsp_prof_out=";
  const std::string workers_prefix = "--ocsp_workers=";
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(json_prefix, 0) == 0) {
      MetricsTrajectory::instance().set_output(
          arg.substr(json_prefix.size()));
    } else if (arg.rfind(prof_prefix, 0) == 0) {
      ProfileTrajectory::instance().set_output(
          arg.substr(prof_prefix.size()));
    } else if (arg == "--ocsp_smoke") {
      smoke_mode() = true;
    } else if (arg.rfind(workers_prefix, 0) == 0) {
      workers_override() = std::atoi(arg.c_str() + workers_prefix.size());
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

/// Attach the standard virtual-time counters to a google-benchmark state
/// and feed the --ocsp_json_out trajectory.  `label` names the entry in the
/// JSON output; empty derives run_<index>.
inline void set_counters(benchmark::State& state,
                         const baseline::RunResult& result,
                         std::string label = {}) {
  state.counters["virt_ms"] = sim::to_millis(result.last_completion);
  state.counters["commits"] = static_cast<double>(result.stats.commits);
  state.counters["aborts"] =
      static_cast<double>(result.stats.total_aborts());
  state.counters["rollbacks"] =
      static_cast<double>(result.stats.rollbacks);
  state.counters["control_sent"] =
      static_cast<double>(result.stats.control_sent);
  state.counters["precedence_sent"] =
      static_cast<double>(result.stats.precedence_sent);
  state.counters["messages_redelivered"] =
      static_cast<double>(result.stats.messages_redelivered);
  auto& trajectory = MetricsTrajectory::instance();
  auto& profiles = ProfileTrajectory::instance();
  if (!trajectory.path().empty() || !profiles.path().empty()) {
    if (label.empty()) {
      label = "run_" + std::to_string(
                           std::max(trajectory.size(), profiles.size()));
    }
    profiles.add(label, result);
    if (!trajectory.path().empty()) {
      trajectory.add(std::move(label), result);
    }
  }
}

inline void print_header(const char* experiment, const char* claim) {
  std::printf("==============================================================="
              "=\n%s\n%s\n============================================="
              "===================\n\n",
              experiment, claim);
}

}  // namespace ocsp::bench

/// Standard main: print the figure/report, then run google-benchmark;
/// --ocsp_json_out=<path> additionally writes a machine-readable metrics
/// snapshot and --ocsp_prof_out=<path> a causal profile of every
/// benchmarked run.
#define OCSP_BENCH_MAIN(report_fn)                       \
  int main(int argc, char** argv) {                      \
    ocsp::bench::consume_json_out_flag(&argc, argv);     \
    report_fn();                                         \
    benchmark::Initialize(&argc, argv);                  \
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    benchmark::RunSpecifiedBenchmarks();                 \
    benchmark::Shutdown();                               \
    const bool wrote_metrics =                           \
        ocsp::bench::MetricsTrajectory::instance().write(argv[0]); \
    const bool wrote_profiles =                          \
        ocsp::bench::ProfileTrajectory::instance().write(argv[0]); \
    return wrote_metrics && wrote_profiles ? 0 : 1;      \
  }
