// Scenario harness: run the same program set optimistically and
// pessimistically and compare.
//
// The pessimistic baseline is not a separate engine: it is the identical
// runtime with speculation disabled, which executes every fork sequentially
// (left thread, then right thread seeded with the left's final state).
// This guarantees the two runs differ only in the protocol under test,
// which is exactly what Theorem 1's trace comparison and every benchmark's
// speedup column need.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "csp/env.h"
#include "csp/program.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "speculation/runtime.h"
#include "trace/events.h"

namespace ocsp::baseline {

struct ScenarioProcess {
  std::string name;
  csp::StmtPtr program;
  csp::Env env;
  /// Declared commutativity summaries for this process *as a target*
  /// (analysis-side only: consumed by analysis::build_commute_context;
  /// the runtime never reads them).  Empty means "infer from the program".
  csp::CommDecls commute;
};

struct Scenario {
  std::vector<ScenarioProcess> processes;
  spec::RuntimeOptions options;

  /// Per-pair link overrides applied after construction.
  struct LinkOverride {
    std::string src;
    std::string dst;
    net::LinkConfig config;
  };
  std::vector<LinkOverride> links;

  void add(std::string name, csp::StmtPtr program, csp::Env env = {},
           csp::CommDecls commute = {});
};

struct RunResult {
  sim::Time finished_at = 0;        ///< virtual time when the run drained
  sim::Time last_completion = 0;    ///< latest client completion time
  bool all_completed = false;
  /// The event queue drained with a client incomplete: nothing left to
  /// run could finish it (a message lost for good, a reply never sent).  A
  /// run cut off by its deadline with events still pending is not stalled.
  bool stalled = false;
  spec::SpecStats stats;
  trace::CommittedTrace trace;
  net::NetworkStats network;

  /// Merged run-wide metrics snapshot (counters, gauges, histograms).
  obs::MetricsRegistry metrics;
  /// Structured event log of the run; survives the runtime's teardown so
  /// exporters (chrome_trace_json) can run on the result.
  std::shared_ptr<obs::RunRecorder> recorder;
  /// Process names indexed by ProcessId, for trace export.
  std::vector<std::string> process_names;
};

/// Build a runtime for the scenario; `speculation` toggles the protocol.
std::unique_ptr<spec::Runtime> make_runtime(const Scenario& scenario,
                                            bool speculation);

/// Run to completion (or deadline) and collect the results.
RunResult run_scenario(const Scenario& scenario, bool speculation,
                       sim::Time deadline = sim::kTimeNever);

}  // namespace ocsp::baseline
