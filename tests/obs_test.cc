// Observability-layer tests: every counter the recording funnel bumps must
// reconcile exactly with the recorded events, and must not change when the
// recorder stores nothing; the Chrome trace exporter must emit a
// well-formed document (per-process tracks, commit/abort-tagged slices,
// PRECEDENCE flows); the metrics snapshot must carry the canonical
// counters and histograms; and the recorder's string table must give every
// event its detail back, merged or not, at no allocation before first use.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/workloads.h"
#include "fault/plan.h"
#include "obs/chrome_trace.h"
#include "obs/events.h"
#include "obs/merge.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "util/json.h"

// Every global operator new in this binary is counted (as in sim_test), so
// a test can assert that constructing a recorder allocates nothing.
namespace {
std::size_t g_allocations = 0;
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace ocsp {
namespace {

using obs::AbortReason;
using obs::EventKind;

spec::Runtime& run_write_through(std::unique_ptr<spec::Runtime>& holder,
                                 bool force_fault) {
  core::WriteThroughParams p;
  p.force_fault = force_fault;
  p.net.latency = sim::microseconds(100);
  p.service_time = sim::microseconds(10);
  holder = baseline::make_runtime(core::write_through_scenario(p), true);
  holder->run();
  return *holder;
}

spec::Runtime& run_mutual_crossing(std::unique_ptr<spec::Runtime>& holder) {
  core::MutualParams p;
  p.crossing = true;
  p.net.latency = sim::microseconds(200);
  p.service_time = sim::microseconds(20);
  holder = baseline::make_runtime(core::mutual_scenario(p), true);
  holder->run();
  return *holder;
}

baseline::RunResult run_relay_stream_pipeline() {
  core::PipelineParams p;
  p.calls = 8;
  p.chain_depth = 3;
  p.net.latency = sim::microseconds(500);
  p.service_time = sim::microseconds(20);
  p.stream = true;
  p.stream_relays = true;
  return baseline::run_scenario(core::pipeline_scenario(p), true);
}

// ---- Recorder vs SpecStats reconciliation ---------------------------------

/// Every counter a process's recording funnel bumps equals the recorded
/// events of its kind.
void expect_reconciled(const spec::Runtime& rt) {
  const spec::SpecStats s = rt.total_stats();
  const obs::MetricsRegistry m = rt.metrics();
  const obs::RunRecorder& rec = rt.recorder();
  const std::pair<EventKind, std::uint64_t> by_kind[] = {
      {EventKind::kFork, s.forks},
      {EventKind::kIntervalBegin, s.forks},
      {EventKind::kSafeForkElided, s.safe_forks},
      {EventKind::kJoin, s.joins},
      {EventKind::kCommit, s.commits},
      {EventKind::kCommuteCommit, s.commute_commits},
      {EventKind::kRollback, s.rollbacks},
      {EventKind::kCheckpointTaken, s.checkpoints},
      {EventKind::kExternalBuffered, s.externals_buffered},
      {EventKind::kExternalReleased, s.externals_released},
      {EventKind::kExternalDiscarded, s.externals_discarded},
      {EventKind::kCrash, s.crashes},
      {EventKind::kRecovery, s.crash_recoveries},
      {EventKind::kGovernorDemote, s.governor_demotions},
      {EventKind::kGovernorPromote, s.governor_promotions},
      {EventKind::kGuessMade, m.counter_or("guesses_made")},
      {EventKind::kGuessVerified, m.counter_or("guesses_verified")},
      {EventKind::kGuessFailed, m.counter_or("guesses_failed")},
      // total_aborts() counts primary faults only; cascades are apart.
      {EventKind::kAbort, s.total_aborts() + s.aborts_cascade},
  };
  for (const auto& [kind, n] : by_kind) {
    EXPECT_EQ(rec.count(kind), n) << obs::to_string(kind);
  }
  const std::pair<AbortReason, std::uint64_t> by_reason[] = {
      {AbortReason::kValueFault, s.aborts_value_fault},
      {AbortReason::kTimeFault, s.aborts_time_fault},
      {AbortReason::kTimeout, s.aborts_timeout},
      {AbortReason::kCascade, s.aborts_cascade},
      {AbortReason::kCrash, s.aborts_crash},
  };
  for (const auto& [reason, n] : by_reason) {
    EXPECT_EQ(rec.abort_count(reason), n) << obs::to_string(reason);
  }
  std::uint64_t forgiven = 0;
  for (const auto& e : rec.events()) {
    if (e.kind == EventKind::kCommuteCommit) forgiven += e.a;
  }
  EXPECT_EQ(forgiven, s.commute_forgiven_vars);
  // The snapshot counts each commute commit once.
  EXPECT_EQ(m.counter_or("commute_commits"), s.commute_commits);
}

/// Run `scenario` and reconcile it, then run it again with the recorder
/// storing nothing: every counter must repeat.  Returns the run's stats.
spec::SpecStats expect_reconciled_run(const baseline::Scenario& scenario,
                                      sim::Time deadline = sim::kTimeNever) {
  auto on = baseline::make_runtime(scenario, true);
  on->run(deadline);
  EXPECT_TRUE(on->all_clients_completed());
  expect_reconciled(*on);
  auto off = baseline::make_runtime(scenario, true);
  off->recorder().set_enabled(false);
  off->run(deadline);
  EXPECT_TRUE(off->recorder().events().empty());
  EXPECT_EQ(on->total_stats(), off->total_stats());
  EXPECT_EQ(on->metrics().counters(), off->metrics().counters());
  return on->total_stats();
}

TEST(ObsReconciliation, CleanWriteThroughRun) {
  std::unique_ptr<spec::Runtime> rt;
  expect_reconciled(run_write_through(rt, /*force_fault=*/false));
  EXPECT_GT(rt->recorder().count(EventKind::kCommit), 0u);
}

TEST(ObsReconciliation, TimeFaultRunCountsEveryAbort) {
  std::unique_ptr<spec::Runtime> rt;
  expect_reconciled(run_write_through(rt, /*force_fault=*/true));
  EXPECT_GT(rt->recorder().abort_count(AbortReason::kTimeFault), 0u);
  EXPECT_GT(rt->recorder().count(EventKind::kRollback), 0u);
}

TEST(ObsReconciliation, MutualCrossingRun) {
  std::unique_ptr<spec::Runtime> rt;
  expect_reconciled(run_mutual_crossing(rt));
  EXPECT_GT(rt->recorder().count(EventKind::kCdgCycleDetected) +
                rt->recorder().abort_count(AbortReason::kTimeFault),
            0u);
}

TEST(ObsReconciliation, CountsSurviveDisabledRecorder) {
  core::WriteThroughParams p;
  p.force_fault = true;
  p.net.latency = sim::microseconds(100);
  p.service_time = sim::microseconds(10);
  const spec::SpecStats s =
      expect_reconciled_run(core::write_through_scenario(p));
  EXPECT_GT(s.rollbacks, 0u);
  EXPECT_GT(s.checkpoints, 0u);
}

TEST(ObsReconciliation, CommuteCommitsCountedOnce) {
  core::CommuteRegistryParams p;
  p.clients = 2;
  p.net.latency = sim::microseconds(300);
  const spec::SpecStats s =
      expect_reconciled_run(core::commute_registry_scenario(p));
  EXPECT_GT(s.commute_commits, 0u);
}

TEST(ObsReconciliation, GovernedAbortStorm) {
  core::AbortStormParams p;
  p.calls = 30;
  p.spec.governor_enabled = true;
  const spec::SpecStats s =
      expect_reconciled_run(core::abort_storm_scenario(p));
  EXPECT_GT(s.governor_demotions, 0u);
  EXPECT_GT(s.aborts_value_fault, 0u);
}

TEST(ObsReconciliation, SafeFanoutElidedForks) {
  core::SafeFanoutParams p;
  p.servers = 4;
  p.net.latency = sim::microseconds(300);
  p.spec.safe_site_oracle = false;  // exercise the elided fast path
  const spec::SpecStats s =
      expect_reconciled_run(core::safe_fanout_scenario(p));
  EXPECT_GT(s.safe_forks, 0u);
}

TEST(ObsReconciliation, CrashChaosPlan) {
  // PutLine under chaos plan 4 (the crash category) with the recovery
  // stack on.
  core::PutLineParams p;
  p.lines = 8;
  p.seed = 4;
  p.spec.control_retry = true;
  baseline::Scenario scenario = core::putline_scenario(p);
  scenario.options.reliable.enabled = true;
  scenario.options.fault_plan =
      fault::make_chaos_plan(4, {}, /*num_processes=*/2);
  const spec::SpecStats s = expect_reconciled_run(scenario, sim::seconds(10));
  EXPECT_GT(s.crashes, 0u);
  EXPECT_GT(s.crash_recoveries, 0u);
}

TEST(ObsReconciliation, GuessLifecycleMatchesVerifierCounts) {
  std::unique_ptr<spec::Runtime> rt_holder;
  const spec::Runtime& rt = run_write_through(rt_holder, true);
  const obs::RunRecorder& rec = rt.recorder();
  // Every speculative join verdict is either a verification or a failure,
  // and verdicts never outnumber the guesses that were made.
  EXPECT_LE(rec.count(EventKind::kGuessVerified) +
                rec.count(EventKind::kGuessFailed),
            rec.count(EventKind::kGuessMade));
  EXPECT_GT(rec.count(EventKind::kGuessMade), 0u);
}

// ---- Chrome trace export --------------------------------------------------

struct TraceShape {
  std::size_t process_name_meta = 0;
  std::size_t commit_slices = 0;
  std::size_t abort_slices = 0;
  std::size_t precedence_flows = 0;
  std::size_t flow_starts = 0;
  std::size_t flow_ends = 0;
};

TraceShape shape_of(const util::JsonValue& doc) {
  TraceShape s;
  const util::JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) return s;
  for (const auto& e : events->array) {
    const util::JsonValue* ph = e.find("ph");
    const util::JsonValue* name = e.find("name");
    if (ph == nullptr) continue;
    if (ph->string == "M" && name != nullptr &&
        name->string == "process_name") {
      ++s.process_name_meta;
    }
    if (ph->string == "X") {
      const util::JsonValue* args = e.find("args");
      const util::JsonValue* outcome =
          args != nullptr ? args->find("outcome") : nullptr;
      if (outcome != nullptr && outcome->string == "commit") {
        ++s.commit_slices;
      }
      if (outcome != nullptr && outcome->string == "abort") {
        ++s.abort_slices;
      }
    }
    if (ph->string == "s") {
      ++s.flow_starts;
      const util::JsonValue* cat = e.find("cat");
      if (cat != nullptr && cat->string == "precedence") {
        ++s.precedence_flows;
      }
    }
    if (ph->string == "f") ++s.flow_ends;
  }
  return s;
}

TEST(ObsChromeTrace, RelayStreamTrackSlicesAndPrecedenceFlows) {
  baseline::RunResult result = run_relay_stream_pipeline();
  ASSERT_TRUE(result.all_completed);
  ASSERT_TRUE(result.recorder != nullptr);
  ASSERT_FALSE(result.process_names.empty());

  const std::string text =
      obs::chrome_trace_json(*result.recorder, result.process_names);
  auto doc = util::json_parse(text);
  ASSERT_TRUE(doc.has_value()) << "exporter emitted invalid JSON";
  ASSERT_TRUE(doc->is_object());
  ASSERT_TRUE(doc->find("traceEvents") != nullptr);

  const TraceShape s = shape_of(*doc);
  // One named track per process.
  EXPECT_EQ(s.process_name_meta, result.process_names.size());
  // Relay streaming commits a chain of guesses without aborting.
  EXPECT_GT(s.commit_slices, 0u);
  // Dependent guesses publish PRECEDENCE, exported as flow arrows.
  EXPECT_GT(s.precedence_flows, 0u);
  // Flow starts and finishes are emitted in matched pairs.
  EXPECT_EQ(s.flow_starts, s.flow_ends);
}

TEST(ObsChromeTrace, FaultRunTagsAbortSlices) {
  std::unique_ptr<spec::Runtime> rt;
  run_write_through(rt, /*force_fault=*/true);
  const std::string text =
      obs::chrome_trace_json(rt->recorder(), rt->process_names());
  auto doc = util::json_parse(text);
  ASSERT_TRUE(doc.has_value());
  const TraceShape s = shape_of(*doc);
  // The faulted guess aborts; re-execution is sequential (no new guess),
  // so the trace carries abort-tagged slices but need not carry commits.
  EXPECT_GT(s.abort_slices, 0u);
}

TEST(ObsChromeTrace, SafeFanoutDocumentRoundTripsWellFormed) {
  // Round-trip every exported event through the JSON parser: each entry
  // must be an object with a phase, a pid, and (for non-metadata phases) a
  // numeric timestamp.  The SAFE-fanout run exercises the elided-fork
  // events through the exporter as well.
  core::SafeFanoutParams p;
  p.servers = 4;
  p.net.latency = sim::microseconds(300);
  p.spec.safe_site_oracle = false;  // exercise the elided fast path
  baseline::RunResult result =
      baseline::run_scenario(core::safe_fanout_scenario(p), true);
  ASSERT_TRUE(result.all_completed);
  ASSERT_TRUE(result.recorder != nullptr);
  EXPECT_GT(result.recorder->count(obs::EventKind::kSafeForkElided), 0u);

  const std::string text =
      obs::chrome_trace_json(*result.recorder, result.process_names);
  auto doc = util::json_parse(text);
  ASSERT_TRUE(doc.has_value()) << "exporter emitted invalid JSON";
  const util::JsonValue* events = doc->find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->is_array());
  ASSERT_FALSE(events->array.empty());
  for (const auto& e : events->array) {
    ASSERT_TRUE(e.is_object());
    const util::JsonValue* ph = e.find("ph");
    ASSERT_TRUE(ph != nullptr && ph->is_string());
    ASSERT_TRUE(e.find("pid") != nullptr);
    if (ph->string != "M") {
      const util::JsonValue* ts = e.find("ts");
      ASSERT_TRUE(ts != nullptr && ts->is_number());
      EXPECT_GE(ts->number, 0.0);
    }
  }
  const TraceShape s = shape_of(*doc);
  EXPECT_EQ(s.process_name_meta, result.process_names.size());
  EXPECT_EQ(s.flow_starts, s.flow_ends);
}

// ---- Metrics snapshot -----------------------------------------------------

TEST(ObsMetrics, RunWideSnapshotCarriesCanonicalSeries) {
  std::unique_ptr<spec::Runtime> rt_holder;
  const spec::Runtime& rt = run_write_through(rt_holder, true);
  const obs::MetricsRegistry m = rt.metrics();
  const spec::SpecStats stats = rt.total_stats();

  EXPECT_EQ(m.counter_or("commits"), stats.commits);
  EXPECT_EQ(m.counter_or("aborts_time_fault"), stats.aborts_time_fault);
  EXPECT_EQ(m.counter_or("aborts_cascade"), stats.aborts_cascade);
  EXPECT_EQ(m.counter_or("rollbacks"), stats.rollbacks);
  EXPECT_EQ(m.counter_or("messages_redelivered"),
            stats.messages_redelivered);
  EXPECT_GT(m.counter_or("net_messages_delivered"), 0u);

  const util::Histogram* rollback = m.find_histogram("rollback_distance");
  ASSERT_TRUE(rollback != nullptr);
  EXPECT_EQ(rollback->total(), stats.rollbacks);
  ASSERT_TRUE(m.find_histogram("speculation_depth") != nullptr);
  EXPECT_GT(m.find_histogram("speculation_depth")->total(), 0u);

  EXPECT_TRUE(m.gauges().count("guess_accuracy") > 0);
}

TEST(ObsMetrics, SnapshotJsonParsesWithTopLevelSections) {
  std::unique_ptr<spec::Runtime> rt_holder;
  const spec::Runtime& rt = run_write_through(rt_holder, true);
  auto doc = util::json_parse(rt.metrics().to_json());
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  for (const char* section :
       {"counters", "gauges", "accumulators", "histograms"}) {
    const util::JsonValue* v = doc->find(section);
    ASSERT_TRUE(v != nullptr) << section;
    EXPECT_TRUE(v->is_object()) << section;
  }
  const util::JsonValue* counters = doc->find("counters");
  EXPECT_TRUE(counters->find("commits") != nullptr);
}

TEST(ObsMetrics, PerProcessViewsMergeToRunTotals) {
  std::unique_ptr<spec::Runtime> rt_holder;
  const spec::Runtime& rt = run_write_through(rt_holder, true);
  obs::MetricsRegistry merged;
  for (ProcessId id : rt.all_process_ids()) {
    merged.merge(rt.process_metrics(id));
  }
  const spec::SpecStats stats = rt.total_stats();
  EXPECT_EQ(merged.counter_or("commits"), stats.commits);
  EXPECT_EQ(merged.counter_or("forks"), stats.forks);
  EXPECT_EQ(merged.counter_or("aborts_time_fault"), stats.aborts_time_fault);
}

TEST(ObsMetrics, PredictorAccuracySeriesPresentOnSpeculativeRun) {
  baseline::RunResult result = run_relay_stream_pipeline();
  bool found = false;
  for (const auto& [name, value] : result.metrics.counters()) {
    if (name.rfind("predictor/", 0) == 0 &&
        name.find("/hits") != std::string::npos && value > 0) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << result.metrics.to_json();
}

// ---- Recorder basics ------------------------------------------------------

TEST(ObsRecorder, DisabledRecorderDropsEverything) {
  obs::RunRecorder rec;
  rec.set_enabled(false);
  obs::Event e;
  e.kind = EventKind::kAbort;
  e.reason = AbortReason::kValueFault;
  rec.record(e);
  EXPECT_EQ(rec.count(EventKind::kAbort), 0u);
  EXPECT_EQ(rec.abort_count(AbortReason::kValueFault), 0u);
  EXPECT_TRUE(rec.events().empty());

  rec.set_enabled(true);
  rec.record(e);
  EXPECT_EQ(rec.count(EventKind::kAbort), 1u);
  EXPECT_EQ(rec.abort_count(AbortReason::kValueFault), 1u);
  rec.clear();
  EXPECT_EQ(rec.count(EventKind::kAbort), 0u);
  EXPECT_TRUE(rec.events().empty());
}

TEST(ObsRecorder, DisabledRecorderInternsNothing) {
  obs::RunRecorder rec;
  rec.set_enabled(false);
  obs::Event e;
  e.kind = EventKind::kFork;
  rec.record(e, "site");
  EXPECT_TRUE(rec.events().empty());
  EXPECT_EQ(rec.string_count(), 0u);
}

obs::Event event_at(sim::Time when) {
  obs::Event e;
  e.kind = EventKind::kFork;
  e.when = when;
  e.process = 1;
  return e;
}

TEST(ObsRecorder, DetailRoundTripsThroughTheStringTable) {
  obs::RunRecorder rec;
  rec.record(event_at(1), "site-a");
  rec.record(event_at(2));
  rec.record(event_at(3), "site-b");
  rec.record(event_at(4), "site-a");
  const auto& ev = rec.events();
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(rec.detail(ev[0]), "site-a");
  EXPECT_EQ(rec.detail(ev[1]), "");
  EXPECT_EQ(ev[1].detail, 0u);
  EXPECT_EQ(rec.detail(ev[2]), "site-b");
  EXPECT_EQ(ev[3].detail, ev[0].detail);  // one entry per distinct string
  EXPECT_EQ(rec.string_count(), 2u);
  // The timeline line still ends with the detail.
  EXPECT_EQ(rec.to_string(ev[0]), "t=0.001us  P1  fork  site-a");
  EXPECT_EQ(rec.to_string(ev[1]), "t=0.002us  P1  fork");
}

TEST(ObsRecorder, StringTableGrowsAndKeepsEveryString) {
  // Enough strings to rehash the table several times, and views taken
  // early must stay valid.
  obs::RunRecorder rec;
  std::vector<std::string> strings;
  for (int i = 0; i < 3000; ++i) {
    strings.push_back("site-" + std::to_string(i) +
                      std::string(static_cast<std::size_t>(i % 40), 'x'));
  }
  strings.push_back(std::string(5000, 'L'));
  std::vector<std::uint32_t> ids;
  for (const auto& str : strings) ids.push_back(rec.intern(str));
  const std::string_view first = rec.string(ids.front());
  for (std::size_t i = 0; i < strings.size(); ++i) {
    EXPECT_EQ(ids[i], i + 1);
    EXPECT_EQ(rec.intern(strings[i]), ids[i]);  // found, not re-added
    EXPECT_EQ(rec.string(ids[i]), strings[i]);
  }
  EXPECT_EQ(first, strings.front());
  EXPECT_EQ(rec.string_count(), strings.size());
  EXPECT_EQ(rec.intern(""), 0u);
}

TEST(ObsRecorder, MergeRemapsEachPartsDetailIds) {
  // The same and different strings, interned in different orders, so the
  // two parts give "shared" and "x" different ids.
  obs::RunRecorder a;
  obs::RunRecorder b;
  a.record(event_at(10), "x");
  a.record(event_at(30), "shared");
  a.record(event_at(50));
  a.record(event_at(70), "only-a");
  b.record(event_at(20), "shared");
  b.record(event_at(40), "y");
  b.record(event_at(60), "x");
  ASSERT_NE(a.events()[0].detail, b.events()[2].detail);
  ASSERT_NE(a.events()[1].detail, b.events()[0].detail);

  const auto merged = obs::merge_recorders({&a, &b});
  std::vector<std::string> details;
  for (const auto& e : merged->events()) {
    details.emplace_back(merged->detail(e));
  }
  EXPECT_EQ(details, (std::vector<std::string>{"x", "shared", "shared", "y",
                                               "", "x", "only-a"}));
  EXPECT_EQ(merged->string_count(), 4u);
}

TEST(ObsRecorder, ConstructionAllocatesNothing) {
  const std::size_t before = g_allocations;
  {
    obs::RunRecorder rec;
    // Keep the recorder from being optimized away.
    asm volatile("" : : "g"(&rec) : "memory");
    EXPECT_TRUE(rec.events().empty());
  }
  EXPECT_EQ(g_allocations, before);
}

}  // namespace
}  // namespace ocsp
