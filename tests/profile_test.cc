// Causal-profiler tests: the time-accounting breakdown must be an exact
// partition of every process's span, abort attribution must reconcile
// event-for-event with SpecStats, the critical path must be causally valid
// and bounded by the run, SAFE-elided sites must show up as zero-cost
// profit, and the ocsp-prof-v1 export must round-trip through the JSON
// parser.  These are the acceptance invariants of the profiling subsystem.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "baseline/scenario.h"
#include "core/workloads.h"
#include "obs/attribution.h"
#include "obs/prof_json.h"
#include "obs/profile.h"
#include "util/json.h"

namespace ocsp {
namespace {

using obs::EventKind;
using obs::TimeCategory;

baseline::RunResult run_fig5(bool speculation = true) {
  core::WriteThroughParams p;
  p.force_fault = true;  // X->Z fast, Y->Z slow: the guaranteed mis-guess
  p.net.latency = sim::microseconds(200);
  p.service_time = sim::microseconds(10);
  return baseline::run_scenario(core::write_through_scenario(p),
                                speculation);
}

baseline::RunResult run_safe_fanout() {
  core::SafeFanoutParams p;
  p.servers = 4;
  p.net.latency = sim::microseconds(300);
  p.spec.safe_site_oracle = false;  // exercise the elided fast path
  return baseline::run_scenario(core::safe_fanout_scenario(p), true);
}

void expect_exact_partition(const obs::RunProfile& profile) {
  std::int64_t span_sum = 0;
  obs::TimeBreakdown global_check;
  for (const auto& p : profile.per_process) {
    EXPECT_EQ(p.breakdown.total(), p.span_ns)
        << "process " << p.name << " breakdown does not partition its span";
    EXPECT_GE(p.span_ns, 0);
    span_sum += p.span_ns;
    global_check.add(p.breakdown);
  }
  EXPECT_EQ(span_sum, profile.total_process_ns);
  EXPECT_EQ(profile.global.total(), profile.total_process_ns);
  for (std::size_t i = 0; i < obs::kTimeCategoryCount; ++i) {
    EXPECT_EQ(profile.global.ns[i], global_check.ns[i]);
    EXPECT_GE(profile.global.ns[i], 0);
  }
}

// ---- Time accounting ------------------------------------------------------

TEST(Profile, Fig5BreakdownSumsToTotalProcessTime) {
  const auto result = run_fig5();
  ASSERT_TRUE(result.recorder);
  const auto profile =
      obs::build_profile(*result.recorder, result.process_names);

  EXPECT_FALSE(profile.per_process.empty());
  expect_exact_partition(profile);

  // force_fault makes the write-through guess wrong: discarded compute must
  // surface as wasted time, and the re-execution as useful time.
  EXPECT_GT(profile.global[TimeCategory::kWasted], 0);
  EXPECT_GT(profile.global[TimeCategory::kUseful], 0);
  EXPECT_GT(profile.global[TimeCategory::kStall], 0);
  // Every discarded nanosecond matched a recorded compute segment.
  EXPECT_EQ(profile.unmatched_wasted_ns, 0);
}

TEST(Profile, PessimisticRunWastesNothing) {
  const auto result = run_fig5(/*speculation=*/false);
  ASSERT_TRUE(result.recorder);
  const auto profile =
      obs::build_profile(*result.recorder, result.process_names);
  expect_exact_partition(profile);
  EXPECT_EQ(profile.global[TimeCategory::kWasted], 0);
  EXPECT_EQ(profile.global[TimeCategory::kVerify], 0);
  EXPECT_GT(profile.global[TimeCategory::kUseful], 0);
}

// ---- Critical path --------------------------------------------------------

TEST(Profile, CriticalPathIsCausallyValidAndBounded) {
  const auto result = run_fig5();
  ASSERT_TRUE(result.recorder);
  const auto profile =
      obs::build_profile(*result.recorder, result.process_names);
  const auto& cp = profile.critical_path;

  EXPECT_TRUE(cp.causally_valid);
  EXPECT_GT(cp.length_ns, 0);
  EXPECT_LE(cp.length_ns, profile.run_span_ns);
  EXPECT_EQ(cp.breakdown.total(), cp.length_ns);
  ASSERT_FALSE(cp.steps.empty());
  for (std::size_t i = 1; i < cp.steps.size(); ++i) {
    EXPECT_LE(cp.steps[i - 1].to_ns, cp.steps[i].to_ns);
  }
  // The speedup bound the path implies must be a genuine upper bound on 1.
  EXPECT_GE(profile.global[TimeCategory::kUseful], cp.length_ns == 0
                ? 0
                : cp.breakdown[TimeCategory::kUseful]);
}

// ---- Abort attribution ----------------------------------------------------

TEST(Attribution, Fig5ReconcilesExactlyWithSpecStats) {
  const auto result = run_fig5();
  ASSERT_TRUE(result.recorder);
  const auto report =
      obs::build_attribution(*result.recorder, result.process_names);

  // Every kAbort event is attributed as either root or cascade...
  EXPECT_EQ(report.abort_events, result.recorder->count(EventKind::kAbort));
  EXPECT_EQ(report.root_abort_events + report.cascade_abort_events,
            report.abort_events);
  // ...and the split reconciles exactly with the legacy counters.
  EXPECT_EQ(report.root_abort_events, result.stats.total_aborts());
  EXPECT_EQ(report.cascade_abort_events, result.stats.aborts_cascade);
  EXPECT_GT(report.abort_events, 0u);

  // Per-site scorecards cover every attributed event.
  std::uint64_t site_roots = 0;
  std::uint64_t site_cascades = 0;
  std::int64_t site_wasted = 0;
  for (const auto& s : report.sites) {
    EXPECT_EQ(s.forks, s.speculative + s.safe_elided + s.sequential)
        << "site " << s.name << ":" << s.site;
    site_roots += s.aborts_root;
    site_cascades += s.aborts_caused;
    site_wasted += s.wasted_downstream_ns;
  }
  EXPECT_EQ(site_roots + report.unattributed_roots,
            report.root_abort_events);
  EXPECT_EQ(site_cascades + report.unattributed_cascades,
            report.cascade_abort_events);
  EXPECT_EQ(report.unattributed_roots, 0u);
  EXPECT_EQ(report.unattributed_cascades, 0u);
  EXPECT_EQ(site_wasted + report.unattributed_wasted_ns,
            report.wasted_total_ns);

  // The forced mis-guess must show a site in the red: downstream waste
  // rooted at it.  (The fault is raised remotely against the guess, so it
  // surfaces as a root abort, not as a join-time kGuessFailed miss.)
  bool found_loss = false;
  for (const auto& s : report.sites) {
    if (s.misses + s.aborts_root > 0 && s.wasted_downstream_ns > 0) {
      found_loss = true;
    }
  }
  EXPECT_TRUE(found_loss);
}

TEST(Attribution, WastedTimeMatchesProfileWastedCategory) {
  const auto result = run_fig5();
  ASSERT_TRUE(result.recorder);
  const auto profile =
      obs::build_profile(*result.recorder, result.process_names);
  const auto report =
      obs::build_attribution(*result.recorder, result.process_names);
  // Both walks read the same kWorkDiscarded events; totals must agree.
  EXPECT_EQ(report.wasted_total_ns,
            profile.global[TimeCategory::kWasted] +
                profile.unmatched_wasted_ns);
}

TEST(Attribution, SafeElidedSitesScoreAsZeroCostProfit) {
  const auto result = run_safe_fanout();
  ASSERT_TRUE(result.recorder);
  const auto report =
      obs::build_attribution(*result.recorder, result.process_names);

  std::uint64_t elided = 0;
  std::int64_t safe_saved = 0;
  for (const auto& s : report.sites) {
    elided += s.safe_elided;
    if (s.safe_elided > 0) {
      safe_saved += s.saved_ns;
      EXPECT_EQ(s.aborts_root, 0u);
      EXPECT_EQ(s.wasted_downstream_ns, 0);
      EXPECT_GE(s.net_ns(), 0);
    }
  }
  EXPECT_EQ(elided, result.stats.safe_forks);
  EXPECT_GT(elided, 0u);
  // The fan-out win: each elided fork's fork->join window overlaps the
  // other calls' round trips.  (elided_bytes is legitimately 0 here — the
  // fan-out client's env is empty at fork time.)
  EXPECT_GT(safe_saved, 0);
}

// ---- JSON export ----------------------------------------------------------

TEST(ProfJson, RoundTripsWithSchemaVersion) {
  const auto result = run_fig5();
  ASSERT_TRUE(result.recorder);
  const auto profile =
      obs::build_profile(*result.recorder, result.process_names);
  const auto report =
      obs::build_attribution(*result.recorder, result.process_names);

  const std::string text = obs::prof_json(profile, report);
  const auto doc = util::json_parse(text);
  ASSERT_TRUE(doc.has_value()) << "prof_json emitted invalid JSON";

  const auto* schema = doc->find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string, "ocsp-prof-v1");
  const auto* version = doc->find("schema_version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->number, obs::kProfSchemaVersion);

  const auto* accounting = doc->find("time_accounting");
  ASSERT_NE(accounting, nullptr);
  const auto* global = accounting->find("global");
  ASSERT_NE(global, nullptr);
  const auto* total = global->find("total_ns");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(static_cast<std::int64_t>(total->number),
            profile.total_process_ns);

  const auto* attribution = doc->find("abort_attribution");
  ASSERT_NE(attribution, nullptr);
  const auto* aborts = attribution->find("abort_events");
  ASSERT_NE(aborts, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(aborts->number),
            report.abort_events);
  const auto* sites = attribution->find("sites");
  ASSERT_NE(sites, nullptr);
  EXPECT_EQ(sites->array.size(), report.sites.size());
}

TEST(ProfJson, TablesRenderNonEmpty) {
  const auto result = run_fig5();
  ASSERT_TRUE(result.recorder);
  const auto profile =
      obs::build_profile(*result.recorder, result.process_names);
  const auto report =
      obs::build_attribution(*result.recorder, result.process_names);
  const std::string prof_table = obs::profile_table(profile);
  const std::string attr_table = obs::attribution_table(report);
  EXPECT_NE(prof_table.find("useful"), std::string::npos);
  EXPECT_NE(prof_table.find("Critical path"), std::string::npos);
  EXPECT_NE(attr_table.find("site"), std::string::npos);
}

}  // namespace
}  // namespace ocsp
