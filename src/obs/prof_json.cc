#include "obs/prof_json.h"

namespace ocsp::obs {

namespace {

void write_breakdown(const TimeBreakdown& bd, util::JsonWriter& w) {
  w.begin_object();
  for (std::size_t i = 0; i < kTimeCategoryCount; ++i) {
    const auto c = static_cast<TimeCategory>(i);
    w.key(std::string(to_string(c)) + "_ns").value(bd[c]);
  }
  w.key("total_ns").value(bd.total());
  w.end_object();
}

}  // namespace

void write_prof_json(const RunProfile& profile,
                     const AttributionReport& attribution,
                     util::JsonWriter& w) {
  w.begin_object();
  w.key("schema").value("ocsp-prof-v1");
  w.key("schema_version").value(kProfSchemaVersion);
  w.key("clock").value("virtual");

  w.key("time_accounting").begin_object();
  w.key("run_span_ns").value(profile.run_span_ns);
  w.key("total_process_ns").value(profile.total_process_ns);
  w.key("unmatched_wasted_ns").value(profile.unmatched_wasted_ns);
  w.key("global");
  write_breakdown(profile.global, w);
  w.key("per_process").begin_array();
  for (const auto& p : profile.per_process) {
    w.begin_object();
    w.key("process").value(p.name);
    w.key("id").value(static_cast<std::uint64_t>(p.process));
    w.key("span_ns").value(p.span_ns);
    w.key("breakdown");
    write_breakdown(p.breakdown, w);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  const auto& cp = profile.critical_path;
  w.key("critical_path").begin_object();
  w.key("length_ns").value(cp.length_ns);
  w.key("causally_valid").value(cp.causally_valid);
  w.key("breakdown");
  write_breakdown(cp.breakdown, w);
  if (cp.length_ns > 0) {
    w.key("speedup_bound")
        .value(static_cast<double>(profile.global[TimeCategory::kUseful]) /
               static_cast<double>(cp.length_ns));
  }
  w.key("steps").begin_array();
  for (const auto& s : cp.steps) {
    w.begin_object();
    w.key("process").value(static_cast<std::uint64_t>(s.process));
    w.key("from_ns").value(s.from_ns);
    w.key("to_ns").value(s.to_ns);
    w.key("via_message").value(s.via_message);
    if (s.via_message) w.key("msg_id").value(s.msg_id);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("abort_attribution").begin_object();
  w.key("abort_events").value(attribution.abort_events);
  w.key("root_abort_events").value(attribution.root_abort_events);
  w.key("cascade_abort_events").value(attribution.cascade_abort_events);
  w.key("unattributed_roots").value(attribution.unattributed_roots);
  w.key("unattributed_cascades").value(attribution.unattributed_cascades);
  w.key("wasted_total_ns").value(attribution.wasted_total_ns);
  w.key("unattributed_wasted_ns").value(attribution.unattributed_wasted_ns);
  w.key("liveness").begin_object();
  w.key("retransmissions").value(attribution.retransmissions);
  w.key("duplicates_suppressed").value(attribution.duplicates_suppressed);
  w.key("faults_injected").value(attribution.faults_injected);
  w.key("crashes").value(attribution.crashes);
  w.key("recoveries").value(attribution.recoveries);
  w.end_object();
  w.key("sites").begin_array();
  for (const auto& s : attribution.sites) {
    w.begin_object();
    w.key("process").value(s.name);
    w.key("site").value(s.site);
    w.key("forks").value(s.forks);
    w.key("speculative").value(s.speculative);
    w.key("safe_elided").value(s.safe_elided);
    w.key("sequential").value(s.sequential);
    w.key("hits").value(s.hits);
    w.key("misses").value(s.misses);
    w.key("commits").value(s.commits);
    w.key("commute_commits").value(s.commute_commits);
    w.key("aborts_root").value(s.aborts_root);
    w.key("aborts_timeout").value(s.aborts_timeout);
    w.key("aborts_caused").value(s.aborts_caused);
    w.key("governor_demotions").value(s.governor_demotions);
    w.key("governor_promotions").value(s.governor_promotions);
    w.key("governor_demoted").value(s.governor_demoted);
    w.key("wasted_downstream_ns").value(s.wasted_downstream_ns);
    w.key("saved_ns").value(s.saved_ns);
    w.key("elided_bytes").value(s.elided_bytes);
    w.key("net_ns").value(s.net_ns());
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.end_object();
}

std::string prof_json(const RunProfile& profile,
                      const AttributionReport& attribution) {
  util::JsonWriter w;
  write_prof_json(profile, attribution, w);
  return w.str();
}

}  // namespace ocsp::obs
