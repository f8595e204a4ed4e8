#include "speculation/stats.h"

#include <iterator>
#include <sstream>

#include "obs/metrics.h"

namespace ocsp::spec {

namespace {

struct Counter {
  const char* name;  ///< metric name, the same as the field's
  std::uint64_t SpecStats::*field;
};

/// Every SpecStats counter, in declaration order: merge and export_to walk
/// this one list.
constexpr Counter kCounters[] = {
    {"forks", &SpecStats::forks},
    {"sequential_forks", &SpecStats::sequential_forks},
    {"safe_forks", &SpecStats::safe_forks},
    {"safe_oracle_violations", &SpecStats::safe_oracle_violations},
    {"joins", &SpecStats::joins},
    {"commits", &SpecStats::commits},
    {"commute_commits", &SpecStats::commute_commits},
    {"commute_forgiven_vars", &SpecStats::commute_forgiven_vars},
    {"commute_oracle_violations", &SpecStats::commute_oracle_violations},
    {"aborts_value_fault", &SpecStats::aborts_value_fault},
    {"aborts_time_fault", &SpecStats::aborts_time_fault},
    {"aborts_timeout", &SpecStats::aborts_timeout},
    {"aborts_crash", &SpecStats::aborts_crash},
    {"aborts_cascade", &SpecStats::aborts_cascade},
    {"rollbacks", &SpecStats::rollbacks},
    {"checkpoints", &SpecStats::checkpoints},
    {"replays", &SpecStats::replays},
    {"orphans_discarded", &SpecStats::orphans_discarded},
    {"messages_redelivered", &SpecStats::messages_redelivered},
    {"externals_buffered", &SpecStats::externals_buffered},
    {"externals_released", &SpecStats::externals_released},
    {"externals_discarded", &SpecStats::externals_discarded},
    {"control_sent", &SpecStats::control_sent},
    {"precedence_sent", &SpecStats::precedence_sent},
    {"checkpoints_pruned", &SpecStats::checkpoints_pruned},
    {"log_entries_pruned", &SpecStats::log_entries_pruned},
    {"checkpoint_bytes_copied", &SpecStats::checkpoint_bytes_copied},
    {"checkpoint_bytes_shared", &SpecStats::checkpoint_bytes_shared},
    {"rollback_restore_bytes", &SpecStats::rollback_restore_bytes},
    {"crashes", &SpecStats::crashes},
    {"crash_recoveries", &SpecStats::crash_recoveries},
    {"crash_messages_dropped", &SpecStats::crash_messages_dropped},
    {"governor_demotions", &SpecStats::governor_demotions},
    {"governor_promotions", &SpecStats::governor_promotions},
    {"governor_sequential_forks", &SpecStats::governor_sequential_forks},
};

// SpecStats holds nothing but counters, so a field missing from the table
// shows up as a size mismatch.
static_assert(sizeof(SpecStats) ==
                  std::size(kCounters) * sizeof(std::uint64_t),
              "every SpecStats counter needs a kCounters entry");

}  // namespace

void SpecStats::merge(const SpecStats& o) {
  for (const Counter& c : kCounters) this->*c.field += o.*c.field;
}

std::string SpecStats::to_string() const {
  std::ostringstream os;
  os << "forks=" << forks << " (seq=" << sequential_forks
     << " safe=" << safe_forks << ")"
     << " joins=" << joins << " commits=" << commits
     << " commute[commits=" << commute_commits
     << " vars=" << commute_forgiven_vars
     << " oracle=" << commute_oracle_violations << "]"
     << " aborts[value=" << aborts_value_fault
     << " time=" << aborts_time_fault << " timeout=" << aborts_timeout
     << " crash=" << aborts_crash << " cascade=" << aborts_cascade << "]"
     << " rollbacks=" << rollbacks << " checkpoints=" << checkpoints
     << " replays=" << replays << " orphans=" << orphans_discarded
     << " redelivered=" << messages_redelivered
     << " externals[buf=" << externals_buffered
     << " rel=" << externals_released << " drop=" << externals_discarded
     << "]"
     << " control=" << control_sent << " precedence=" << precedence_sent
     << " state_bytes[copied=" << checkpoint_bytes_copied
     << " shared=" << checkpoint_bytes_shared
     << " restored=" << rollback_restore_bytes << "]"
     << " crashes=" << crashes << "/" << crash_recoveries
     << " governor[demote=" << governor_demotions
     << " promote=" << governor_promotions
     << " seq=" << governor_sequential_forks << "]";
  return os.str();
}

void SpecStats::export_to(obs::MetricsRegistry& m) const {
  for (const Counter& c : kCounters) m.counter(c.name) += this->*c.field;
}

}  // namespace ocsp::spec
