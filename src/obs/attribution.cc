#include "obs/attribution.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <set>
#include <string_view>
#include <utility>

#include "obs/profile.h"
#include "util/table.h"

namespace ocsp::obs {

namespace {

struct GuessKey {
  ProcessId owner;
  std::uint32_t incarnation;
  std::uint32_t index;
  auto operator<=>(const GuessKey&) const = default;
};

GuessKey key_of(const GuessRef& g) {
  return GuessKey{g.owner, g.incarnation, g.index};
}

struct SiteKey {
  ProcessId process;
  std::string site;
  auto operator<=>(const SiteKey&) const = default;
};

/// Open speculation window: right-thread compute accumulates here until
/// the guess resolves (commit credits it, abort drops it — the abort's
/// cost is already counted through kWorkDiscarded).
struct SpecWindow {
  SiteKey site;
  ProcessId process;
  std::uint32_t thread;
  std::int64_t compute_ns = 0;
  /// Fork time, for SAFE windows: SAFE forks never verify and never
  /// abort, so the whole fork->join elapsed span is overlap won (the
  /// fan-out case overlaps channel waits, not compute).  Speculative
  /// windows credit compute only — their elapsed span includes the
  /// verification wait, which is overhead, not profit.
  std::int64_t opened_when = -1;
};

}  // namespace

AttributionReport build_attribution(
    const RunRecorder& recorder,
    const std::vector<std::string>& process_names) {
  AttributionReport out;
  std::map<SiteKey, SiteScorecard> sites;
  auto card = [&](ProcessId p, std::string_view site) -> SiteScorecard& {
    SiteKey key{p, site.empty() ? "(anonymous)" : std::string(site)};
    auto [it, inserted] = sites.try_emplace(key);
    if (inserted) {
      it->second.process = p;
      it->second.name = process_label(process_names, p);
      it->second.site = key.site;
    }
    return it->second;
  };

  std::map<GuessKey, SiteKey> guess_site;  // guess -> originating fork site
  std::map<GuessKey, GuessKey> cause_of;   // cascade edge: aborted <- cause
  std::set<GuessKey> roots;                // guesses aborted at the root
  auto note_site = [&](const GuessRef& g, ProcessId p,
                       std::string_view site) {
    if (!g.valid()) return;
    guess_site.try_emplace(key_of(g),
                           SiteKey{p, site.empty() ? "(anonymous)"
                                                   : std::string(site)});
  };

  /// Resolve a guess to the root of its abort cascade (cycle-safe).
  auto root_of = [&](GuessKey g) {
    std::set<GuessKey> seen;
    while (seen.insert(g).second) {
      auto it = cause_of.find(g);
      if (it == cause_of.end()) break;
      g = it->second;
    }
    return g;
  };

  std::map<GuessKey, SpecWindow> spec_windows;
  // SAFE windows per (process, site), oldest first: the matching join
  // carries the site label but not the right thread's index.
  std::map<SiteKey, std::deque<SpecWindow>> safe_windows;

  // Pass 1: fork/guess bookkeeping and cascade edges.  Events are in
  // recording order, so a cause edge is always seen no later than any
  // event that needs it resolved — but cross-process cascade records
  // ("remote-abort") may precede the owner's own record, so attribution
  // runs in a second pass once every edge is known.
  for (const Event& e : recorder.events()) {
    const std::string_view detail = recorder.detail(e);
    switch (e.kind) {
      case EventKind::kFork: {
        SiteScorecard& c = card(e.process, detail);
        ++c.forks;
        if (e.a == 1) {
          ++c.speculative;
        } else if (e.a == 2) {
          ++c.safe_elided;
        } else {
          ++c.sequential;
        }
        note_site(e.guess, e.process, detail);
        break;
      }
      case EventKind::kGuessMade: {
        note_site(e.guess, e.process, detail);
        SpecWindow w;
        w.site = SiteKey{e.process, detail.empty() ? "(anonymous)"
                                                   : std::string(detail)};
        w.process = e.process;
        w.thread = e.thread;
        spec_windows[key_of(e.guess)] = std::move(w);
        break;
      }
      case EventKind::kSafeForkElided: {
        SiteScorecard& c = card(e.process, detail);
        c.elided_bytes += e.a;
        SpecWindow w;
        w.site = SiteKey{e.process, detail.empty() ? "(anonymous)"
                                                   : std::string(detail)};
        w.process = e.process;
        w.thread = e.thread;
        w.opened_when = static_cast<std::int64_t>(e.when);
        safe_windows[w.site].push_back(std::move(w));
        break;
      }
      case EventKind::kComputeDone: {
        for (auto& [g, w] : spec_windows) {
          if (w.process == e.process && w.thread == e.thread) {
            w.compute_ns += static_cast<std::int64_t>(e.a);
          }
        }
        for (auto& [sk, q] : safe_windows) {
          if (sk.process != e.process) continue;
          for (auto& w : q) {
            if (w.thread == e.thread) {
              w.compute_ns += static_cast<std::int64_t>(e.a);
            }
          }
        }
        break;
      }
      case EventKind::kGuessVerified:
        ++card(e.process, detail).hits;
        break;
      case EventKind::kGuessFailed:
        ++card(e.process, detail).misses;
        break;
      case EventKind::kCommuteCommit:
        ++card(e.process, detail).commute_commits;
        break;
      case EventKind::kCommit: {
        ++card(e.process, detail).commits;
        auto it = spec_windows.find(key_of(e.guess));
        if (it != spec_windows.end()) {
          auto sc = sites.find(it->second.site);
          if (sc != sites.end()) sc->second.saved_ns += it->second.compute_ns;
          spec_windows.erase(it);
        }
        break;
      }
      case EventKind::kJoin: {
        // A SAFE join carries the site but no guess; close the oldest open
        // SAFE window of that (process, site) and credit its overlap.
        if (!e.guess.valid() && detail != "sequential") {
          SiteKey key{e.process, std::string(detail)};
          auto q = safe_windows.find(key);
          if (q != safe_windows.end() && !q->second.empty()) {
            const SpecWindow& w = q->second.front();
            auto sc = sites.find(key);
            if (sc != sites.end()) {
              const std::int64_t elapsed =
                  w.opened_when >= 0
                      ? static_cast<std::int64_t>(e.when) - w.opened_when
                      : w.compute_ns;
              sc->second.saved_ns += std::max(elapsed, w.compute_ns);
            }
            q->second.pop_front();
          }
        }
        break;
      }
      case EventKind::kAbort: {
        if (e.reason == AbortReason::kCascade) {
          if (e.guess_from.valid()) {
            cause_of.try_emplace(key_of(e.guess), key_of(e.guess_from));
          }
        } else {
          roots.insert(key_of(e.guess));
        }
        // The guess's speculative overlap never materializes.
        spec_windows.erase(key_of(e.guess));
        break;
      }
      case EventKind::kGovernorDemote: {
        SiteScorecard& c = card(e.process, detail);
        ++c.governor_demotions;
        c.governor_demoted = true;
        break;
      }
      case EventKind::kGovernorPromote: {
        SiteScorecard& c = card(e.process, detail);
        ++c.governor_promotions;
        c.governor_demoted = false;
        break;
      }
      case EventKind::kRetransmit:
        ++out.retransmissions;
        break;
      case EventKind::kDuplicateSuppressed:
        ++out.duplicates_suppressed;
        break;
      case EventKind::kFaultInjected:
        ++out.faults_injected;
        break;
      case EventKind::kCrash:
        ++out.crashes;
        break;
      case EventKind::kRecovery:
        ++out.recoveries;
        break;
      default:
        break;
    }
  }
  // Windows still open at end of run: the overlap happened even if the
  // resolution never arrived (run cut off at the deadline); credit it.
  for (const auto& [g, w] : spec_windows) {
    auto sc = sites.find(w.site);
    if (sc != sites.end()) sc->second.saved_ns += w.compute_ns;
  }
  for (const auto& [sk, q] : safe_windows) {
    auto sc = sites.find(sk);
    if (sc == sites.end()) continue;
    for (const auto& w : q) sc->second.saved_ns += w.compute_ns;
  }

  // Pass 2: attribute every abort event and every discarded nanosecond.
  auto site_of_root = [&](GuessKey root) -> SiteScorecard* {
    auto it = guess_site.find(root);
    if (it == guess_site.end()) return nullptr;
    auto sc = sites.find(it->second);
    return sc == sites.end() ? nullptr : &sc->second;
  };
  for (const Event& e : recorder.events()) {
    if (e.kind == EventKind::kAbort) {
      ++out.abort_events;
      if (e.reason == AbortReason::kCascade) {
        ++out.cascade_abort_events;
        SiteScorecard* sc = site_of_root(root_of(key_of(e.guess)));
        if (sc != nullptr) {
          ++sc->aborts_caused;
        } else {
          ++out.unattributed_cascades;
        }
      } else {
        ++out.root_abort_events;
        SiteScorecard* sc = site_of_root(key_of(e.guess));
        if (sc != nullptr) {
          ++sc->aborts_root;
          if (e.reason == AbortReason::kTimeout) ++sc->aborts_timeout;
        } else {
          ++out.unattributed_roots;
        }
      }
    } else if (e.kind == EventKind::kWorkDiscarded) {
      const std::int64_t ns = static_cast<std::int64_t>(e.a);
      out.wasted_total_ns += ns;
      SiteScorecard* sc = nullptr;
      if (e.guess_from.valid()) {
        sc = site_of_root(root_of(key_of(e.guess_from)));
      }
      if (sc == nullptr && e.guess.valid()) {
        sc = site_of_root(root_of(key_of(e.guess)));
      }
      if (sc != nullptr) {
        sc->wasted_downstream_ns += ns;
      } else {
        out.unattributed_wasted_ns += ns;
      }
    }
  }

  out.sites.reserve(sites.size());
  for (auto& [key, sc] : sites) out.sites.push_back(std::move(sc));
  std::sort(out.sites.begin(), out.sites.end(),
            [](const SiteScorecard& a, const SiteScorecard& b) {
              if (a.net_ns() != b.net_ns()) return a.net_ns() > b.net_ns();
              if (a.process != b.process) return a.process < b.process;
              return a.site < b.site;
            });
  return out;
}

std::string attribution_table(const AttributionReport& report) {
  auto ms = [](std::int64_t ns) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
    return std::string(buf);
  };
  util::Table t({"process", "site", "forks", "spec", "safe", "seq", "hits",
                 "misses", "forgiven", "roots", "t/o", "caused", "gov",
                 "wasted_ms", "saved_ms", "net_ms"});
  for (const auto& s : report.sites) {
    // Governor column: "<demotions>d/<promotions>p", "!" while demoted.
    std::string gov = "-";
    if (s.governor_demotions > 0 || s.governor_promotions > 0) {
      gov = std::to_string(s.governor_demotions) + "d/" +
            std::to_string(s.governor_promotions) + "p";
      if (s.governor_demoted) gov += "!";
    }
    t.row(s.name, s.site, s.forks, s.speculative, s.safe_elided,
          s.sequential, s.hits, s.misses, s.commute_commits, s.aborts_root,
          s.aborts_timeout, s.aborts_caused, gov,
          ms(s.wasted_downstream_ns), ms(s.saved_ns), ms(s.net_ns()));
  }
  std::string out = "Speculation scorecards (best net profit first):\n" +
                    t.to_string();
  out += "Aborts: " + std::to_string(report.abort_events) + " events (" +
         std::to_string(report.root_abort_events) + " roots, " +
         std::to_string(report.cascade_abort_events) + " cascade";
  if (report.unattributed_cascades > 0 || report.unattributed_roots > 0) {
    out += ", " +
           std::to_string(report.unattributed_roots +
                          report.unattributed_cascades) +
           " unattributed";
  }
  out += "); wasted " + ms(report.wasted_total_ns) + " ms";
  if (report.unattributed_wasted_ns > 0) {
    out += " (" + ms(report.unattributed_wasted_ns) + " ms unattributed)";
  }
  out += "\n";
  if (report.retransmissions > 0 || report.duplicates_suppressed > 0 ||
      report.faults_injected > 0 || report.crashes > 0) {
    out += "Liveness: " + std::to_string(report.faults_injected) +
           " faults injected, " + std::to_string(report.retransmissions) +
           " retransmissions, " +
           std::to_string(report.duplicates_suppressed) +
           " duplicates suppressed, " + std::to_string(report.crashes) +
           " crashes (" + std::to_string(report.recoveries) +
           " recoveries)\n";
  }
  return out;
}

}  // namespace ocsp::obs
