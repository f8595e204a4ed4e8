// Crash / recovery and the adaptive speculation governor.
//
// Crash model: fail-stop with stable storage.  A crashed process neither
// steps nor accepts messages; the reliable transport parks framed data for
// it and unframed traffic is lost at the NIC (process_arrival.cc).  On
// restart the process resumes from its last committed state by aborting
// every uncommitted own guess through the normal cascade machinery — the
// incarnation bump plus frame-carried incarnation tags make every message
// the dead incarnations sent filterable at the receivers.
//
// The governor is the robustness counterpart of the retry limit L: L stops
// a site that keeps failing *consecutively*, while the governor's abort-rate
// EWMA demotes a site whose speculation merely loses on average (an abort
// storm), and its hysteresis band re-enables speculation once governed
// sequential passes show the site has calmed down.
#include "speculation/process.h"
#include "util/check.h"
#include "util/logging.h"

namespace ocsp::spec {

void SpeculativeProcess::crash() {
  if (crashed_) return;  // overlapping crash windows: first one wins
  crashed_ = true;
  record(make_event(obs::EventKind::kCrash));
  OCSP_DLOG << name_ << ": crashed at t=" << host_.scheduler().now();
}

void SpeculativeProcess::restart() {
  if (!crashed_) return;
  crashed_ = false;

  // Resume from the last committed state: every own guess that is still
  // unresolved dies with the old incarnation.  Abort the earliest such
  // guess; abort_own_guess kills all threads at or past its index and
  // cascades the rest, so the scan repeats until a fixpoint.
  std::uint64_t root_aborts = 0;
  for (;;) {
    const ThreadCtx* victim = nullptr;
    for (const auto& [idx, t] : threads_) {
      ++bookkeeping_visits_;
      if (t.phase == ThreadCtx::Phase::kTerminated) continue;
      if (!t.has_own_guess) continue;
      if (history_.status(t.own_guess) != GuessStatus::kUnknown) continue;
      victim = &t;
      break;  // ascending map order: earliest uncommitted guess
    }
    if (victim == nullptr) break;
    const GuessId g = victim->own_guess;
    record_abort(g, obs::AbortReason::kCrash, "crash-recovery");
    abort_own_guess(g);
    ++root_aborts;
  }

  {
    obs::Event ev = make_event(obs::EventKind::kRecovery);
    ev.a = root_aborts;
    record(ev);
  }
  OCSP_DLOG << name_ << ": restarted at t=" << host_.scheduler().now()
            << " (aborted " << root_aborts << " own guesses)";

  // Threads whose compute timers fired during the downtime are kRunning but
  // their steps were swallowed by the crashed_ gate; re-arm them.
  for (auto& [idx, t] : threads_) {
    ++bookkeeping_visits_;
    if (t.phase == ThreadCtx::Phase::kRunning) schedule_step(idx);
  }
  // The transport flushes parked frames right after this returns
  // (ProcessTable::restart_process); locally-queued messages can go now.
  process_arrivals();
  after_guard_change();
  check_completion();
}

void SpeculativeProcess::observe_peer_incarnation(ProcessId src,
                                                  std::uint32_t inc,
                                                  std::uint32_t start) {
  if (crashed_ || src == id_) return;
  const PeerHistory* peer = history_.find_peer(src);
  if (inc <= (peer ? peer->latest_incarnation() : 0)) return;  // nothing new
  history_.observe_incarnation(src, inc, start);
  OCSP_DLOG << name_ << ": observed " << src << " incarnation " << inc
            << " from index " << start;
  // The implicit-abort rule just flipped guesses to kAborted without an
  // explicit ABORT; on_abort_msg would early-return on them, so run the
  // rollback fixpoint here or dependent threads never roll back.
  rollback_aborted_dependencies();
  after_guard_change();
  process_arrivals();
}

namespace {

// Governor tuning: the weight of each new outcome in a site's abort-rate
// EWMA, the rate that demotes a site once it has kGovernorMinSamples
// outcomes, and the rate at or below which a demoted site is promoted.
constexpr double kGovernorAlpha = 0.25;
constexpr double kGovernorDemoteThreshold = 0.65;
constexpr double kGovernorPromoteThreshold = 0.25;
constexpr std::uint64_t kGovernorMinSamples = 4;

}  // namespace

bool SpeculativeProcess::governor_blocks(const std::string& site) {
  if (!config_.governor_enabled) return false;
  auto it = governor_.find(site);
  return it != governor_.end() && it->second.demoted;
}

void SpeculativeProcess::governor_outcome(const std::string& site,
                                          bool aborted) {
  if (!config_.governor_enabled) return;
  GovernorSite& s = governor_[site];
  const double sample = aborted ? 1.0 : 0.0;
  s.ewma = (1.0 - kGovernorAlpha) * s.ewma + kGovernorAlpha * sample;
  ++s.samples;
  if (!s.demoted && s.samples >= kGovernorMinSamples &&
      s.ewma >= kGovernorDemoteThreshold) {
    s.demoted = true;
    obs::Event ev = make_event(obs::EventKind::kGovernorDemote);
    record(ev, site);
    OCSP_DLOG << name_ << ": governor demoted site " << site
              << " (ewma=" << s.ewma << ")";
  } else if (s.demoted && s.ewma <= kGovernorPromoteThreshold) {
    s.demoted = false;
    obs::Event ev = make_event(obs::EventKind::kGovernorPromote);
    record(ev, site);
    OCSP_DLOG << name_ << ": governor promoted site " << site
              << " (ewma=" << s.ewma << ")";
  }
}

}  // namespace ocsp::spec
