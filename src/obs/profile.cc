#include "obs/profile.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "trace/vector_clock.h"
#include "util/table.h"

namespace ocsp::obs {

const char* to_string(TimeCategory c) {
  switch (c) {
    case TimeCategory::kUseful:
      return "useful";
    case TimeCategory::kWasted:
      return "wasted";
    case TimeCategory::kRollback:
      return "rollback";
    case TimeCategory::kVerify:
      return "verify";
    case TimeCategory::kStall:
      return "stall";
  }
  return "?";
}

std::int64_t TimeBreakdown::total() const {
  std::int64_t sum = 0;
  for (std::int64_t v : ns) sum += v;
  return sum;
}

void TimeBreakdown::add(const TimeBreakdown& other) {
  for (std::size_t i = 0; i < kTimeCategoryCount; ++i) ns[i] += other.ns[i];
}

namespace {

/// Half-open span [lo, hi).
struct Span {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

/// A recorded compute burst; `wasted` marks the suffix [hi - wasted, hi) as
/// later discarded.  The suffix direction matters: a rollback restores a
/// checkpoint that retains the *earliest* compute, so the discarded part is
/// always the latest.
struct ComputeSeg {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::int64_t wasted = 0;
};

struct CatSpan {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  TimeCategory cat = TimeCategory::kStall;
};

struct GuessKey {
  ProcessId owner;
  std::uint32_t incarnation;
  std::uint32_t index;
  auto operator<=>(const GuessKey&) const = default;
};

GuessKey key_of(const GuessRef& g) {
  return GuessKey{g.owner, g.incarnation, g.index};
}

struct ProcScratch {
  std::int64_t first = -1;
  std::int64_t last = -1;
  std::map<std::uint32_t, std::vector<ComputeSeg>> compute;  // per thread
  std::map<std::uint32_t, std::int64_t> thread_last;  // clamp for bursts
  std::vector<Span> verify;
  std::map<std::uint32_t, std::int64_t> open_blocked;  // thread -> opened at
  std::map<GuessKey, std::int64_t> open_join;          // in-doubt joins
  /// Exact partition of [first, last]; consecutive spans are contiguous.
  std::vector<CatSpan> partition;
  TimeBreakdown breakdown;
};

/// Build the elementary partition of [first, last] from the overlay spans,
/// with priority useful > wasted > verify > stall.  Every instant lands in
/// exactly one category, so the breakdown sums to the span by construction.
void finalize_partition(ProcScratch& p) {
  if (p.first < 0 || p.last <= p.first) {
    p.first = std::max<std::int64_t>(p.first, 0);
    p.last = p.first;
    return;
  }
  // Close windows left open at the end of the run.
  for (const auto& [thread, opened] : p.open_blocked) {
    p.verify.push_back({opened, p.last});
  }
  p.open_blocked.clear();
  for (const auto& [g, opened] : p.open_join) {
    p.verify.push_back({opened, p.last});
  }
  p.open_join.clear();

  // Tagged sweep events: class 0 = useful, 1 = wasted, 2 = verify.
  struct Edge {
    std::int64_t at;
    int cls;
    int delta;
  };
  std::vector<Edge> edges;
  auto clamp = [&](std::int64_t v) {
    return std::min(std::max(v, p.first), p.last);
  };
  auto push = [&](std::int64_t lo, std::int64_t hi, int cls) {
    lo = clamp(lo);
    hi = clamp(hi);
    if (lo >= hi) return;
    edges.push_back({lo, cls, +1});
    edges.push_back({hi, cls, -1});
  };
  for (const auto& [thread, segs] : p.compute) {
    for (const auto& s : segs) {
      const std::int64_t split = s.hi - s.wasted;
      push(s.lo, split, 0);
      push(split, s.hi, 1);
    }
  }
  for (const auto& s : p.verify) push(s.lo, s.hi, 2);

  std::vector<std::int64_t> points{p.first, p.last};
  points.reserve(edges.size() + 2);
  for (const auto& e : edges) points.push_back(e.at);
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.at < b.at; });

  int active[3] = {0, 0, 0};
  std::size_t ei = 0;
  for (std::size_t i = 0; i + 1 < points.size(); ++i) {
    const std::int64_t lo = points[i];
    const std::int64_t hi = points[i + 1];
    while (ei < edges.size() && edges[ei].at <= lo) {
      active[edges[ei].cls] += edges[ei].delta;
      ++ei;
    }
    TimeCategory cat = TimeCategory::kStall;
    if (active[0] > 0) {
      cat = TimeCategory::kUseful;
    } else if (active[1] > 0) {
      cat = TimeCategory::kWasted;
    } else if (active[2] > 0) {
      cat = TimeCategory::kVerify;
    }
    p.breakdown[cat] += hi - lo;
    if (!p.partition.empty() && p.partition.back().cat == cat &&
        p.partition.back().hi == lo) {
      p.partition.back().hi = hi;
    } else {
      p.partition.push_back({lo, hi, cat});
    }
  }
}

/// Overlap of [lo, hi) with the partition, restricted to the dependency
/// categories (useful, wasted, verify) — the portion of the elapsed window
/// the process genuinely spent working rather than waiting on a channel.
TimeBreakdown dependency_overlap(const ProcScratch& p, std::int64_t lo,
                                 std::int64_t hi) {
  TimeBreakdown out;
  if (lo >= hi) return out;
  auto it = std::lower_bound(
      p.partition.begin(), p.partition.end(), lo,
      [](const CatSpan& s, std::int64_t v) { return s.hi <= v; });
  for (; it != p.partition.end() && it->lo < hi; ++it) {
    if (it->cat == TimeCategory::kStall) continue;
    const std::int64_t a = std::max(lo, it->lo);
    const std::int64_t b = std::min(hi, it->hi);
    if (a < b) out[it->cat] += b - a;
  }
  return out;
}

/// Per-process longest-dependency-chain state for the critical-path DP.
struct Chain {
  std::int64_t value = 0;
  TimeBreakdown bd;
  std::int64_t last_when = 0;
  std::vector<CriticalPathStep> steps;
  /// Vector clock at the end of each step, for causal validation.
  std::vector<trace::VectorClock> clocks;
  bool started = false;
};

struct SendSnapshot {
  std::int64_t when = 0;
  Chain chain;
};

}  // namespace

std::string process_label(const std::vector<std::string>& process_names,
                          ProcessId id) {
  if (static_cast<std::size_t>(id) < process_names.size()) {
    return process_names[id];
  }
  std::string label = "P";
  label += std::to_string(id);
  return label;
}

RunProfile build_profile(const RunRecorder& recorder,
                         const std::vector<std::string>& process_names) {
  RunProfile out;

  // ---- pass 1: per-process overlay spans -------------------------------
  std::map<ProcessId, ProcScratch> procs;
  for (const Event& e : recorder.events()) {
    if (e.process == kNoProcess) continue;
    ProcScratch& p = procs[e.process];
    const std::int64_t when = static_cast<std::int64_t>(e.when);
    if (p.first < 0) p.first = when;
    p.last = std::max(p.last, when);

    switch (e.kind) {
      case EventKind::kComputeDone: {
        // The burst occupied [when - duration, when] on the virtual clock.
        // Clamp to the thread's previous event so bursts never overlap on
        // one thread and never precede the process's first event.
        const std::int64_t d = static_cast<std::int64_t>(e.a);
        std::int64_t lo = when - d;
        auto tl = p.thread_last.find(e.thread);
        if (tl != p.thread_last.end()) lo = std::max(lo, tl->second);
        lo = std::max(lo, p.first);
        if (lo < when) p.compute[e.thread].push_back({lo, when, 0});
        break;
      }
      case EventKind::kWorkDiscarded: {
        // Mark the thread's most recent still-useful compute as wasted,
        // latest first: a restore retains the earliest compute, so the
        // discarded nanoseconds are always a suffix of what was recorded.
        std::int64_t rem = static_cast<std::int64_t>(e.a);
        auto ct = p.compute.find(e.thread);
        if (ct != p.compute.end()) {
          for (auto it = ct->second.rbegin();
               rem > 0 && it != ct->second.rend(); ++it) {
            const std::int64_t avail = (it->hi - it->lo) - it->wasted;
            const std::int64_t take = std::min(avail, rem);
            it->wasted += take;
            rem -= take;
          }
        }
        out.unmatched_wasted_ns += rem;
        break;
      }
      case EventKind::kThreadBlocked:
        p.open_blocked[e.thread] = when;
        break;
      case EventKind::kThreadResolved: {
        auto it = p.open_blocked.find(e.thread);
        if (it != p.open_blocked.end()) {
          p.verify.push_back({it->second, when});
          p.open_blocked.erase(it);
        }
        break;
      }
      case EventKind::kJoin:
        if (e.guess.valid()) p.open_join[key_of(e.guess)] = when;
        break;
      case EventKind::kCommit:
      case EventKind::kAbort:
        if (e.guess.valid()) {
          auto it = p.open_join.find(key_of(e.guess));
          if (it != p.open_join.end()) {
            p.verify.push_back({it->second, when});
            p.open_join.erase(it);
          }
        }
        break;
      default:
        break;
    }
    std::int64_t& tl = p.thread_last[e.thread];
    tl = std::max(tl, when);
  }

  std::int64_t run_first = -1;
  std::int64_t run_last = 0;
  for (auto& [id, p] : procs) {
    finalize_partition(p);
    if (p.first < 0) continue;
    run_first = run_first < 0 ? p.first : std::min(run_first, p.first);
    run_last = std::max(run_last, p.last);

    ProcessTimeProfile pp;
    pp.process = id;
    pp.name = process_label(process_names, id);
    pp.span_ns = p.last - p.first;
    pp.breakdown = p.breakdown;
    out.total_process_ns += pp.span_ns;
    out.global.add(pp.breakdown);
    out.per_process.push_back(std::move(pp));
  }
  out.run_span_ns = run_first < 0 ? 0 : run_last - run_first;

  // ---- pass 2: critical path -------------------------------------------
  //
  // Longest dependency chain, process granularity: program order within a
  // process contributes its useful/wasted/verify time (channel stall is
  // not a dependency — it is covered by the message edge that ends it),
  // and each message contributes its latency (data: stall, control:
  // verify).  Committed speculative joins and fork spawns are
  // intra-process and add no cross-edge, which is exactly the paper's
  // claimed overlap.
  std::map<ProcessId, Chain> chains;
  std::map<MsgId, SendSnapshot> sends;
  std::map<ProcessId, trace::VectorClock> clocks;

  auto advance = [&](ProcessId pid, std::int64_t when) -> Chain& {
    Chain& c = chains[pid];
    const ProcScratch& p = procs.at(pid);
    if (!c.started) {
      c.started = true;
      c.last_when = when;
      c.steps.push_back({pid, 0, when, when, false, 0});
      c.clocks.push_back(clocks[pid]);
      return c;
    }
    if (when > c.last_when) {
      const TimeBreakdown dep = dependency_overlap(p, c.last_when, when);
      c.bd.add(dep);
      c.value += dep.total();
      c.last_when = when;
      if (!c.steps.empty() && c.steps.back().process == pid &&
          !c.steps.back().via_message) {
        c.steps.back().to_ns = when;
        c.clocks.back() = clocks[pid];
      } else {
        c.steps.push_back({pid, 0, c.steps.back().to_ns, when, false, 0});
        c.clocks.push_back(clocks[pid]);
      }
    }
    return c;
  };

  for (const Event& e : recorder.events()) {
    if (e.process == kNoProcess) continue;
    const std::int64_t when = static_cast<std::int64_t>(e.when);
    clocks[e.process].tick(e.process);
    Chain& local = advance(e.process, when);
    if (e.kind == EventKind::kMsgSent) {
      sends[e.msg_id] = SendSnapshot{when, local};
    } else if (e.kind == EventKind::kMsgDelivered) {
      auto it = sends.find(e.msg_id);
      if (it != sends.end()) {
        clocks[e.process].merge(it->second.chain.clocks.empty()
                                    ? trace::VectorClock{}
                                    : it->second.chain.clocks.back());
        const std::int64_t latency = when - it->second.when;
        Chain candidate = it->second.chain;
        const TimeCategory hop_cat = e.control != ControlType::kNone
                                         ? TimeCategory::kVerify
                                         : TimeCategory::kStall;
        candidate.bd[hop_cat] += std::max<std::int64_t>(latency, 0);
        candidate.value += std::max<std::int64_t>(latency, 0);
        candidate.last_when = when;
        candidate.steps.push_back(
            {e.process, 0, it->second.when, when, true, e.msg_id});
        candidate.clocks.push_back(clocks[e.process]);
        if (candidate.value > local.value) {
          chains[e.process] = std::move(candidate);
        } else {
          local.clocks.back() = clocks[e.process];
        }
      }
    }
  }

  const Chain* best = nullptr;
  for (const auto& [pid, c] : chains) {
    if (best == nullptr || c.value > best->value) best = &c;
  }
  if (best != nullptr) {
    out.critical_path.length_ns = best->value;
    out.critical_path.breakdown = best->bd;
    out.critical_path.steps = best->steps;
    // Causal validation: within a process `when` must be monotone; across
    // a message hop the sender's clock at the send must happen-before (or
    // equal, for a self-send) the receiver's clock at delivery.
    bool valid = true;
    for (std::size_t i = 0; i + 1 < best->steps.size(); ++i) {
      const auto& a = best->steps[i];
      const auto& b = best->steps[i + 1];
      if (a.to_ns > b.to_ns) valid = false;
      if (b.via_message) {
        const auto& ca = best->clocks[i];
        const auto& cb = best->clocks[i + 1];
        if (!trace::VectorClock::happens_before(ca, cb) && !(ca == cb)) {
          valid = false;
        }
      }
    }
    out.critical_path.causally_valid = valid;
  }
  return out;
}

std::string profile_table(const RunProfile& profile) {
  auto ms = [](std::int64_t ns) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
    return std::string(buf);
  };
  util::Table t({"process", "span_ms", "useful_ms", "wasted_ms",
                 "rollback_ms", "verify_ms", "stall_ms"});
  for (const auto& p : profile.per_process) {
    t.row(p.name, ms(p.span_ns), ms(p.breakdown[TimeCategory::kUseful]),
          ms(p.breakdown[TimeCategory::kWasted]),
          ms(p.breakdown[TimeCategory::kRollback]),
          ms(p.breakdown[TimeCategory::kVerify]),
          ms(p.breakdown[TimeCategory::kStall]));
  }
  t.row("TOTAL", ms(profile.total_process_ns),
        ms(profile.global[TimeCategory::kUseful]),
        ms(profile.global[TimeCategory::kWasted]),
        ms(profile.global[TimeCategory::kRollback]),
        ms(profile.global[TimeCategory::kVerify]),
        ms(profile.global[TimeCategory::kStall]));
  std::string s = "Time accounting (virtual clock, span " +
                  ms(profile.run_span_ns) + " ms):\n" + t.to_string();
  const auto& cp = profile.critical_path;
  s += "Critical path: " + ms(cp.length_ns) + " ms over " +
       std::to_string(cp.steps.size()) + " steps (useful " +
       ms(cp.breakdown[TimeCategory::kUseful]) + ", verify " +
       ms(cp.breakdown[TimeCategory::kVerify]) + ", stall " +
       ms(cp.breakdown[TimeCategory::kStall]) + " ms; causally " +
       (cp.causally_valid ? "valid" : "INVALID") + ")\n";
  if (cp.length_ns > 0) {
    char buf[64];
    std::snprintf(buf, sizeof(buf),
                  "Speedup upper bound (useful/path): %.2fx\n",
                  static_cast<double>(
                      profile.global[TimeCategory::kUseful]) /
                      static_cast<double>(cp.length_ns));
    s += buf;
  }
  if (profile.unmatched_wasted_ns > 0) {
    s += "note: " + ms(profile.unmatched_wasted_ns) +
         " ms discarded work had no recorded compute to attribute\n";
  }
  return s;
}

}  // namespace ocsp::obs
