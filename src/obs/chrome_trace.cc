#include "obs/chrome_trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string_view>

#include "sim/time.h"
#include "util/json.h"
#include "util/logging.h"

namespace ocsp::obs {

namespace {

double us(sim::Time t) { return sim::to_micros(t); }

const char* message_category(const Event& e) {
  if (e.control == ControlType::kPrecedence) return "precedence";
  if (e.control != ControlType::kNone) return "control";
  return "data";
}

void common_fields(util::JsonWriter& w, std::string_view name, const char* cat,
                   const char* ph, double ts, ProcessId pid,
                   std::uint32_t tid) {
  w.key("name").value(name);
  w.key("cat").value(cat);
  w.key("ph").value(ph);
  w.key("ts").value(ts);
  w.key("pid").value(static_cast<std::uint64_t>(pid));
  w.key("tid").value(static_cast<std::uint64_t>(tid));
}

void instant(util::JsonWriter& w, const char* name, const char* cat,
             const Event& e, const RunRecorder& recorder, std::uint32_t tid) {
  const std::string_view detail = recorder.detail(e);
  w.begin_object();
  common_fields(w, name, cat, "i", us(e.when), e.process, tid);
  w.key("s").value("t");  // thread-scoped instant
  w.key("args").begin_object();
  if (!detail.empty()) w.key("detail").value(detail);
  if (e.guess.valid()) w.key("guess").value(e.guess.to_string());
  if (e.reason != AbortReason::kNone) {
    w.key("reason").value(to_string(e.reason));
  }
  w.end_object();
  w.end_object();
}

}  // namespace

std::string chrome_trace_json(const RunRecorder& recorder,
                              const std::vector<std::string>& process_names) {
  const auto& events = recorder.events();
  sim::Time last_time = 0;
  for (const auto& e : events) last_time = std::max(last_time, e.when);

  // Guess lifetime reconstruction: start at kGuessMade, end at the first
  // commit/abort naming the same (owner, incarnation, index).
  std::map<GuessRef, const Event*> starts;
  std::map<GuessRef, const Event*> ends;
  std::map<MsgId, const Event*> sends;
  for (const auto& e : events) {
    switch (e.kind) {
      case EventKind::kGuessMade:
        starts.emplace(e.guess, &e);
        break;
      case EventKind::kCommit:
      case EventKind::kAbort:
        if (e.guess.valid()) ends.emplace(e.guess, &e);
        break;
      case EventKind::kMsgSent:
        sends.emplace(e.msg_id, &e);
        break;
      default:
        break;
    }
  }

  util::JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("otherData").begin_object();
  w.key("generator").value("ocsp-obs");
  w.end_object();
  w.key("traceEvents").begin_array();

  // One track per process: process_name metadata keyed by pid.
  for (std::size_t i = 0; i < process_names.size(); ++i) {
    w.begin_object();
    w.key("name").value("process_name");
    w.key("ph").value("M");
    w.key("pid").value(static_cast<std::uint64_t>(i));
    w.key("tid").value(std::uint64_t{0});
    w.key("args").begin_object().key("name").value(process_names[i]);
    w.end_object();
    w.end_object();
  }

  // Interval slices: one per guess, colored by outcome.
  for (const auto& [guess, start] : starts) {
    auto end_it = ends.find(guess);
    const Event* end = end_it == ends.end() ? nullptr : end_it->second;
    const sim::Time end_time = end ? end->when : last_time;
    const char* outcome = "unresolved";
    const char* cname = "generic_work";
    const char* reason = nullptr;
    if (end && end->kind == EventKind::kCommit) {
      outcome = "commit";
      cname = "good";
    } else if (end) {
      outcome = "abort";
      cname = "terrible";
      reason = to_string(end->reason);
    }
    w.begin_object();
    const std::string_view site = recorder.detail(*start);
    std::string name = guess.to_string();
    if (!site.empty()) name.append(" ").append(site);
    common_fields(w, name, "interval", "X", us(start->when),
                  guess.owner, guess.index);
    const double dur = us(end_time) - us(start->when);
    w.key("dur").value(dur > 0.001 ? dur : 0.001);
    w.key("cname").value(cname);
    w.key("args").begin_object();
    w.key("outcome").value(outcome);
    if (reason) w.key("reason").value(reason);
    if (!site.empty()) w.key("site").value(site);
    w.key("incarnation").value(
        static_cast<std::uint64_t>(guess.incarnation));
    w.end_object();
    w.end_object();
  }

  for (const auto& e : events) {
    switch (e.kind) {
      case EventKind::kRollback:
        instant(w, "rollback", "rollback", e, recorder, e.thread);
        break;
      case EventKind::kCdgCycleDetected:
        instant(w, "cdg-cycle", "timefault", e, recorder, 0);
        break;
      case EventKind::kExternalReleased:
        instant(w, "external-release", "external", e, recorder, e.thread);
        break;
      case EventKind::kExternalDiscarded:
        instant(w, "external-discard", "external", e, recorder, e.thread);
        break;
      case EventKind::kMsgDelivered: {
        auto send_it = sends.find(e.msg_id);
        if (send_it == sends.end()) break;  // delivery without a recorded send
        const Event& s = *send_it->second;
        const char* cat = message_category(s);
        const std::string_view detail = recorder.detail(s);
        const std::string_view name = detail.empty() ? cat : detail;
        // A 1 us slice at each endpoint anchors the flow arrow.
        w.begin_object();
        common_fields(w, name, cat, "X", us(s.when), s.process, 0);
        w.key("dur").value(1.0);
        w.end_object();
        w.begin_object();
        common_fields(w, name, cat, "X", us(e.when), e.process, 0);
        w.key("dur").value(1.0);
        w.end_object();
        w.begin_object();
        common_fields(w, name, cat, "s", us(s.when), s.process, 0);
        w.key("id").value(static_cast<std::uint64_t>(e.msg_id));
        w.end_object();
        w.begin_object();
        common_fields(w, name, cat, "f", us(e.when), e.process, 0);
        w.key("bp").value("e");
        w.key("id").value(static_cast<std::uint64_t>(e.msg_id));
        w.end_object();
        break;
      }
      default:
        break;
    }
  }

  w.end_array();
  w.end_object();
  return w.str();
}

bool write_chrome_trace(const std::string& path, const RunRecorder& recorder,
                        const std::vector<std::string>& process_names) {
  const std::string json = chrome_trace_json(recorder, process_names);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    OCSP_ELOG << "cannot write trace file: " << path;
    return false;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace ocsp::obs
