// Recorder streams as comparable text, for the executor oracles that
// require one run's events to equal another's.
#pragma once

#include <sstream>
#include <string>

#include "obs/recorder.h"
#include "util/ids.h"

namespace ocsp::test {

/// Every Event field, one line per event, with the detail id read back as
/// its string (ids are per recorder).  With `process` set, only the events
/// that process recorded.
inline std::string serialize_events(const obs::RunRecorder& rec,
                                    ProcessId process = kNoProcess) {
  std::ostringstream os;
  for (const auto& e : rec.events()) {
    if (process != kNoProcess && e.process != process) continue;
    os << static_cast<int>(e.kind) << '|' << e.when << '|' << e.process
       << '|' << e.peer << '|' << e.thread << '|' << e.guess.to_string()
       << '|' << e.guess_from.to_string() << '|'
       << static_cast<int>(e.reason) << '|' << static_cast<int>(e.control)
       << '|' << e.msg_id << '|' << e.a << '|' << rec.detail(e) << '\n';
  }
  return os.str();
}

}  // namespace ocsp::test
