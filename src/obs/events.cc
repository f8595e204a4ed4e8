#include "obs/events.h"

#include <iomanip>
#include <sstream>

namespace ocsp::obs {

std::string GuessRef::to_string() const {
  if (!valid()) return "g(-)";
  std::ostringstream os;
  os << "g(P" << owner << "." << incarnation << "." << index << ")";
  return os.str();
}

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kIntervalBegin:
      return "interval-begin";
    case EventKind::kFork:
      return "fork";
    case EventKind::kJoin:
      return "join";
    case EventKind::kCommit:
      return "commit";
    case EventKind::kAbort:
      return "abort";
    case EventKind::kRollback:
      return "rollback";
    case EventKind::kGuessMade:
      return "guess-made";
    case EventKind::kGuessVerified:
      return "guess-verified";
    case EventKind::kGuessFailed:
      return "guess-failed";
    case EventKind::kControlSent:
      return "control-sent";
    case EventKind::kControlReceived:
      return "control-received";
    case EventKind::kCdgEdgeAdded:
      return "cdg-edge";
    case EventKind::kCdgCycleDetected:
      return "cdg-cycle";
    case EventKind::kExternalBuffered:
      return "external-buffered";
    case EventKind::kExternalReleased:
      return "external-released";
    case EventKind::kExternalDiscarded:
      return "external-discarded";
    case EventKind::kMsgSent:
      return "msg-sent";
    case EventKind::kMsgDelivered:
      return "msg-delivered";
    case EventKind::kCheckpointTaken:
      return "checkpoint";
    case EventKind::kComputeDone:
      return "compute-done";
    case EventKind::kWorkDiscarded:
      return "work-discarded";
    case EventKind::kSafeForkElided:
      return "safe-fork-elided";
    case EventKind::kThreadBlocked:
      return "thread-blocked";
    case EventKind::kThreadResolved:
      return "thread-resolved";
    case EventKind::kProcessCompleted:
      return "process-completed";
    case EventKind::kCommuteCommit:
      return "commute-commit";
    case EventKind::kFaultInjected:
      return "fault-injected";
    case EventKind::kRetransmit:
      return "retransmit";
    case EventKind::kDuplicateSuppressed:
      return "duplicate-suppressed";
    case EventKind::kCrash:
      return "crash";
    case EventKind::kRecovery:
      return "recovery";
    case EventKind::kGovernorDemote:
      return "governor-demote";
    case EventKind::kGovernorPromote:
      return "governor-promote";
  }
  return "?";
}

const char* to_string(AbortReason r) {
  switch (r) {
    case AbortReason::kNone:
      return "none";
    case AbortReason::kValueFault:
      return "value-fault";
    case AbortReason::kTimeFault:
      return "time-fault";
    case AbortReason::kTimeout:
      return "timeout";
    case AbortReason::kCascade:
      return "cascade";
    case AbortReason::kCrash:
      return "crash";
  }
  return "?";
}

const char* to_string(ControlType c) {
  switch (c) {
    case ControlType::kNone:
      return "none";
    case ControlType::kCommit:
      return "COMMIT";
    case ControlType::kAbort:
      return "ABORT";
    case ControlType::kPrecedence:
      return "PRECEDENCE";
  }
  return "?";
}

std::string to_string(const Event& e, std::string_view detail) {
  std::ostringstream os;
  // 15 significant digits keep the time exact to the nanosecond.
  os << "t=" << std::setprecision(15) << sim::to_micros(e.when) << "us  P"
     << e.process;
  if (e.peer != kNoProcess) {
    // Receive-side events name the sender as their peer.
    const bool received = e.kind == EventKind::kMsgDelivered ||
                          e.kind == EventKind::kControlReceived ||
                          e.kind == EventKind::kDuplicateSuppressed;
    os << (received ? "<-P" : "->P") << e.peer;
  }
  os << "  " << to_string(e.kind);
  if (e.guess.valid()) os << "  " << e.guess.to_string();
  if (e.guess_from.valid()) os << " from " << e.guess_from.to_string();
  if (e.reason != AbortReason::kNone) os << "  reason=" << to_string(e.reason);
  if (e.control != ControlType::kNone) os << "  " << to_string(e.control);
  if (!detail.empty()) os << "  " << detail;
  return os.str();
}

}  // namespace ocsp::obs
