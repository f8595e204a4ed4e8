#include "speculation/messages.h"

#include <sstream>

namespace ocsp::spec {

std::string DataMessage::kind() const {
  switch (data_kind) {
    case DataKind::kCall:
      return "CALL";
    case DataKind::kSend:
      return "SEND";
    case DataKind::kReturn:
      return "RETURN";
  }
  return "?";
}

std::size_t DataMessage::wire_size() const {
  // Rough model: header + op + 16 bytes per argument + 8 per guard entry.
  std::size_t n = 48 + op.size() + 16 * args.size() + 8 * guard.size();
  return n;
}

std::string DataMessage::describe() const {
  std::ostringstream os;
  os << kind();
  if (data_kind == DataKind::kReturn) {
    os << "#" << reqid << " " << result.to_string();
  } else {
    os << " " << op << "(";
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (i) os << ", ";
      os << args[i].to_string();
    }
    os << ")";
    if (data_kind == DataKind::kCall) os << "#" << reqid;
  }
  os << " " << guard.to_string();
  return os.str();
}

std::string ControlMessage::kind() const {
  switch (control) {
    case ControlKind::kCommit:
      return "COMMIT";
    case ControlKind::kAbort:
      return "ABORT";
    case ControlKind::kPrecedence:
      return "PRECEDENCE";
  }
  return "?";
}

std::size_t ControlMessage::wire_size() const {
  return 32 + 8 * guard.size();
}

std::string ControlMessage::describe() const {
  std::ostringstream os;
  os << kind() << "(" << subject.to_string();
  if (control == ControlKind::kPrecedence) os << ", " << guard.to_string();
  os << ")";
  return os.str();
}

obs::Event make_msg_event(obs::EventKind kind, const net::Envelope& env,
                          sim::Time now, std::string& detail) {
  const bool sent = kind == obs::EventKind::kMsgSent;
  obs::Event ev;
  ev.kind = kind;
  ev.when = now;
  ev.process = sent ? env.src : env.dst;
  ev.peer = sent ? env.dst : env.src;
  ev.msg_id = env.id;
  ev.a = env.payload->wire_size();
  // A send observed with delivered_at == 0 was dropped by the link.
  ev.b = sent && env.delivered_at == 0 ? 1 : 0;
  const auto* ctl = dynamic_cast<const ControlMessage*>(env.payload.get());
  if (ctl) {
    switch (ctl->control) {
      case ControlKind::kCommit:
        ev.control = obs::ControlType::kCommit;
        break;
      case ControlKind::kAbort:
        ev.control = obs::ControlType::kAbort;
        break;
      case ControlKind::kPrecedence:
        ev.control = obs::ControlType::kPrecedence;
        break;
    }
    ev.guess = obs::GuessRef{ctl->subject.owner, ctl->subject.incarnation,
                             ctl->subject.index};
  }
  // A data send carries its full description (operation, arguments, guard
  // tag), which the figure timelines print; everything else its kind.
  detail = sent && !ctl ? env.payload->describe() : env.payload->kind();
  return ev;
}

}  // namespace ocsp::spec
