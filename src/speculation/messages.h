// Wire messages of the speculation protocol.
//
// Data messages (calls, one-way sends, returns) carry the sender's commit
// guard set as a tag (section 3.1: "Each message carries with it a tag
// containing the commit guard set of the computation which sent it").
// Control messages implement section 4.2.5: COMMIT, ABORT, PRECEDENCE.
#pragma once

#include <cstdint>
#include <string>

#include "csp/value.h"
#include "net/envelope.h"
#include "net/message.h"
#include "obs/events.h"
#include "sim/time.h"
#include "speculation/guard_set.h"

namespace ocsp::spec {

enum class DataKind { kCall, kSend, kReturn };

class DataMessage final : public net::Message {
 public:
  DataKind data_kind = DataKind::kSend;
  std::string op;        ///< operation (Call/Send)
  csp::ValueList args;   ///< arguments (Call/Send)
  csp::Value result;     ///< reply value (Return)
  std::int64_t reqid = -1;  ///< matches a Return to its Call
  GuardSet guard;           ///< commit guard tag

  std::string kind() const override;
  std::size_t wire_size() const override;
  std::string describe() const override;
};

enum class ControlKind { kCommit, kAbort, kPrecedence };

class ControlMessage final : public net::Message {
 public:
  ControlKind control = ControlKind::kCommit;
  GuessId subject;  ///< the guess being committed/aborted/constrained
  GuardSet guard;   ///< PRECEDENCE only: the guesses preceding `subject`

  std::string kind() const override;
  std::size_t wire_size() const override;
  std::string describe() const override;
  bool control_plane() const override { return true; }
};

/// Structured kMsgSent / kMsgDelivered event for one envelope, exactly as
/// every executor must record it (the shards=1 bit-for-bit oracle compares
/// these field by field): process/peer by direction, a = wire size, b = 1
/// on a dropped send, control type and guess ref from control payloads,
/// and `detail` = the payload's describe() on a non-control send, else its
/// kind() (for the recorder to intern).
obs::Event make_msg_event(obs::EventKind kind, const net::Envelope& env,
                          sim::Time now, std::string& detail);

}  // namespace ocsp::spec
