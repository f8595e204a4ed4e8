// Typed event taxonomy of the observability layer.
//
// Every protocol-relevant occurrence — interval lifecycle, guess lifecycle,
// control traffic, CDG mutations, external-output buffering, message
// sends/deliveries — is recorded as a structured Event.  The taxonomy is
// deliberately flat: one struct with kind-specific fields, so the recorder
// stays a plain vector and exporters can pattern-match on `kind` without a
// visitor hierarchy.
//
// The obs layer depends only on util/sim (ids, virtual time); guesses are
// mirrored as GuessRef rather than spec::GuessId so the speculation layer
// can depend on obs without a cycle.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

#include "sim/time.h"
#include "util/ids.h"

namespace ocsp::obs {

enum class EventKind : std::uint8_t {
  kIntervalBegin,      ///< a fork opened a new speculative interval (S2)
  kFork,               ///< fork executed (speculative or sequential)
  kJoin,               ///< left thread reached its join
  kCommit,             ///< a guess committed (recorded by its owner)
  kAbort,              ///< a guess aborted; `reason` says why
  kRollback,           ///< a rollback restored an earlier state index
  kGuessMade,          ///< predictor produced guessed values at a fork
  kGuessVerified,      ///< join found every guessed value correct
  kGuessFailed,        ///< join found at least one guessed value wrong
  kControlSent,        ///< COMMIT/ABORT/PRECEDENCE distribution initiated
  kControlReceived,    ///< control message processed at a receiver
  kCdgEdgeAdded,       ///< PRECEDENCE added an edge to the recording
                       ///< process's CDG (one graph per process: `thread`
                       ///< is unset)
  kCdgCycleDetected,   ///< that edge closed a cycle (time fault); `thread`
                       ///< is unset
  kExternalBuffered,   ///< external output held back by a non-empty guard
  kExternalReleased,   ///< external output released (committed)
  kExternalDiscarded,  ///< buffered external output destroyed by an abort
  kMsgSent,            ///< network accepted a message for delivery
  kMsgDelivered,       ///< network delivered a message
  kCheckpointTaken,    ///< state snapshot stored; a = bytes materialized
                       ///< (bytes structurally shared are counted in
                       ///< SpecStats::checkpoint_bytes_shared)
  kComputeDone,        ///< a Compute statement finished; a = duration (ns)
  kWorkDiscarded,      ///< an abort/rollback threw away prior compute;
                       ///< a = discarded ns, guess = killed thread's own
                       ///< guess, guess_from = the aborted guess that
                       ///< triggered the kill
  kSafeForkElided,     ///< SAFE fast-path fork: guess/guard/checkpoint
                       ///< machinery skipped; a = state bytes not snapshotted
  kThreadBlocked,      ///< program body finished but the guard is non-empty
                       ///< (phase kDoneWaitGuard)
  kThreadResolved,     ///< a kThreadBlocked thread's guard emptied
  kProcessCompleted,   ///< the process ran to completion
  kCommuteCommit,      ///< join forgave a guess mismatch under commute
                       ///< verification (variables dead / boolean-only in
                       ///< the right thread); a = variables forgiven
  kFaultInjected,      ///< fault plan hit a message; a = 1 drop / 2 corrupt
                       ///< / 3 duplicate, detail = cause
  kRetransmit,         ///< reliable transport re-sent an unacked frame;
                       ///< a = attempt number
  kDuplicateSuppressed,  ///< receiver forgave a duplicate frame (dedup)
  kCrash,              ///< fault plan crashed this process
  kRecovery,           ///< crashed process restarted; a = own guesses
                       ///< aborted to restore the committed state
  kGovernorDemote,     ///< abort-rate breaker demoted a fork site to
                       ///< sequential execution; detail = site
  kGovernorPromote,    ///< breaker re-enabled speculation at a site
};
inline constexpr std::size_t kEventKindCount = 33;

enum class AbortReason : std::uint8_t {
  kNone,
  kValueFault,  ///< verifier found a wrong guessed value (4.2.5)
  kTimeFault,   ///< happens-before cycle: self-check, CDG cycle, or
                ///< future-thread rule (4.2.3, 4.2.8)
  kTimeout,     ///< liveness timeout on the left thread or join wait (3.3)
  kCascade,     ///< dependency on a remotely/locally aborted guess (4.2.7)
  kCrash,       ///< process crash discarded the uncommitted speculation
};
inline constexpr std::size_t kAbortReasonCount = 6;

enum class ControlType : std::uint8_t { kNone, kCommit, kAbort, kPrecedence };

/// Owner-qualified guess reference; mirrors spec::GuessId.
struct GuessRef {
  ProcessId owner = kNoProcess;
  std::uint32_t incarnation = 0;
  std::uint32_t index = 0;

  auto operator<=>(const GuessRef&) const = default;
  bool valid() const { return owner != kNoProcess; }
  std::string to_string() const;
};

/// One recorded occurrence.  Trivially copyable and at most 72 bytes, so a
/// recorder's vector grows by memcpy: fields are ordered widest first to
/// leave no padding but the tail's.  An event holds only what a reader
/// (the profiler, attribution, the Chrome trace, the timelines) uses; a
/// fact no reader needs per event is a counter or a histogram instead.
/// The free-text part (fork site, message description, fine reason) lives
/// in the recording RunRecorder's string table; `detail` is its id there,
/// meaningless in any other recorder.  Read it back with
/// RunRecorder::detail.
struct Event {
  sim::Time when = 0;
  MsgId msg_id = 0;
  std::uint64_t a = 0;  ///< kind-specific: fan-out, threads killed, ...
  ProcessId process = kNoProcess;  ///< recording process
  ProcessId peer = kNoProcess;     ///< other endpoint (messages)
  std::uint32_t thread = 0;        ///< thread index within `process`
  GuessRef guess;                  ///< primary subject guess
  GuessRef guess_from;             ///< CDG edge source (kCdgEdgeAdded)
  /// Id of the detail string in the recording RunRecorder's table; 0 is
  /// the empty string.
  std::uint32_t detail = 0;
  EventKind kind = EventKind::kIntervalBegin;
  AbortReason reason = AbortReason::kNone;
  ControlType control = ControlType::kNone;
};
static_assert(std::is_trivially_copyable_v<Event>,
              "recorder growth must stay a memcpy");
static_assert(sizeof(Event) <= 72, "obs::Event outgrew 72 bytes");

const char* to_string(EventKind k);
const char* to_string(AbortReason r);
const char* to_string(ControlType c);
/// One timeline line: "t=<us>us  P<process>[->P<peer>]  <kind>" followed
/// by the guess (and "from" its source or cause), abort reason, control
/// type and `detail` (the event's detail string, see
/// RunRecorder::to_string) that are set.  Receive-side events draw the
/// arrow from the sender: "P1<-P0".
std::string to_string(const Event& e, std::string_view detail);

}  // namespace ocsp::obs
