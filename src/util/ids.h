// Common identifier types shared by every layer of the library.
#pragma once

#include <cstdint>

namespace ocsp {

/// Identifies a process (an independently executing CSP entity).
/// Process ids are assigned densely by the Runtime starting at 0.
using ProcessId = std::uint32_t;

/// Sentinel meaning "no process".
inline constexpr ProcessId kNoProcess = ~ProcessId{0};

/// Process ids stay below this bound: per-link message ids and same-time
/// priorities encode 16 bits of each endpoint, and per-process tables
/// (network links, commit histories) are indexed by id.
inline constexpr ProcessId kMaxProcesses = ProcessId{1} << 16;

/// Globally unique message identifier, assigned by the network at send time.
using MsgId = std::uint64_t;

}  // namespace ocsp
