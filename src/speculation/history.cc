#include "speculation/history.h"

#include <sstream>

#include "util/check.h"

namespace ocsp::spec {

const char* to_string(GuessStatus s) {
  switch (s) {
    case GuessStatus::kUnknown:
      return "unknown";
    case GuessStatus::kCommitted:
      return "committed";
    case GuessStatus::kAborted:
      return "aborted";
  }
  return "?";
}

std::uint8_t& PeerHistory::Incarnation::entry_slot(std::uint32_t index) {
  if (entries.empty()) {
    base = index;
    entries.push_back(kNoEntry);
  } else if (index < base) {
    // Rare: a guess below the lowest one heard from this incarnation.
    entries.insert(entries.begin(), base - index, kNoEntry);
    base = index;
  } else if (index - base >= entries.size()) {
    entries.resize(std::size_t{index - base} + 1, kNoEntry);
  }
  return entries[index - base];
}

PeerHistory::Incarnation& PeerHistory::incarnation(std::uint32_t inc) {
  // Records between the old top and `inc` stay unobserved; none of their
  // later incarnations is observed yet either, so later_start is
  // kNoLaterStart.
  if (inc >= incarnations_.size()) incarnations_.resize(std::size_t{inc} + 1);
  return incarnations_[inc];
}

bool PeerHistory::set_status(const GuessId& g, GuessStatus status) {
  const bool was_aborted = this->status(g) == GuessStatus::kAborted;
  std::uint8_t& entry = incarnation(g.incarnation).entry_slot(g.index);
  if (entry != kNoEntry) {
    // Committed/aborted are final; unknown (from PRECEDENCE) never
    // overwrites a final state.
    if (entry != 1 + static_cast<std::uint8_t>(GuessStatus::kUnknown) &&
        status == GuessStatus::kUnknown) {
      return false;
    }
  } else {
    ++explicit_entries_;
  }
  entry = static_cast<std::uint8_t>(1 + static_cast<std::uint8_t>(status));
  // Seeing any guess from incarnation i implies i exists; its start is at
  // most the index seen (refined further by observe_incarnation).
  const bool start_moved = lower_start(g.incarnation, g.index);
  return start_moved || was_aborted != (status == GuessStatus::kAborted);
}

bool PeerHistory::lower_start(std::uint32_t inc, std::uint32_t start_index) {
  Incarnation& in = incarnations_[inc];
  if (in.observed && start_index >= in.start) return false;
  in.observed = true;
  in.start = start_index;
  // later_start never increases toward lower incarnations (each one's set
  // of later incarnations contains the next one's), so the walk down stops
  // at the first record the new start does not lower.
  for (std::uint32_t i = inc; i-- > 0;) {
    if (incarnations_[i].later_start <= start_index) break;
    incarnations_[i].later_start = start_index;
  }
  return true;
}

bool PeerHistory::observe_incarnation(std::uint32_t inc,
                                      std::uint32_t start_index) {
  incarnation(inc);
  return lower_start(inc, start_index);
}

std::uint32_t PeerHistory::latest_incarnation() const {
  // The top record is always observed: records are only created up to an
  // incarnation that is observed in the same call.
  if (incarnations_.empty()) return 0;
  return static_cast<std::uint32_t>(incarnations_.size() - 1);
}

std::string PeerHistory::to_string() const {
  std::ostringstream os;
  os << "starts{";
  for (std::size_t inc = 0; inc < incarnations_.size(); ++inc) {
    if (!incarnations_[inc].observed) continue;
    os << " i" << inc << "@" << incarnations_[inc].start;
  }
  os << " } entries{";
  for (std::size_t inc = 0; inc < incarnations_.size(); ++inc) {
    const Incarnation& in = incarnations_[inc];
    for (std::size_t i = 0; i < in.entries.size(); ++i) {
      if (in.entries[i] == kNoEntry) continue;
      const auto st = static_cast<GuessStatus>(in.entries[i] - 1);
      os << " (" << inc << "," << in.base + i << ")=" << spec::to_string(st);
    }
  }
  os << " }";
  return os.str();
}

PeerHistory& HistoryTable::peer(ProcessId id) {
  OCSP_CHECK_MSG(id < kMaxProcesses, "guess owner out of process-id range");
  if (id >= peers_.size()) peers_.resize(std::size_t{id} + 1);
  return peers_[id];
}

void HistoryTable::set_status(const GuessId& g, GuessStatus status) {
  if (peer(g.owner).set_status(g, status)) ++abort_epoch_;
}

void HistoryTable::observe_incarnation(ProcessId owner, std::uint32_t inc,
                                       std::uint32_t start_index) {
  if (peer(owner).observe_incarnation(inc, start_index)) ++abort_epoch_;
}

bool HistoryTable::any_aborted(const GuardSet& guard) const {
  for (const auto& g : guard) {
    if (status(g) == GuessStatus::kAborted) return true;
  }
  return false;
}

std::vector<GuessId> HistoryTable::unresolved_of(const GuardSet& guard) const {
  std::vector<GuessId> out;
  for (const auto& g : guard) {
    if (status(g) != GuessStatus::kCommitted) out.push_back(g);
  }
  return out;
}

}  // namespace ocsp::spec
