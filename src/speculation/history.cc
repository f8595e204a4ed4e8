#include "speculation/history.h"

#include <sstream>

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

bool PeerHistory::set_status(const GuessId& g, GuessStatus status) {
  const auto key = std::pair(g.incarnation, g.index);
  const bool was_aborted = this->status(g) == GuessStatus::kAborted;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Committed/aborted are final; unknown (from PRECEDENCE) never
    // overwrites a final state.
    if (it->second != GuessStatus::kUnknown &&
        status == GuessStatus::kUnknown) {
      return false;
    }
    it->second = status;
  } else {
    entries_[key] = status;
  }
  // Seeing any guess from incarnation i implies i exists; its start is at
  // most the index seen (refined further by observe_incarnation).
  const bool start_moved = lower_start(g.incarnation, g.index);
  return start_moved || was_aborted != (status == GuessStatus::kAborted);
}

bool PeerHistory::lower_start(std::uint32_t inc, std::uint32_t start_index) {
  auto [it, inserted] = incarnation_start_.try_emplace(inc, start_index);
  if (inserted) return true;
  if (start_index >= it->second) return false;
  it->second = start_index;
  return true;
}

GuessStatus PeerHistory::status(const GuessId& g) const {
  auto it = entries_.find(std::pair(g.incarnation, g.index));
  if (it != entries_.end()) return it->second;
  // Implicit abort: a later incarnation whose start index is <= g.index
  // means the thread g guarded was re-executed — g was abandoned.
  for (auto jt = incarnation_start_.upper_bound(g.incarnation);
       jt != incarnation_start_.end(); ++jt) {
    if (jt->second <= g.index) return GuessStatus::kAborted;
  }
  return GuessStatus::kUnknown;
}

bool PeerHistory::observe_incarnation(std::uint32_t inc,
                                      std::uint32_t start_index) {
  return lower_start(inc, start_index);
}

std::uint32_t PeerHistory::latest_incarnation() const {
  if (incarnation_start_.empty()) return 0;
  return incarnation_start_.rbegin()->first;
}

std::string PeerHistory::to_string() const {
  std::ostringstream os;
  os << "starts{";
  for (const auto& [inc, start] : incarnation_start_) {
    os << " i" << inc << "@" << start;
  }
  os << " } entries{";
  for (const auto& [key, st] : entries_) {
    os << " (" << key.first << "," << key.second << ")=" << spec::to_string(st);
  }
  os << " }";
  return os.str();
}

void HistoryTable::set_status(const GuessId& g, GuessStatus status) {
  if (peers_[g.owner].set_status(g, status)) ++abort_epoch_;
}

void HistoryTable::observe_incarnation(ProcessId owner, std::uint32_t inc,
                                       std::uint32_t start_index) {
  if (peers_[owner].observe_incarnation(inc, start_index)) ++abort_epoch_;
}

const PeerHistory* HistoryTable::find_peer(ProcessId id) const {
  auto it = peers_.find(id);
  return it == peers_.end() ? nullptr : &it->second;
}

GuessStatus HistoryTable::status(const GuessId& g) const {
  const PeerHistory* h = find_peer(g.owner);
  return h ? h->status(g) : GuessStatus::kUnknown;
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
