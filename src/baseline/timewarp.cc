#include "baseline/timewarp.h"

#include <algorithm>
#include <iterator>

#include "util/check.h"

namespace ocsp::baseline::tw {

Engine::Engine(int default_wall_delay_rounds)
    : default_delay_(default_wall_delay_rounds) {
  OCSP_CHECK(default_wall_delay_rounds >= 0);
}

LpId Engine::add_lp(std::string name, Handler handler,
                    csp::Env initial_state) {
  OCSP_CHECK(handler != nullptr);
  Lp lp;
  lp.name = std::move(name);
  lp.handler = std::move(handler);
  lp.state = std::move(initial_state);
  lps_.push_back(std::move(lp));
  return static_cast<LpId>(lps_.size() - 1);
}

void Engine::set_wall_delay(LpId src, LpId dst, int rounds) {
  OCSP_CHECK(rounds >= 0);
  delays_[{src, dst}] = rounds;
}

void Engine::inject(LpId dst, sim::Time recv_time, std::string op,
                    csp::Value data) {
  Event e;
  e.recv_time = recv_time;
  e.send_time = 0;
  e.id = next_id_++;
  e.dst = dst;
  e.op = std::move(op);
  e.data = std::move(data);
  OCSP_CHECK(dst >= 0 && static_cast<std::size_t>(dst) < lps_.size());
  enqueue(lps_[static_cast<std::size_t>(dst)], e);
}

void Engine::send(const Event& event) {
  auto it = delays_.find({event.src, event.dst});
  const int delay = it == delays_.end() ? default_delay_ : it->second;
  in_flight_.push_back(
      InFlight{round_ + static_cast<std::uint64_t>(delay), event});
}

void Engine::deliver_visible() {
  // Take the batch out first: enqueue can roll an LP back, and the
  // antimessages that rollback sends append to in_flight_.
  std::vector<InFlight> batch = std::move(in_flight_);
  in_flight_.clear();
  std::vector<InFlight> later;
  later.reserve(batch.size());
  for (auto& f : batch) {
    if (f.visible_round <= round_) {
      Lp& lp = lps_[static_cast<std::size_t>(f.event.dst)];
      enqueue(lp, f.event);
    } else {
      later.push_back(std::move(f));
    }
  }
  // Sends made while delivering follow what was already in flight.
  later.insert(later.end(), std::make_move_iterator(in_flight_.begin()),
               std::make_move_iterator(in_flight_.end()));
  in_flight_ = std::move(later);
}

void Engine::enqueue(Lp& lp, const Event& event) {
  if (event.anti) {
    // Annihilate with the matching positive message, wherever it is.
    auto pending_it =
        std::find_if(lp.pending.begin(), lp.pending.end(),
                     [&](const Event& e) { return e.id == event.id; });
    if (pending_it != lp.pending.end()) {
      lp.pending.erase(pending_it);
      return;
    }
    auto proc_it = std::find_if(
        lp.processed.begin(), lp.processed.end(),
        [&](const Lp::Processed& p) { return p.event.id == event.id; });
    if (proc_it != lp.processed.end()) {
      // The positive copy was already processed: straggler annihilation —
      // roll back to just before it, then drop it.
      rollback(lp, proc_it->event.recv_time, event.id);
      auto again =
          std::find_if(lp.pending.begin(), lp.pending.end(),
                       [&](const Event& e) { return e.id == event.id; });
      OCSP_CHECK(again != lp.pending.end());
      lp.pending.erase(again);
      return;
    }
    // Antimessage beat the message: remember it to annihilate on arrival.
    lp.pending.push_back(event);
    return;
  }
  // Positive message: check for a waiting antimessage.
  auto anti_it = std::find_if(
      lp.pending.begin(), lp.pending.end(),
      [&](const Event& e) { return e.anti && e.id == event.id; });
  if (anti_it != lp.pending.end()) {
    lp.pending.erase(anti_it);
    return;
  }
  if (event.recv_time <= lp.lvt) {
    // Straggler: roll back to before its receive time.
    rollback(lp, event.recv_time, event.id);
  }
  lp.pending.push_back(event);
  std::sort(lp.pending.begin(), lp.pending.end(),
            [](const Event& a, const Event& b) {
              if (a.recv_time != b.recv_time) return a.recv_time < b.recv_time;
              return a.id < b.id;
            });
}

void Engine::rollback(Lp& lp, sim::Time to_before, std::uint64_t) {
  ++stats_.rollbacks;
  // Pop processed events with recv_time >= to_before, newest first:
  // restore the oldest popped pre-state, requeue their events, and send
  // antimessages for everything they emitted.
  bool restored_any = false;
  csp::Env restore;
  while (!lp.processed.empty() &&
         lp.processed.back().event.recv_time >= to_before) {
    Lp::Processed p = std::move(lp.processed.back());
    lp.processed.pop_back();
    ++stats_.events_rolled_back;
    for (const Event& sent : p.sent) {
      Event anti = sent;
      anti.anti = true;
      ++stats_.antimessages_sent;
      send(anti);
    }
    lp.pending.push_back(p.event);
    restore = std::move(p.pre_state);
    restored_any = true;
  }
  if (restored_any) {
    lp.state = std::move(restore);
  }
  lp.lvt = lp.processed.empty() ? -1 : lp.processed.back().event.recv_time;
  std::sort(lp.pending.begin(), lp.pending.end(),
            [](const Event& a, const Event& b) {
              if (a.recv_time != b.recv_time) return a.recv_time < b.recv_time;
              return a.id < b.id;
            });
}

bool Engine::step_lp(Lp& lp) {
  // Skip any orphaned antimessages waiting for positives (they cannot be
  // processed); process the earliest positive pending event.
  auto it = std::find_if(lp.pending.begin(), lp.pending.end(),
                         [](const Event& e) { return !e.anti; });
  if (it == lp.pending.end()) return false;
  Event event = *it;
  lp.pending.erase(it);

  ++stats_.state_saves;
  Lp::Processed record;
  record.event = event;
  record.pre_state = lp.state;

  ++stats_.events_processed;
  std::vector<Emit> emits = lp.handler(lp.state, event);
  lp.lvt = event.recv_time;
  for (auto& emit : emits) {
    Event out;
    out.recv_time = event.recv_time + std::max<sim::Time>(1, emit.vt_delay);
    out.send_time = event.recv_time;
    out.id = next_id_++;
    out.src = static_cast<LpId>(&lp - lps_.data());
    out.dst = emit.dst;
    out.op = std::move(emit.op);
    out.data = std::move(emit.data);
    record.sent.push_back(out);
    send(out);
  }
  lp.processed.push_back(std::move(record));
  return true;
}

bool Engine::run(std::uint64_t max_rounds) {
  for (; round_ < max_rounds; ++round_) {
    deliver_visible();
    bool any = false;
    for (auto& lp : lps_) any |= step_lp(lp);
    if (!any && in_flight_.empty()) return true;
    if (!any) continue;  // wait for in-flight messages to become visible
  }
  return false;
}

const csp::Env& Engine::state_of(LpId id) const {
  OCSP_CHECK(id >= 0 && static_cast<std::size_t>(id) < lps_.size());
  return lps_[static_cast<std::size_t>(id)].state;
}

sim::Time Engine::lvt_of(LpId id) const {
  OCSP_CHECK(id >= 0 && static_cast<std::size_t>(id) < lps_.size());
  return lps_[static_cast<std::size_t>(id)].lvt;
}

sim::Time Engine::gvt() const {
  sim::Time g = sim::kTimeNever;
  for (const auto& lp : lps_) {
    for (const auto& e : lp.pending) g = std::min(g, e.recv_time);
  }
  for (const auto& f : in_flight_) g = std::min(g, f.event.recv_time);
  return g;
}

}  // namespace ocsp::baseline::tw
