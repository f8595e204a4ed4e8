#include "sim/scheduler.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace ocsp::sim {

Scheduler::Handle Scheduler::at(Time t, Callback cb) {
  return at(t, kDefaultPrio, std::move(cb));
}

Scheduler::Handle Scheduler::at(Time t, std::uint64_t prio, Callback cb) {
  OCSP_CHECK_MSG(t >= now_, "cannot schedule into the past");
  OCSP_CHECK_MSG(static_cast<bool>(cb), "cannot schedule an empty callback");
  OCSP_CHECK_MSG(next_seq_ < kMaxSeq, "event sequence numbers exhausted");
  const std::uint64_t seq = next_seq_++;
  std::uint32_t slot;
  if (free_slots_.empty()) {
    OCSP_CHECK_MSG(slots_.size() < kMaxSlots, "too many pending events");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Slot{seq, std::move(cb)});
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot].seq = seq;
    slots_[slot].cb = std::move(cb);
  }
  heap_.push_back(Key{t, prio, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  peak_pending_ = std::max(peak_pending_, ++pending_);
  return Handle{seq, slot};
}

Scheduler::Handle Scheduler::after(Time delay, Callback cb) {
  OCSP_CHECK(delay >= 0);
  return at(now_ + delay, std::move(cb));
}

Scheduler::Callback Scheduler::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.seq = 0;
  free_slots_.push_back(slot);
  --pending_;
  return std::move(s.cb);
}

bool Scheduler::cancel(Handle h) {
  // The key stays in the heap; clearing the slot's seq makes pop skip it.
  if (!h.valid() || h.slot() >= slots_.size() ||
      slots_[h.slot()].seq != h.seq()) {
    return false;
  }
  release(h.slot());
  return true;
}

void Scheduler::pop_top() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

void Scheduler::drop_cancelled_top() {
  while (!heap_.empty() &&
         slots_[heap_.front().slot].seq != heap_.front().seq) {
    pop_top();
  }
}

bool Scheduler::fire_next(Time deadline) {
  drop_cancelled_top();
  if (heap_.empty() || heap_.front().when > deadline) return false;
  const Key top = heap_.front();
  pop_top();
  OCSP_CHECK(top.when >= now_);
  now_ = top.when;
  last_fired_ = top.when;
  ++fired_count_;
  // Moved out first: the callback may schedule events that grow the slot
  // table or reuse this slot.
  Callback cb = release(top.slot);
  cb();
  return true;
}

bool Scheduler::step() { return fire_next(kTimeNever); }

Time Scheduler::next_time() {
  drop_cancelled_top();
  return heap_.empty() ? kTimeNever : heap_.front().when;
}

std::size_t Scheduler::run() {
  std::size_t fired = 0;
  while (fire_next(kTimeNever)) ++fired;
  return fired;
}

std::size_t Scheduler::run_until(Time deadline) {
  OCSP_CHECK(deadline >= now_);
  std::size_t fired = 0;
  while (fire_next(deadline)) ++fired;
  now_ = deadline;
  return fired;
}

}  // namespace ocsp::sim
