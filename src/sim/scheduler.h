// Deterministic discrete-event scheduler.
//
// Events scheduled for the same virtual time fire in insertion order
// (FIFO tie-break on a monotonically increasing sequence number), making
// every simulation a pure function of its inputs.  Cancellation is lazy:
// cancelled events leave their key in the heap and are skipped on pop.
//
// Same-time ties can optionally be broken by an explicit priority before
// the insertion sequence (see at(t, prio, cb)).  Insertion order is a fine
// tie-break inside ONE scheduler, but it is not reproducible across
// executors that discover the same events in different orders (e.g. the
// sharded parallel runtime draining cross-shard outboxes).  A priority that
// is a pure function of the event's identity — not of when the scheduler
// learned about it — makes the schedule executor-independent.
//
// Scheduling, cancelling and firing allocate nothing in steady state.  The
// heap orders 32-byte POD keys (when, prio, seq, slot); each key names a
// slot of a reusable table that holds the event's callback and its seq.
// A slot is live for exactly the key (and Handle) whose seq it stores, so
// a cancelled event's stale key, and a Handle whose slot was since reused,
// fail the same comparison.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace ocsp::sim {

class Scheduler {
 public:
  /// Move-only `void()` callable.  Closures of up to kInlineBytes are
  /// stored in place — the largest hot one is a delivery, `[this,
  /// net::Envelope]` — and larger, over-aligned or throwing-move ones on
  /// the heap.
  class Callback {
   public:
    static constexpr std::size_t kInlineBytes = 56;

    /// Whether a closure of type F is stored without allocating.
    template <class F>
    static constexpr bool kStoredInline =
        sizeof(F) <= kInlineBytes &&
        alignof(F) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<F>;

    Callback() noexcept = default;

    template <class F, class D = std::decay_t<F>,
              class = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                       std::is_invocable_r_v<void, D&>>>
    Callback(F&& f) {  // implicit: callers pass lambdas straight to at()
      if constexpr (kStoredInline<D>) {
        ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      } else {
        ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      }
      ops_ = &kOps<D>;
    }

    Callback(Callback&& other) noexcept : ops_(other.ops_) {
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }

    Callback& operator=(Callback&& other) noexcept {
      if (this != &other) {
        reset();
        if (other.ops_ != nullptr) {
          other.ops_->relocate(storage_, other.storage_);
          ops_ = std::exchange(other.ops_, nullptr);
        }
      }
      return *this;
    }

    Callback(const Callback&) = delete;
    Callback& operator=(const Callback&) = delete;

    ~Callback() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    void operator()() { ops_->invoke(storage_); }

   private:
    struct Ops {
      void (*invoke)(void* storage);
      /// Move-construct into `to` and destroy the closure left in `from`.
      void (*relocate)(void* to, void* from) noexcept;
      void (*destroy)(void* storage) noexcept;
    };

    template <class D>
    static D& closure(void* storage) {
      if constexpr (kStoredInline<D>) {
        return *std::launder(static_cast<D*>(storage));
      } else {
        return **std::launder(static_cast<D**>(storage));
      }
    }

    template <class D>
    static constexpr Ops kOps{
        [](void* s) { closure<D>(s)(); },
        [](void* to, void* from) noexcept {
          if constexpr (kStoredInline<D>) {
            D& src = closure<D>(from);
            ::new (to) D(std::move(src));
            src.~D();
          } else {
            ::new (to) D*(*std::launder(static_cast<D**>(from)));
          }
        },
        [](void* s) noexcept {
          if constexpr (kStoredInline<D>) {
            closure<D>(s).~D();
          } else {
            delete &closure<D>(s);
          }
        }};

    void reset() noexcept {
      if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(storage_);
    }

    alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
    const Ops* ops_ = nullptr;
  };

  /// Token identifying a scheduled event, usable for cancellation: its seq
  /// and slot packed in one word, as small as a bare seq in the timer maps
  /// that hold handles.
  class Handle {
   public:
    Handle() = default;
    bool valid() const { return bits_ != 0; }
    std::uint64_t seq() const { return bits_ >> kSlotBits; }
    std::uint32_t slot() const {
      return static_cast<std::uint32_t>(bits_ & (kMaxSlots - 1));
    }

   private:
    friend class Scheduler;
    Handle(std::uint64_t seq, std::uint32_t slot)
        : bits_(seq << kSlotBits | slot) {}
    std::uint64_t bits_ = 0;
  };

  /// Same-time tie-break priority of events scheduled without an explicit
  /// priority: maximal, so prioritized events (smaller value) fire first.
  static constexpr std::uint64_t kDefaultPrio =
      ~static_cast<std::uint64_t>(0);

  /// Handle layout: the slot takes the low bits, the seq the rest.  At
  /// most 2^24 events pending and 2^40 scheduled over a scheduler's life.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kMaxSlots = std::uint64_t{1} << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1}
                                           << (64 - kSlotBits);

  /// Schedule `cb` at absolute virtual time `t` (>= now()).
  Handle at(Time t, Callback cb);

  /// Schedule `cb` at `t` with an explicit same-time priority.  Events at
  /// equal times fire in ascending `prio`; equal (t, prio) falls back to
  /// insertion order.
  Handle at(Time t, std::uint64_t prio, Callback cb);

  /// Schedule `cb` `delay` after now().
  Handle after(Time delay, Callback cb);

  /// Cancel a pending event and destroy its callback.  Returns false if it
  /// already fired or was already cancelled.
  bool cancel(Handle h);

  /// Run the earliest pending event.  Returns false when the queue is empty.
  bool step();

  /// Run until the queue drains.  Returns the number of events fired.
  std::size_t run();

  /// Run events with firing time <= `deadline`; the clock advances to
  /// `deadline` afterwards even if the queue drained early.
  std::size_t run_until(Time deadline);

  /// Firing time of the earliest pending event, or kTimeNever when the
  /// queue is empty.  Non-const: compacts lazily-cancelled heap tops.
  Time next_time();

  Time now() const { return now_; }
  /// Firing time of the latest event that actually ran (0 before the first).
  /// Unlike now(), run_until never advances this to the deadline, so after a
  /// drain it is the true last-event time — what an executor with no
  /// deadline should report as its finish time.
  Time last_fired() const { return last_fired_; }
  bool empty() const { return pending_ == 0; }
  std::size_t pending() const { return pending_; }
  std::uint64_t fired_count() const { return fired_count_; }

  /// High-water mark of the pending-event queue (kernel load gauge).
  std::size_t peak_pending() const { return peak_pending_; }

 private:
  struct Key {
    Time when;
    std::uint64_t prio;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(sizeof(Key) == 32 && std::is_trivially_copyable_v<Key>);
  /// Heap order: the top is the earliest (when, prio, seq).
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) return a.when > b.when;
      if (a.prio != b.prio) return a.prio > b.prio;
      return a.seq > b.seq;
    }
  };

  /// `seq` is the live event's sequence number, 0 while the slot is free.
  struct Slot {
    std::uint64_t seq = 0;
    Callback cb;
  };

  /// Drop cancelled keys off the heap top, then fire the top event if it is
  /// due by `deadline`.  Returns whether an event fired.
  bool fire_next(Time deadline);
  void drop_cancelled_top();
  void pop_top();
  /// Free a live slot; returns its callback so that the closure's captures
  /// die after the table is consistent again.
  Callback release(std::uint32_t slot);

  Time now_ = 0;
  Time last_fired_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t fired_count_ = 0;
  std::size_t pending_ = 0;
  std::size_t peak_pending_ = 0;
  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace ocsp::sim
