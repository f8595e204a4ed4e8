// Unit tests for the discrete-event kernel: ordering, FIFO tie-breaking,
// cancellation, deadlines, determinism, slot reuse and allocation-free
// steady state.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <functional>
#include <new>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/scheduler.h"
#include "util/rng.h"

// Every global operator new in this binary is counted, so a test can assert
// that a stretch of kernel work allocated nothing.
namespace {
std::size_t g_allocations = 0;
}  // namespace

// Out of line, so the compiler sees operator new and delete paired, not
// malloc and free (which it would warn of as mismatched).
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace ocsp::sim {
namespace {

TEST(Scheduler, FiresInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.at(30, [&] { order.push_back(3); });
  s.at(10, [&] { order.push_back(1); });
  s.at(20, [&] { order.push_back(2); });
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, SameTimeFifoTieBreak) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.at(5, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, NowAdvancesToFiringTime) {
  Scheduler s;
  Time seen = -1;
  s.at(42, [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, 42);
  EXPECT_EQ(s.now(), 42);
}

TEST(Scheduler, AfterIsRelative) {
  Scheduler s;
  Time seen = -1;
  s.at(10, [&] { s.after(5, [&] { seen = s.now(); }); });
  s.run();
  EXPECT_EQ(seen, 15);
}

TEST(Scheduler, CancelPreventsFiring) {
  Scheduler s;
  bool fired = false;
  auto h = s.at(10, [&] { fired = true; });
  EXPECT_TRUE(s.cancel(h));
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, CancelTwiceFails) {
  Scheduler s;
  auto h = s.at(10, [] {});
  EXPECT_TRUE(s.cancel(h));
  EXPECT_FALSE(s.cancel(h));
  s.run();
}

TEST(Scheduler, CancelAfterFireFails) {
  Scheduler s;
  auto h = s.at(10, [] {});
  s.run();
  EXPECT_FALSE(s.cancel(h));
}

TEST(Scheduler, CancelInvalidHandle) {
  Scheduler s;
  EXPECT_FALSE(s.cancel(Scheduler::Handle{}));
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler s;
  std::vector<Time> fired;
  for (Time t : {10, 20, 30, 40}) {
    s.at(t, [&fired, &s] { fired.push_back(s.now()); });
  }
  EXPECT_EQ(s.run_until(25), 2u);
  EXPECT_EQ(s.now(), 25);
  EXPECT_EQ(fired, (std::vector<Time>{10, 20}));
  EXPECT_EQ(s.pending(), 2u);
  s.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Scheduler, RunUntilAdvancesClockWhenEmpty) {
  Scheduler s;
  s.run_until(100);
  EXPECT_EQ(s.now(), 100);
}

TEST(Scheduler, EventsScheduledDuringRunFire) {
  Scheduler s;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) s.after(1, chain);
  };
  s.at(0, chain);
  s.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.now(), 4);
}

TEST(Scheduler, StepFiresExactlyOne) {
  Scheduler s;
  int count = 0;
  s.at(1, [&] { ++count; });
  s.at(2, [&] { ++count; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
  EXPECT_EQ(count, 2);
}

TEST(Scheduler, PendingCountTracksCancellations) {
  Scheduler s;
  auto h1 = s.at(1, [] {});
  s.at(2, [] {});
  EXPECT_EQ(s.pending(), 2u);
  s.cancel(h1);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Scheduler, FiredCountAccumulates) {
  Scheduler s;
  for (int i = 0; i < 7; ++i) s.at(i, [] {});
  s.run();
  EXPECT_EQ(s.fired_count(), 7u);
}

TEST(Scheduler, ZeroDelayEventFiresAtCurrentTime) {
  Scheduler s;
  Time seen = -1;
  s.at(10, [&] { s.after(0, [&] { seen = s.now(); }); });
  s.run();
  EXPECT_EQ(seen, 10);
}

TEST(Scheduler, PriorityBreaksSameTimeTiesBeforeInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  s.at(5, [&] { order.push_back(0); });             // kDefaultPrio, first in
  s.at(5, /*prio=*/7, [&] { order.push_back(1); });
  s.at(5, /*prio=*/3, [&] { order.push_back(2); });
  s.at(5, /*prio=*/7, [&] { order.push_back(3); });  // ties with 1: FIFO
  s.at(4, [&] { order.push_back(4); });              // earlier time wins
  s.run();
  EXPECT_EQ(order, (std::vector<int>{4, 2, 1, 3, 0}));
}

TEST(Scheduler, NextTimeSkipsCancelledAndReportsNever) {
  Scheduler s;
  EXPECT_EQ(s.next_time(), kTimeNever);
  auto h1 = s.at(3, [] {});
  s.at(9, [] {});
  EXPECT_EQ(s.next_time(), 3);
  s.cancel(h1);
  EXPECT_EQ(s.next_time(), 9);
  s.run();
  EXPECT_EQ(s.next_time(), kTimeNever);
}

TEST(Scheduler, RunUntilAdvancesClockPastDrainedQueue) {
  Scheduler s;
  s.at(2, [] {});
  EXPECT_EQ(s.run_until(10), 1u);
  EXPECT_EQ(s.now(), 10);
  // A later window can start where the previous one left the clock.
  s.at(10, [] {});
  EXPECT_EQ(s.run_until(20), 1u);
}

TEST(Scheduler, StaleHandleCannotCancelSlotReuser) {
  Scheduler s;
  // A fires, B takes its slot: A's handle must not reach B.
  auto a = s.at(1, [] {});
  s.run();
  bool b_fired = false;
  auto b = s.at(2, [&] { b_fired = true; });
  ASSERT_EQ(b.slot(), a.slot());
  EXPECT_FALSE(s.cancel(a));
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_TRUE(b_fired);
  // C is cancelled, D takes its slot: C's handle must not reach D.
  auto c = s.at(3, [] {});
  EXPECT_TRUE(s.cancel(c));
  bool d_fired = false;
  auto d = s.at(4, [&] { d_fired = true; });
  ASSERT_EQ(d.slot(), c.slot());
  EXPECT_FALSE(s.cancel(c));
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_TRUE(d_fired);
}

/// Differential harness: drives a Scheduler and a reference model — an
/// ordered set of (when, prio, seq) — with the same operations, and checks
/// after each one that both agree on what fired, in which order, and on
/// every counter the kernel exposes.
class ReferenceQueue {
 public:
  explicit ReferenceQueue(std::uint64_t seed) : rng_(seed) {}

  void random_op() {
    const std::int64_t op = rng_.uniform_int(0, 99);
    if (op < 35) {
      schedule(/*nest=*/true);
    } else if (op < 42) {
      schedule_after_zero();
    } else if (op < 60) {
      cancel_any();
    } else if (op < 75) {
      step();
    } else if (op < 90) {
      run_until(s_.now() + rng_.uniform_int(0, 6));
    } else {
      EXPECT_EQ(s_.next_time(),
                model_.empty() ? kTimeNever : std::get<0>(*model_.begin()));
    }
    check_counters();
  }

  void drain() {
    const std::uint64_t before = fired_;
    const std::size_t ran = s_.run();
    EXPECT_EQ(ran, fired_ - before);
    EXPECT_TRUE(model_.empty());
    check_counters();
  }

  std::uint64_t fired() const { return fired_; }
  bool grew_mid_fire() const { return grew_mid_fire_; }

 private:
  using Key = std::tuple<Time, std::uint64_t, std::uint64_t>;
  struct Event {
    Scheduler::Handle handle;
    Key key;
  };

  std::uint64_t random_prio() {
    static constexpr std::uint64_t kPrios[] = {0, 1, 2};
    return rng_.bernoulli(0.5)
               ? Scheduler::kDefaultPrio
               : kPrios[rng_.uniform_int(0, 2)];
  }

  void add(Time when, std::uint64_t prio, bool nest, bool explicit_prio) {
    const std::size_t id = events_.size();
    // The closure reads its captures again after fire(), which may have
    // grown the slot table: that is only safe if the kernel moved the
    // callback out of its slot before running it.
    auto cb = [this, id, nest] {
      fire(id, nest);
      EXPECT_EQ(std::get<0>(events_[id].key), model_last_fired_);
    };
    const Scheduler::Handle h =
        explicit_prio ? s_.at(when, prio, cb) : s_.at(when, cb);
    const Key key{when, prio, ++model_seq_};
    events_.push_back(Event{h, key});
    model_.insert(key);
    peak_ = std::max(peak_, model_.size());
  }

  void schedule(bool nest) {
    const Time when = s_.now() + rng_.uniform_int(0, 3);
    const std::uint64_t prio = random_prio();
    add(when, prio, nest, prio != Scheduler::kDefaultPrio ||
                              rng_.bernoulli(0.5));
  }

  void schedule_after_zero() {
    const std::size_t id = events_.size();
    const Scheduler::Handle h =
        s_.after(0, [this, id] { fire(id, /*nest=*/false); });
    const Key key{s_.now(), Scheduler::kDefaultPrio, ++model_seq_};
    events_.push_back(Event{h, key});
    model_.insert(key);
    peak_ = std::max(peak_, model_.size());
  }

  /// Cancels a random live, fired, cancelled or stale handle — or the
  /// invalid one — and compares the result with the model's.
  void cancel_any() {
    if (events_.empty() || rng_.bernoulli(0.05)) {
      EXPECT_FALSE(s_.cancel(Scheduler::Handle{}));
      return;
    }
    const auto i = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(events_.size()) - 1));
    const bool expected = model_.erase(events_[i].key) > 0;
    EXPECT_EQ(s_.cancel(events_[i].handle), expected) << "event " << i;
  }

  void step() {
    const bool expected = !model_.empty();
    const std::uint64_t before = fired_;
    EXPECT_EQ(s_.step(), expected);
    EXPECT_EQ(fired_ - before, expected ? 1u : 0u);
  }

  void run_until(Time deadline) {
    deadline_ = deadline;
    const std::uint64_t before = fired_;
    const std::size_t ran = s_.run_until(deadline);
    deadline_ = kTimeNever;
    EXPECT_EQ(ran, fired_ - before);
    EXPECT_TRUE(model_.empty() || std::get<0>(*model_.begin()) > deadline);
    model_now_ = deadline;
  }

  /// Body of every scheduled callback: the model's earliest event must be
  /// this one.  Nesting callbacks schedule (sometimes a burst large enough
  /// to grow the slot table) and cancel.
  void fire(std::size_t id, bool nest) {
    ASSERT_FALSE(model_.empty()) << "event " << id << " fired unexpectedly";
    const Key expected = *model_.begin();
    EXPECT_EQ(expected, events_[id].key) << "event " << id << " fired early";
    EXPECT_LE(std::get<0>(expected), deadline_);
    model_.erase(model_.begin());
    model_now_ = std::get<0>(expected);
    model_last_fired_ = model_now_;
    ++fired_;
    check_counters();
    if (nest && rng_.bernoulli(0.4)) {
      const std::size_t peak_before = peak_;
      const std::int64_t burst =
          model_.size() < 200 && rng_.bernoulli(0.1) ? 40 : 2;
      for (std::int64_t i = rng_.uniform_int(0, burst); i > 0; --i) {
        schedule(/*nest=*/rng_.bernoulli(0.5));
      }
      if (rng_.bernoulli(0.5)) cancel_any();
      if (rng_.bernoulli(0.2)) {
        EXPECT_FALSE(s_.cancel(events_[id].handle)) << "cancelled itself";
      }
      // The slot table holds peak_pending() slots, so a new peak means
      // it grew while this callback ran.
      grew_mid_fire_ = grew_mid_fire_ || peak_ > peak_before;
      check_counters();
    }
  }

  void check_counters() {
    EXPECT_EQ(s_.pending(), model_.size());
    EXPECT_EQ(s_.empty(), model_.empty());
    EXPECT_EQ(s_.peak_pending(), peak_);
    EXPECT_EQ(s_.fired_count(), fired_);
    EXPECT_EQ(s_.now(), model_now_);
    EXPECT_EQ(s_.last_fired(), model_last_fired_);
  }

  util::Rng rng_;
  Scheduler s_;
  std::set<Key> model_;
  std::vector<Event> events_;
  std::uint64_t model_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::size_t peak_ = 0;
  Time model_now_ = 0;
  Time model_last_fired_ = 0;
  Time deadline_ = kTimeNever;
  bool grew_mid_fire_ = false;
};

TEST(Scheduler, MatchesReferenceQueueUnderRandomOps) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    ReferenceQueue q(seed);
    for (int op = 0; op < 2500 && !HasFailure(); ++op) q.random_op();
    q.drain();
    EXPECT_GT(q.fired(), 1000u);
    EXPECT_TRUE(q.grew_mid_fire());
    if (HasFailure()) return;
  }
}

/// A self-rescheduling event whose closure fills the inline storage
/// exactly, like a delivery's `[this, net::Envelope]`.
struct Reschedule {
  Scheduler* s;
  util::Rng* rng;
  std::array<std::uint64_t, 5> payload;
  void operator()() const {
    s->after(rng->uniform_int(1, 1000), Reschedule{s, rng, payload});
  }
};
static_assert(sizeof(Reschedule) == Scheduler::Callback::kInlineBytes);
static_assert(Scheduler::Callback::kStoredInline<Reschedule>);

TEST(Scheduler, SteadyStateSchedulingDoesNotAllocate) {
  Scheduler s;
  util::Rng rng(7);
  std::vector<Scheduler::Handle> handles;
  for (int i = 0; i < 300; ++i) {
    handles.push_back(s.after(rng.uniform_int(1, 1000),
                              Reschedule{&s, &rng, {}}));
  }
  auto churn = [&](int events) {
    for (int i = 0; i < events; ++i) {
      s.step();
      // Now and then cancel a pending event and put a fresh one in its
      // place, so the cancel path is covered too.
      if (i % 20 == 0) {
        auto& h = handles[static_cast<std::size_t>(i / 20) % handles.size()];
        if (s.cancel(h)) {
          h = s.after(rng.uniform_int(1, 1000), Reschedule{&s, &rng, {}});
        }
      }
    }
  };
  churn(2000);  // warm-up: the heap and slot table reach their size
  const std::size_t before = g_allocations;
  churn(10000);
  const std::size_t allocated = g_allocations - before;
  EXPECT_EQ(allocated, 0u);
  EXPECT_EQ(s.pending(), 300u);
  EXPECT_EQ(s.fired_count(), 12000u);
}

/// Counts how many live (not moved-from) instances were destroyed.
struct DeathCounter {
  explicit DeathCounter(int* deaths) : deaths(deaths) {}
  DeathCounter(DeathCounter&& other) noexcept
      : deaths(std::exchange(other.deaths, nullptr)) {}
  DeathCounter(const DeathCounter&) = delete;
  DeathCounter& operator=(const DeathCounter&) = delete;
  DeathCounter& operator=(DeathCounter&&) = delete;
  ~DeathCounter() {
    if (deaths != nullptr) ++*deaths;
  }
  int* deaths;
};

/// A move-only closure of `Pad` extra bytes that counts its calls and the
/// destruction of its captures.
template <std::size_t Pad>
auto counted_closure(int* fires, int* deaths) {
  return [fires, tracker = DeathCounter(deaths),
          pad = std::array<unsigned char, Pad>{}]() {
    ++*fires;
    EXPECT_EQ(pad[0], 0);
  };
}

template <std::size_t Pad>
void check_destroyed_once() {
  // Fired: one call, one destruction — also across slot-table growth.
  {
    constexpr int kEvents = 100;
    int fires = 0;
    int deaths = 0;
    Scheduler s;
    for (int i = 0; i < kEvents; ++i) {
      s.at(i, counted_closure<Pad>(&fires, &deaths));
    }
    EXPECT_EQ(deaths, 0);
    s.run();
    EXPECT_EQ(fires, kEvents);
    EXPECT_EQ(deaths, kEvents);
  }
  // Cancelled: never called, destroyed at cancellation.
  {
    int fires = 0;
    int deaths = 0;
    Scheduler s;
    auto h = s.at(5, counted_closure<Pad>(&fires, &deaths));
    EXPECT_TRUE(s.cancel(h));
    EXPECT_EQ(deaths, 1);
    s.run();
    EXPECT_EQ(fires, 0);
    EXPECT_EQ(deaths, 1);
  }
  // Still pending when the scheduler dies.
  int fires = 0;
  int deaths = 0;
  {
    Scheduler s;
    s.at(5, counted_closure<Pad>(&fires, &deaths));
  }
  EXPECT_EQ(fires, 0);
  EXPECT_EQ(deaths, 1);
}

TEST(Scheduler, OversizedClosureFiresAndIsDestroyedOnce) {
  static_assert(!Scheduler::Callback::kStoredInline<
                decltype(counted_closure<64>(nullptr, nullptr))>);
  static_assert(Scheduler::Callback::kStoredInline<
                decltype(counted_closure<8>(nullptr, nullptr))>);
  check_destroyed_once<64>();
  check_destroyed_once<8>();
}

TEST(TimeHelpers, Conversions) {
  EXPECT_EQ(microseconds(1), 1000);
  EXPECT_EQ(milliseconds(1), 1000000);
  EXPECT_EQ(seconds(1), 1000000000);
  EXPECT_DOUBLE_EQ(to_micros(microseconds(5)), 5.0);
  EXPECT_DOUBLE_EQ(to_millis(milliseconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2)), 2.0);
}

}  // namespace
}  // namespace ocsp::sim
