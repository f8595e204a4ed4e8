// Unit tests for the compact Time Warp engine used in the section 5
// comparison: optimistic processing, stragglers, rollback, antimessages.
#include <gtest/gtest.h>

#include "baseline/timewarp.h"

namespace ocsp::baseline::tw {
namespace {

using csp::Env;
using csp::Value;

TEST(TimeWarp, ProcessesEventsInTimestampOrder) {
  Engine eng(0);
  std::vector<sim::Time> seen;
  const LpId lp = eng.add_lp("A", [&](Env&, const Event& e) {
    seen.push_back(e.recv_time);
    return std::vector<Emit>{};
  });
  eng.inject(lp, 30, "c", Value());
  eng.inject(lp, 10, "a", Value());
  eng.inject(lp, 20, "b", Value());
  ASSERT_TRUE(eng.run());
  EXPECT_EQ(seen, (std::vector<sim::Time>{10, 20, 30}));
  EXPECT_EQ(eng.stats().rollbacks, 0u);
}

TEST(TimeWarp, HandlerEmitsReachDestination) {
  Engine eng(0);
  int received = 0;
  const LpId b = eng.add_lp("B", [&](Env&, const Event& e) {
    if (e.op == "ping") ++received;
    return std::vector<Emit>{};
  });
  const LpId a = eng.add_lp("A", [&](Env&, const Event&) {
    return std::vector<Emit>{Emit{b, 5, "ping", Value(1)}};
  });
  eng.inject(a, 1, "go", Value());
  ASSERT_TRUE(eng.run());
  EXPECT_EQ(received, 1);
  EXPECT_EQ(eng.stats().events_processed, 2u);
}

TEST(TimeWarp, StragglerForcesRollback) {
  // LP B processes a late-timestamped local event immediately; a message
  // from A with an earlier receive time then arrives (delayed by wall
  // rounds) and must roll B back.
  Engine eng(3);  // messages become visible 3 rounds after sending
  std::vector<std::pair<std::string, sim::Time>> processed;
  LpId b = -1;
  b = eng.add_lp("B", [&](Env& state, const Event& e) {
    processed.emplace_back(e.op, e.recv_time);
    state.set("last", Value(e.recv_time));
    return std::vector<Emit>{};
  });
  const LpId a = eng.add_lp("A", [&](Env&, const Event&) {
    return std::vector<Emit>{Emit{b, 1, "early", Value()}};  // recv_time 6
  });
  eng.inject(b, 100, "late", Value());
  eng.inject(a, 5, "go", Value());
  ASSERT_TRUE(eng.run());
  EXPECT_GE(eng.stats().rollbacks, 1u);
  // Final state must reflect timestamp order: "late"(100) processed last.
  EXPECT_EQ(eng.state_of(b).get("last"), Value(sim::Time{100}));
  // "early" (recv 6) must have been (re)processed before the final "late".
  ASSERT_GE(processed.size(), 3u);  // late, early (straggler), late again
  EXPECT_EQ(processed.back().second, 100);
}

TEST(TimeWarp, RollbackRestoresState) {
  Engine eng(3);
  LpId b = -1;
  b = eng.add_lp("B", [&](Env& state, const Event& e) {
    // Order-sensitive state: concatenate op names.
    const std::string prev =
        state.has("s") ? state.get("s").as_string() : std::string();
    state.set("s", Value(prev + e.op.substr(0, 1)));
    return std::vector<Emit>{};
  });
  const LpId a = eng.add_lp("A", [&](Env&, const Event&) {
    return std::vector<Emit>{Emit{b, 1, "x", Value()}};  // recv 11
  });
  eng.inject(b, 50, "y", Value());
  eng.inject(a, 10, "go", Value());
  ASSERT_TRUE(eng.run());
  // Timestamp order is x(11) then y(50) regardless of arrival order.
  EXPECT_EQ(eng.state_of(b).get("s"), Value("xy"));
}

TEST(TimeWarp, AntimessagesCancelInducedWork) {
  // A's rolled-back event had emitted to C; the antimessage must undo C.
  Engine eng(4);
  LpId c = -1;
  int c_count = 0;
  c = eng.add_lp("C", [&](Env& state, const Event&) {
    ++c_count;
    state.set("n", Value(state.get_or("n", Value(0)).as_int() + 1));
    return std::vector<Emit>{};
  });
  LpId b = -1;
  b = eng.add_lp("B", [&](Env&, const Event& e) {
    // Forward everything to C.
    return std::vector<Emit>{Emit{c, 1, "fwd" + e.op, Value()}};
  });
  const LpId a = eng.add_lp("A", [&](Env&, const Event&) {
    return std::vector<Emit>{Emit{b, 1, "early", Value()}};
  });
  eng.inject(b, 100, "late", Value());
  eng.inject(a, 5, "go", Value());
  ASSERT_TRUE(eng.run());
  EXPECT_GE(eng.stats().antimessages_sent, 1u);
  // C processed: fwd-late (cancelled + re-sent after rollback) and
  // fwd-early; net effect is exactly two surviving events but possibly
  // more raw processed events.  Surviving = 2: the antimessage B's
  // rollback sent while a delivery batch was applied must reach C.
  EXPECT_GE(c_count, 2);
  EXPECT_EQ(eng.state_of(c).get("n"), Value(2));
  // The re-sent fwd-late lands at recv time 101 = late(100) + 1.
  EXPECT_EQ(eng.lvt_of(c), 101);
}

TEST(TimeWarp, SharedServerTotalOrderCausesRollbacks) {
  // The section 5 workload: two clients with interleaved virtual times
  // streaming into one server; skewed wall delays make one client's events
  // arrive late, forcing the server to roll back — even though the clients
  // are causally unrelated.
  Engine eng(1);
  LpId server = -1;
  server = eng.add_lp("S", [&](Env& state, const Event&) {
    const auto n = state.get_or("n", Value(0)).as_int();
    state.set("n", Value(n + 1));
    return std::vector<Emit>{};
  });
  auto client = [&](int stride_offset) {
    return [&eng, server, stride_offset](Env& state,
                                         const Event&) {
      std::vector<Emit> out;
      out.push_back(Emit{server, 1, "req", Value(stride_offset)});
      const auto i = state.get_or("i", Value(0)).as_int();
      state.set("i", Value(i + 1));
      return out;
    };
  };
  const LpId c0 = eng.add_lp("C0", client(0));
  const LpId c1 = eng.add_lp("C1", client(1));
  // C1's messages crawl: 6 rounds of wall delay.
  eng.set_wall_delay(c1, server, 6);
  for (int i = 0; i < 6; ++i) {
    eng.inject(c0, 10 + 20 * i, "tick", Value());
    eng.inject(c1, 20 + 20 * i, "tick", Value());
  }
  ASSERT_TRUE(eng.run());
  EXPECT_GT(eng.stats().rollbacks, 0u);
  EXPECT_EQ(eng.state_of(server).get("n"), Value(12));
}

TEST(TimeWarp, GvtAdvances) {
  Engine eng(0);
  const LpId lp = eng.add_lp("A", [](Env&, const Event&) {
    return std::vector<Emit>{};
  });
  eng.inject(lp, 10, "x", Value());
  EXPECT_EQ(eng.gvt(), 10);
  eng.run();
  EXPECT_EQ(eng.gvt(), sim::kTimeNever);  // drained
}

}  // namespace
}  // namespace ocsp::baseline::tw
