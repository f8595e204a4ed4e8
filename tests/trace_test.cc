// Unit tests for the trace layer: committed-trace comparison (the Theorem 1
// oracle) and vector clocks.
#include <gtest/gtest.h>

#include "trace/events.h"
#include "trace/vector_clock.h"

namespace ocsp::trace {
namespace {

ObservableEvent out_event(ProcessId p, csp::Value v) {
  ObservableEvent e;
  e.kind = ObservableEvent::Kind::kExternalOutput;
  e.process = p;
  e.data = std::move(v);
  return e;
}

ObservableEvent send_event(ProcessId p, ProcessId peer, std::string op,
                           csp::Value v) {
  ObservableEvent e;
  e.kind = ObservableEvent::Kind::kSend;
  e.process = p;
  e.peer = peer;
  e.op = std::move(op);
  e.data = std::move(v);
  return e;
}

TEST(CommittedTrace, AppendsPerProcess) {
  CommittedTrace t;
  t.append(out_event(0, csp::Value(1)));
  t.append(out_event(1, csp::Value(2)));
  t.append(out_event(0, csp::Value(3)));
  EXPECT_EQ(t.for_process(0).size(), 2u);
  EXPECT_EQ(t.for_process(1).size(), 1u);
  EXPECT_EQ(t.for_process(9).size(), 0u);
  EXPECT_EQ(t.total_events(), 3u);
  EXPECT_EQ(t.processes(), (std::vector<ProcessId>{0, 1}));
}

TEST(CompareTraces, EqualTracesMatch) {
  CommittedTrace a, b;
  for (auto* t : {&a, &b}) {
    t->append(send_event(0, 1, "Op", csp::Value(5)));
    t->append(out_event(1, csp::Value("x")));
  }
  std::string why;
  EXPECT_TRUE(compare_traces(a, b, &why)) << why;
}

TEST(CompareTraces, DataDifferenceDetected) {
  CommittedTrace a, b;
  a.append(out_event(0, csp::Value(1)));
  b.append(out_event(0, csp::Value(2)));
  std::string why;
  EXPECT_FALSE(compare_traces(a, b, &why));
  EXPECT_NE(why.find("event 0 differs"), std::string::npos);
}

TEST(CompareTraces, OrderDifferenceDetected) {
  CommittedTrace a, b;
  a.append(out_event(0, csp::Value(1)));
  a.append(out_event(0, csp::Value(2)));
  b.append(out_event(0, csp::Value(2)));
  b.append(out_event(0, csp::Value(1)));
  EXPECT_FALSE(compare_traces(a, b));
}

TEST(CompareTraces, CountDifferenceDetected) {
  CommittedTrace a, b;
  a.append(out_event(0, csp::Value(1)));
  std::string why;
  EXPECT_FALSE(compare_traces(a, b, &why));
}

TEST(CompareTraces, OpAndPeerMatter) {
  CommittedTrace a, b;
  a.append(send_event(0, 1, "A", csp::Value(1)));
  b.append(send_event(0, 2, "A", csp::Value(1)));
  EXPECT_FALSE(compare_traces(a, b));
  CommittedTrace c, d;
  c.append(send_event(0, 1, "A", csp::Value(1)));
  d.append(send_event(0, 1, "B", csp::Value(1)));
  EXPECT_FALSE(compare_traces(c, d));
}

TEST(VectorClock, TickAndGet) {
  VectorClock c;
  EXPECT_EQ(c.get(0), 0u);
  c.tick(0);
  c.tick(0);
  c.tick(1);
  EXPECT_EQ(c.get(0), 2u);
  EXPECT_EQ(c.get(1), 1u);
}

TEST(VectorClock, HappensBefore) {
  VectorClock a, b;
  a.tick(0);
  b = a;
  b.tick(1);
  EXPECT_TRUE(VectorClock::happens_before(a, b));
  EXPECT_FALSE(VectorClock::happens_before(b, a));
  EXPECT_FALSE(VectorClock::happens_before(a, a));
}

TEST(VectorClock, ConcurrentClocks) {
  VectorClock a, b;
  a.tick(0);
  b.tick(1);
  EXPECT_TRUE(VectorClock::concurrent(a, b));
  EXPECT_FALSE(VectorClock::concurrent(a, a));
}

TEST(VectorClock, MergeIsPointwiseMax) {
  VectorClock a, b;
  a.tick(0);
  a.tick(0);
  b.tick(0);
  b.tick(1);
  a.merge(b);
  EXPECT_EQ(a.get(0), 2u);
  EXPECT_EQ(a.get(1), 1u);
}

TEST(VectorClock, MessagePassingScenario) {
  // P0 does e1, sends to P1; P1 receives (merge+tick), does e2.
  VectorClock p0, p1;
  p0.tick(0);  // e1
  VectorClock msg = p0;
  p1.merge(msg);
  p1.tick(1);  // receive
  p1.tick(1);  // e2
  EXPECT_TRUE(VectorClock::happens_before(p0, p1));
}

}  // namespace
}  // namespace ocsp::trace
