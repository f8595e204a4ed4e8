// Unit tests for the simulated network: latency models, FIFO vs reordering
// links, bandwidth serialization, loss, and per-pair overrides.
#include <gtest/gtest.h>

#include <vector>

#include "net/network.h"
#include "sim/scheduler.h"

namespace ocsp::net {
namespace {

class TestMessage final : public Message {
 public:
  explicit TestMessage(int id, std::size_t size = 64) : id_(id), size_(size) {}
  std::string kind() const override { return "TEST"; }
  std::size_t wire_size() const override { return size_; }
  int id() const { return id_; }

 private:
  int id_;
  std::size_t size_;
};

struct Fixture {
  sim::Scheduler sched;
  Network net{sched, util::Rng(1)};
  std::vector<std::pair<ProcessId, int>> received;
  std::vector<sim::Time> times;

  void listen(ProcessId id) {
    net.register_endpoint(id, [this, id](const Envelope& env) {
      received.emplace_back(
          id, static_cast<const TestMessage&>(*env.payload).id());
      times.push_back(sched.now());
    });
  }
};

TEST(Network, FixedLatencyDelivery) {
  Fixture f;
  f.listen(1);
  LinkConfig link;
  link.latency = fixed_latency(100);
  f.net.set_default_link(link);
  f.net.send(0, 1, std::make_shared<TestMessage>(7));
  f.sched.run();
  ASSERT_EQ(f.received.size(), 1u);
  EXPECT_EQ(f.received[0].second, 7);
  EXPECT_EQ(f.times[0], 100);
}

TEST(Network, FifoPreservesSendOrderUnderJitter) {
  Fixture f;
  f.listen(1);
  LinkConfig link;
  link.latency = uniform_latency(10, 1000);
  link.fifo = true;
  f.net.set_default_link(link);
  for (int i = 0; i < 20; ++i) {
    f.net.send(0, 1, std::make_shared<TestMessage>(i));
  }
  f.sched.run();
  ASSERT_EQ(f.received.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(f.received[size_t(i)].second, i);
}

TEST(Network, NonFifoCanReorder) {
  Fixture f;
  f.listen(1);
  LinkConfig link;
  link.latency = uniform_latency(10, 1000);
  link.fifo = false;
  f.net.set_default_link(link);
  for (int i = 0; i < 50; ++i) {
    f.net.send(0, 1, std::make_shared<TestMessage>(i));
  }
  f.sched.run();
  ASSERT_EQ(f.received.size(), 50u);
  bool reordered = false;
  for (std::size_t i = 1; i < f.received.size(); ++i) {
    if (f.received[i].second < f.received[i - 1].second) reordered = true;
  }
  EXPECT_TRUE(reordered);
}

TEST(Network, PerPairLinkOverride) {
  Fixture f;
  f.listen(1);
  f.listen(2);
  LinkConfig fast;
  fast.latency = fixed_latency(10);
  f.net.set_default_link(fast);
  LinkConfig slow;
  slow.latency = fixed_latency(500);
  f.net.set_link(0, 2, slow);
  f.net.send(0, 2, std::make_shared<TestMessage>(1));  // slow pair
  f.net.send(0, 1, std::make_shared<TestMessage>(2));  // default
  f.sched.run();
  ASSERT_EQ(f.received.size(), 2u);
  EXPECT_EQ(f.received[0].second, 2);  // fast one first
  EXPECT_EQ(f.received[1].second, 1);
}

TEST(Network, BandwidthAddsSerializationDelay) {
  Fixture f;
  f.listen(1);
  LinkConfig link;
  link.latency = fixed_latency(0);
  link.bandwidth_bytes_per_sec = 1000;  // 1 KB/s: 1 byte per ms
  f.net.set_default_link(link);
  f.net.send(0, 1, std::make_shared<TestMessage>(1, /*size=*/100));
  f.sched.run();
  ASSERT_EQ(f.times.size(), 1u);
  EXPECT_EQ(f.times[0], sim::milliseconds(100));
}

TEST(Network, DropProbabilityLosesMessages) {
  Fixture f;
  f.listen(1);
  LinkConfig link;
  link.latency = fixed_latency(1);
  link.drop_probability = 0.5;
  f.net.set_default_link(link);
  for (int i = 0; i < 200; ++i) {
    f.net.send(0, 1, std::make_shared<TestMessage>(i));
  }
  f.sched.run();
  EXPECT_GT(f.net.stats().messages_dropped, 50u);
  EXPECT_LT(f.net.stats().messages_dropped, 150u);
  EXPECT_EQ(f.net.stats().messages_delivered + f.net.stats().messages_dropped,
            200u);
}

TEST(Network, DropFilterSparesUnmatchedMessages) {
  Fixture f;
  f.listen(1);
  LinkConfig link;
  link.latency = fixed_latency(1);
  link.drop_probability = 1.0;
  link.drop_filter = [](const Message& m) {
    return static_cast<const TestMessage&>(m).id() % 2 == 0;
  };
  f.net.set_default_link(link);
  for (int i = 0; i < 10; ++i) {
    f.net.send(0, 1, std::make_shared<TestMessage>(i));
  }
  f.sched.run();
  ASSERT_EQ(f.received.size(), 5u);
  for (const auto& [pid, id] : f.received) EXPECT_EQ(id % 2, 1);
}

TEST(Network, StatsCountBytes) {
  Fixture f;
  f.listen(1);
  f.net.send(0, 1, std::make_shared<TestMessage>(1, 100));
  f.net.send(0, 1, std::make_shared<TestMessage>(2, 28));
  f.sched.run();
  EXPECT_EQ(f.net.stats().messages_sent, 2u);
  EXPECT_EQ(f.net.stats().bytes_sent, 128u);
}

TEST(Network, MsgIdsAreUnique) {
  Fixture f;
  f.listen(1);
  const MsgId a = f.net.send(0, 1, std::make_shared<TestMessage>(1));
  const MsgId b = f.net.send(0, 1, std::make_shared<TestMessage>(2));
  EXPECT_NE(a, b);
  f.sched.run();
}

TEST(Network, TracerSeesDeliveries) {
  Fixture f;
  f.listen(1);
  int traced = 0;
  f.net.set_tracer([&](const Envelope&) { ++traced; });
  f.net.send(0, 1, std::make_shared<TestMessage>(1));
  f.sched.run();
  EXPECT_EQ(traced, 1);
}

TEST(LatencyModels, FixedIsConstant) {
  util::Rng rng(1);
  FixedLatency m(42);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(m.sample(rng), 42);
}

TEST(LatencyModels, UniformStaysInRange) {
  util::Rng rng(2);
  UniformLatency m(10, 20);
  for (int i = 0; i < 1000; ++i) {
    const auto v = m.sample(rng);
    EXPECT_GE(v, 10);
    EXPECT_LE(v, 20);
  }
}

TEST(LatencyModels, MinDelayIsTheDistributionFloor) {
  EXPECT_EQ(fixed_latency(42)->min_delay(), 42);
  EXPECT_EQ(uniform_latency(10, 20)->min_delay(), 10);
  EXPECT_EQ(exponential_latency(100, 50)->min_delay(), 100);
}

TEST(PerLinkStreams, HelpersArePureFunctionsOfIdentity) {
  // Seed base derives from a *copy* of the stream: the original is intact.
  util::Rng a(7);
  util::Rng b(7);
  const std::uint64_t base = Network::link_seed_base(a);
  EXPECT_EQ(base, Network::link_seed_base(a));
  EXPECT_EQ(a.next(), b.next());

  // Distinct ordered pairs get distinct streams; same pair, same stream.
  util::Rng s01 = Network::link_stream(base, 0, 1);
  util::Rng s01b = Network::link_stream(base, 0, 1);
  util::Rng s10 = Network::link_stream(base, 1, 0);
  EXPECT_EQ(s01.next(), s01b.next());
  EXPECT_NE(Network::link_stream(base, 0, 1).next(), s10.next());

  // Ids and priorities encode (src, dst, seq) uniquely and recoverably.
  const MsgId id = Network::link_msg_id(3, 4, 17);
  EXPECT_EQ(id & 0xffffffff, 17u);
  EXPECT_NE(id, Network::link_msg_id(4, 3, 17));
  EXPECT_NE(Network::link_prio(3, 4, 17), Network::link_prio(3, 4, 18));
  EXPECT_LT(Network::link_prio(3, 4, 17), sim::Scheduler::kDefaultPrio);
}

TEST(PerLinkStreams, MinLinkDelayCoversOverrides) {
  sim::Scheduler sched;
  Network net(sched, util::Rng(1));
  LinkConfig fast;
  fast.latency = fixed_latency(100);
  net.set_default_link(fast);
  EXPECT_EQ(net.min_link_delay(), 100);
  LinkConfig faster;
  faster.latency = uniform_latency(40, 80);
  net.set_link(2, 3, faster);
  EXPECT_EQ(net.min_link_delay(), 40);
}

TEST(LatencyModels, ExponentialAboveBase) {
  util::Rng rng(3);
  ExponentialLatency m(100, 50);
  double sum = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto v = m.sample(rng);
    EXPECT_GE(v, 100);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / 5000.0, 150.0, 5.0);
}

TEST(NetworkDeathTest, ProcessIdBeyondTheLinkTableFailsACheck) {
  // Per-link message ids encode 16 bits of each endpoint: a larger id must
  // stop the run, not grow the [src][dst] table.
  Fixture f;
  EXPECT_DEATH(f.net.send(kMaxProcesses, 0, std::make_shared<TestMessage>(1)),
               "process id out of range");
  EXPECT_DEATH(f.net.send(0, kMaxProcesses, std::make_shared<TestMessage>(1)),
               "process id out of range");
  EXPECT_DEATH(
      f.net.register_endpoint(kMaxProcesses, [](const Envelope&) {}),
      "process id out of range");
}

}  // namespace
}  // namespace ocsp::net
