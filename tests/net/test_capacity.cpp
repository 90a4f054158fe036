// Per-link token-bucket capacity model (workload saturation engine):
// steady traffic below the rate is untouched, bursts beyond the bucket
// are delayed by their queue position, and overflow past the bounded
// queue is dropped and counted.

#include <gtest/gtest.h>

#include <vector>

#include "sdcm/net/network.hpp"

namespace sdcm::net {
namespace {

using sim::microseconds;
using sim::seconds;

struct CapacityFixture : ::testing::Test {
  sim::Simulator simulator{777};
  Network network{simulator};
  std::vector<sim::SimTime> arrivals1, arrivals2;

  void SetUp() override {
    network.attach(1, [](const Message&) {});
    network.attach(2, [this](const Message&) {
      arrivals2.push_back(simulator.now());
    });
    network.attach(3, [](const Message&) {});
  }

  static Message msg(NodeId src, NodeId dst) {
    Message m;
    m.src = src;
    m.dst = dst;
    m.type = sdcm::net::MessageType::intern("t");
    return m;
  }
};

TEST_F(CapacityFixture, DisabledByDefaultAndCountsStayZero) {
  EXPECT_FALSE(network.capacity_enabled());
  for (int i = 0; i < 50; ++i) network.send(msg(1, 2));
  simulator.run_until(seconds(1));
  EXPECT_EQ(arrivals2.size(), 50u);
  const sim::KernelStats& k = simulator.kernel_stats();
  EXPECT_EQ(k.capacity_dropped, 0u);
  EXPECT_EQ(k.capacity_delayed, 0u);
  EXPECT_EQ(k.capacity_queue_peak, 0u);
}

TEST_F(CapacityFixture, BurstBeyondBucketIsDelayedByQueuePosition) {
  // 1000 msgs/s, bucket of 2, deep queue: a burst of 10 admits 2
  // immediately and queues 8, the deepest 8 ticks (8 ms) behind.
  network.set_link_capacity(/*rate_hz=*/1000.0, /*burst=*/2.0,
                            /*queue_limit=*/100);
  ASSERT_TRUE(network.capacity_enabled());
  for (int i = 0; i < 10; ++i) network.send(msg(1, 2));
  simulator.run_until(seconds(1));
  ASSERT_EQ(arrivals2.size(), 10u);
  const sim::KernelStats& k = simulator.kernel_stats();
  EXPECT_EQ(k.capacity_dropped, 0u);
  EXPECT_EQ(k.capacity_delayed, 8u);
  EXPECT_EQ(k.capacity_queue_peak, 8u);
  // The two in-bucket sends see only the Table 3 transit delay; the
  // last queued one waits its full 8-slot drain first.
  EXPECT_LE(arrivals2[1], microseconds(100));
  EXPECT_GE(arrivals2.back(), microseconds(8000));
}

TEST_F(CapacityFixture, OverflowBeyondQueueLimitDrops) {
  network.set_link_capacity(/*rate_hz=*/1000.0, /*burst=*/1.0,
                            /*queue_limit=*/2);
  for (int i = 0; i < 10; ++i) network.send(msg(1, 2));
  simulator.run_until(seconds(1));
  // 1 through the bucket, 2 queued, 7 dropped.
  EXPECT_EQ(arrivals2.size(), 3u);
  const sim::KernelStats& k = simulator.kernel_stats();
  EXPECT_EQ(k.capacity_delayed, 2u);
  EXPECT_EQ(k.capacity_dropped, 7u);
  EXPECT_EQ(k.capacity_queue_peak, 2u);
  // Capacity drops kill the copy before it leaves the source, so they
  // land in the tx-unit drop counter.
  EXPECT_GE(k.udp_copies_dropped_tx, 7u);
  EXPECT_GE(k.udp_copies_dropped_tx + k.udp_deliveries_dropped_rx, 7u);
}

TEST_F(CapacityFixture, BucketsArePerSourceLink) {
  network.set_link_capacity(/*rate_hz=*/1000.0, /*burst=*/1.0,
                            /*queue_limit=*/0);
  for (int i = 0; i < 5; ++i) network.send(msg(1, 2));  // drains link 1
  for (int i = 0; i < 1; ++i) network.send(msg(3, 2));  // link 3 untouched
  simulator.run_until(seconds(1));
  // 1 admitted from node 1 (queue_limit 0 drops the rest), 1 from node 3.
  EXPECT_EQ(arrivals2.size(), 2u);
  EXPECT_EQ(simulator.kernel_stats().capacity_dropped, 4u);
}

TEST_F(CapacityFixture, SteadyTrafficUnderTheRateIsNeverShaped) {
  network.set_link_capacity(/*rate_hz=*/1000.0, /*burst=*/1.0,
                            /*queue_limit=*/0);
  // One message every 10 ms against a 1 ms refill period.
  for (int i = 0; i < 20; ++i) {
    simulator.schedule_at(sim::milliseconds(10) * i,
                          [this] { network.send(msg(1, 2)); });
  }
  simulator.run_until(seconds(1));
  EXPECT_EQ(arrivals2.size(), 20u);
  EXPECT_EQ(simulator.kernel_stats().capacity_delayed, 0u);
  EXPECT_EQ(simulator.kernel_stats().capacity_dropped, 0u);
}

TEST_F(CapacityFixture, MulticastShapesEveryWireCopy) {
  network.set_link_capacity(/*rate_hz=*/1000.0, /*burst=*/2.0,
                            /*queue_limit=*/0);
  Message m = msg(1, sim::kNoNode);
  network.multicast(m, /*redundant_copies=*/5);
  simulator.run_until(seconds(1));
  // Each copy fans out to both other ports, but admission is charged
  // per copy at the source: 2 admitted, 3 dropped.
  EXPECT_EQ(arrivals2.size(), 2u);
  EXPECT_EQ(simulator.kernel_stats().capacity_dropped, 3u);
}

}  // namespace
}  // namespace sdcm::net
