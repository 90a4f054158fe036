#include "sdcm/net/network.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace sdcm::net {
namespace {

using sim::seconds;

struct NetworkFixture : ::testing::Test {
  sim::Simulator simulator{12345};
  Network network{simulator};
  std::vector<Message> inbox1, inbox2, inbox3;

  void SetUp() override {
    network.attach(1, [this](const Message& m) { inbox1.push_back(m); });
    network.attach(2, [this](const Message& m) { inbox2.push_back(m); });
    network.attach(3, [this](const Message& m) { inbox3.push_back(m); });
  }

  static Message msg(NodeId src, NodeId dst, std::string_view type,
                     MessageClass klass = MessageClass::kControl) {
    Message m;
    m.src = src;
    m.dst = dst;
    m.type = MessageType::intern(type);
    m.klass = klass;
    return m;
  }
};

TEST_F(NetworkFixture, UnicastDelivers) {
  network.send(msg(1, 2, "hello"));
  simulator.run_until(seconds(1));
  ASSERT_EQ(inbox2.size(), 1u);
  EXPECT_EQ(inbox2[0].type_name(), "hello");
  EXPECT_EQ(inbox2[0].src, 1u);
  EXPECT_TRUE(inbox1.empty());
  EXPECT_TRUE(inbox3.empty());
}

TEST_F(NetworkFixture, DelayWithinTableThreeBounds) {
  // Table 3: transmission delay 10 us - 100 us.
  for (int i = 0; i < 200; ++i) {
    sim::Simulator s(static_cast<std::uint64_t>(i));
    Network n(s);
    sim::SimTime arrival = -1;
    n.attach(1, [](const Message&) {});
    n.attach(2, [&](const Message&) { arrival = s.now(); });
    Message m;
    m.src = 1;
    m.dst = 2;
    m.type = sdcm::net::MessageType::intern("t");
    n.send(m);
    s.run_until(seconds(1));
    ASSERT_GE(arrival, sim::microseconds(10));
    ASSERT_LE(arrival, sim::microseconds(100));
  }
}

TEST_F(NetworkFixture, TransmitterDownLosesMessageSilently) {
  network.interface(1).set_tx(false);
  network.send(msg(1, 2, "lost"));
  simulator.run_until(seconds(1));
  EXPECT_TRUE(inbox2.empty());
  EXPECT_EQ(network.counters().total(), 0u);
}

TEST_F(NetworkFixture, ReceiverDownAtArrivalLosesMessage) {
  network.interface(2).set_rx(false);
  network.send(msg(1, 2, "lost"));
  simulator.run_until(seconds(1));
  EXPECT_TRUE(inbox2.empty());
  // The message did reach the wire, so it is counted.
  EXPECT_EQ(network.counters().total(), 1u);
}

TEST_F(NetworkFixture, ReceiverFailingMidFlightLosesMessage) {
  // rx goes down after the send but before the (>=10 us) arrival.
  network.send(msg(1, 2, "in-flight"));
  simulator.schedule_in(sim::microseconds(1),
                        [&] { network.interface(2).set_rx(false); });
  simulator.run_until(seconds(1));
  EXPECT_TRUE(inbox2.empty());
}

TEST_F(NetworkFixture, MulticastReachesAllOthers) {
  network.multicast(msg(1, 0, "announce", MessageClass::kDiscovery));
  simulator.run_until(seconds(1));
  EXPECT_TRUE(inbox1.empty());  // not delivered to the source
  ASSERT_EQ(inbox2.size(), 1u);
  ASSERT_EQ(inbox3.size(), 1u);
  EXPECT_TRUE(inbox2[0].via_multicast);
}

TEST_F(NetworkFixture, MulticastRedundancyDeliversCopies) {
  // UPnP/Jini redundantly transmit every multicast 6 times (Table 3).
  network.multicast(msg(1, 0, "announce", MessageClass::kDiscovery), 6);
  simulator.run_until(seconds(1));
  EXPECT_EQ(inbox2.size(), 6u);
  EXPECT_EQ(inbox3.size(), 6u);
  // Wire copies counted once each, independent of receiver count.
  EXPECT_EQ(network.counters().of_type("announce"), 6u);
}

TEST_F(NetworkFixture, MulticastWithTxDownCountsNothing) {
  network.interface(1).set_tx(false);
  network.multicast(msg(1, 0, "announce"), 6);
  simulator.run_until(seconds(1));
  EXPECT_TRUE(inbox2.empty());
  EXPECT_EQ(network.counters().total(), 0u);
}

TEST_F(NetworkFixture, MulticastPartialReceiverFailure) {
  network.interface(2).set_rx(false);
  network.multicast(msg(1, 0, "announce"));
  simulator.run_until(seconds(1));
  EXPECT_TRUE(inbox2.empty());
  EXPECT_EQ(inbox3.size(), 1u);
}

/// Records the outcome the network computes for each wire copy: the
/// verdict a segment's completion carries back to its TCP connection.
struct OutcomeProbe : WireProbe {
  std::vector<bool> sent_tx_up;
  std::vector<bool> delivered;
  void on_send(const Message&, bool tx_up, sim::SimTime) override {
    sent_tx_up.push_back(tx_up);
  }
  void on_arrival(const Message&, bool rx_up, bool lost,
                  sim::SimTime) override {
    delivered.push_back(rx_up && !lost);
  }
};

TEST_F(NetworkFixture, TransmitReportsDeliveryToCaller) {
  OutcomeProbe probe;
  network.set_wire_probe(&probe);
  const bool left = network.transmit(msg(1, 2, "seg"), /*deliver=*/false);
  simulator.run_until(seconds(1));
  network.set_wire_probe(nullptr);
  EXPECT_TRUE(left);
  ASSERT_EQ(probe.delivered.size(), 1u);
  EXPECT_TRUE(probe.delivered[0]);
  EXPECT_TRUE(inbox2.empty());  // deliver=false bypasses the handler
}

TEST_F(NetworkFixture, TransmitReportsTxFailure) {
  network.interface(1).set_tx(false);
  OutcomeProbe probe;
  network.set_wire_probe(&probe);
  const bool left = network.transmit(msg(1, 2, "seg"), false);
  simulator.run_until(seconds(1));
  network.set_wire_probe(nullptr);
  EXPECT_FALSE(left);
  ASSERT_EQ(probe.sent_tx_up.size(), 1u);
  EXPECT_FALSE(probe.sent_tx_up[0]);
  EXPECT_TRUE(probe.delivered.empty());
}

TEST_F(NetworkFixture, DeliverLocalBypassesInterfaces) {
  network.interface(1).set_tx(false);
  network.interface(2).set_rx(false);
  network.deliver_local(msg(1, 2, "direct"));
  ASSERT_EQ(inbox2.size(), 1u);
  EXPECT_EQ(network.counters().total(), 0u);
}

TEST_F(NetworkFixture, DuplicateAttachThrows) {
  EXPECT_THROW(network.attach(1, [](const Message&) {}),
               std::invalid_argument);
}

TEST_F(NetworkFixture, ReservedIdThrows) {
  EXPECT_THROW(network.attach(sim::kNoNode, [](const Message&) {}),
               std::invalid_argument);
}

TEST_F(NetworkFixture, AttachErrorCarriesKindAndId) {
  try {
    network.attach(2, [](const Message&) {});
    FAIL() << "duplicate attach must throw";
  } catch (const AttachError& e) {
    EXPECT_EQ(e.kind(), AttachError::Kind::kDuplicateId);
    EXPECT_EQ(e.id(), NodeId{2});
  }
  try {
    network.attach(sim::kNoNode, [](const Message&) {});
    FAIL() << "reserved id must throw";
  } catch (const AttachError& e) {
    EXPECT_EQ(e.kind(), AttachError::Kind::kReservedId);
    EXPECT_EQ(e.id(), sim::kNoNode);
  }
}

TEST_F(NetworkFixture, UnknownInterfaceThrows) {
  EXPECT_THROW(static_cast<void>(network.interface(99)), std::out_of_range);
}

TEST_F(NetworkFixture, NodesListedInAttachOrder) {
  EXPECT_EQ(network.nodes(), (std::vector<NodeId>{1, 2, 3}));
}

TEST_F(NetworkFixture, InterfaceRecoveryRestoresDelivery) {
  network.interface(2).set_rx(false);
  network.send(msg(1, 2, "lost"));
  simulator.run_until(seconds(1));
  network.interface(2).set_rx(true);
  network.send(msg(1, 2, "delivered"));
  simulator.run_until(seconds(2));
  ASSERT_EQ(inbox2.size(), 1u);
  EXPECT_EQ(inbox2[0].type_name(), "delivered");
}

TEST_F(NetworkFixture, MessageLossDropsApproximatelyTheConfiguredShare) {
  network.set_message_loss_rate(0.3);
  for (int i = 0; i < 2000; ++i) network.send(msg(1, 2, "lossy"));
  simulator.run_until(seconds(1));
  // ~70% should arrive; 3-sigma band for p=0.7, n=2000 is +-0.031.
  const double delivered = static_cast<double>(inbox2.size()) / 2000.0;
  EXPECT_NEAR(delivered, 0.7, 0.05);
  // Losses are at the receiver: every message was counted on the wire.
  EXPECT_EQ(network.counters().of_type("lossy"), 2000u);
}

TEST_F(NetworkFixture, MessageLossZeroDeliversEverything) {
  network.set_message_loss_rate(0.0);
  for (int i = 0; i < 100; ++i) network.send(msg(1, 2, "clean"));
  simulator.run_until(seconds(1));
  EXPECT_EQ(inbox2.size(), 100u);
}

TEST_F(NetworkFixture, MessageLossAffectsMulticastPerDelivery) {
  network.set_message_loss_rate(0.5);
  for (int i = 0; i < 500; ++i) {
    network.multicast(msg(1, 0, "announce"));
  }
  simulator.run_until(seconds(1));
  // Each of the two receivers loses independently.
  EXPECT_NEAR(static_cast<double>(inbox2.size()) / 500.0, 0.5, 0.08);
  EXPECT_NEAR(static_cast<double>(inbox3.size()) / 500.0, 0.5, 0.08);
  EXPECT_NE(inbox2.size(), inbox3.size());  // independent draws
}

TEST_F(NetworkFixture, MessageLossIsDeterministicPerSeed) {
  const auto run = [] {
    sim::Simulator s(123);
    Network n(s);
    n.set_message_loss_rate(0.4);
    std::size_t received = 0;
    n.attach(1, [](const Message&) {});
    n.attach(2, [&](const Message&) { ++received; });
    for (int i = 0; i < 200; ++i) {
      Message m;
      m.src = 1;
      m.dst = 2;
      m.type = sdcm::net::MessageType::intern("x");
      n.send(m);
    }
    s.run_until(seconds(1));
    return received;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace sdcm::net
