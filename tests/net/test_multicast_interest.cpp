// Interest-scoped multicast fan-out (DESIGN.md section 14): routing by
// declared interest, the RNG discipline (only subscribers draw), the
// subscription index under interest churn, the udp_deliveries_skipped
// counter, and the closure-size / reserve_nodes regressions fixed
// alongside the scoping work.

#include "sdcm/net/network.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

namespace sdcm::net {
namespace {

using sim::seconds;

/// A sink with a declared (or universal) interest set and an inbox.
struct InterestedSink final : MessageSink {
  std::optional<std::vector<MessageType>> interests;
  std::vector<Message> inbox;
  std::vector<sim::SimTime> arrivals;
  sim::Simulator* clock = nullptr;

  void handle_message(const Message& msg) override {
    inbox.push_back(msg);
    if (clock != nullptr) arrivals.push_back(clock->now());
  }

  [[nodiscard]] std::optional<std::vector<MessageType>> multicast_interests()
      const override {
    return interests;
  }
};

Message multicast_msg(NodeId src, std::string_view type) {
  Message m;
  m.src = src;
  m.dst = sim::kNoNode;
  m.type = MessageType::intern(type);
  m.klass = MessageClass::kDiscovery;
  return m;
}

struct MulticastScopeFixture : ::testing::Test {
  sim::Simulator simulator{777};
  Network network{simulator};
  InterestedSink sender;      // node 1, universal
  InterestedSink wants_a;     // node 2, subscribes "scope.a"
  InterestedSink wants_b;     // node 3, subscribes "scope.b"
  InterestedSink universal;   // node 4, nullopt = everything
  InterestedSink wants_none;  // node 5, engaged empty = no multicast

  void SetUp() override {
    wants_a.interests = std::vector<MessageType>{MessageType::intern("scope.a")};
    wants_b.interests = std::vector<MessageType>{MessageType::intern("scope.b")};
    wants_none.interests = std::vector<MessageType>{};
    network.attach(1, sender);
    network.attach(2, wants_a);
    network.attach(3, wants_b);
    network.attach(4, universal);
    network.attach(5, wants_none);
  }
};

TEST_F(MulticastScopeFixture, ScopedRoutesByDeclaredInterest) {
  network.multicast(multicast_msg(1, "scope.a"));
  simulator.run_until(seconds(1));
  EXPECT_TRUE(sender.inbox.empty());  // never back to the source
  EXPECT_EQ(wants_a.inbox.size(), 1u);
  EXPECT_TRUE(wants_b.inbox.empty());
  EXPECT_EQ(universal.inbox.size(), 1u);
  EXPECT_TRUE(wants_none.inbox.empty());
  // Two of the four destinations were uninterested.
  EXPECT_EQ(simulator.kernel_stats().udp_deliveries_skipped, 2u);
}

// The benchmark driver still calls set_multicast_scope(kScopedRng);
// routing after that call must be the one interest-scoped behaviour.
TEST_F(MulticastScopeFixture, ScopedRngRoutesIdenticallyToScoped) {
  network.set_multicast_scope(MulticastScope::kScopedRng);
  network.multicast(multicast_msg(1, "scope.b"));
  simulator.run_until(seconds(1));
  EXPECT_TRUE(wants_a.inbox.empty());
  EXPECT_EQ(wants_b.inbox.size(), 1u);
  EXPECT_EQ(universal.inbox.size(), 1u);
  EXPECT_TRUE(wants_none.inbox.empty());
  EXPECT_EQ(simulator.kernel_stats().udp_deliveries_skipped, 2u);
}

TEST_F(MulticastScopeFixture, SkippedCountsPerCopyPerDestination) {
  // 6 redundant copies x 2 uninterested destinations.
  network.multicast(multicast_msg(1, "scope.a"), 6);
  simulator.run_until(seconds(1));
  EXPECT_EQ(wants_a.inbox.size(), 6u);
  EXPECT_EQ(simulator.kernel_stats().udp_deliveries_skipped, 12u);
}

TEST_F(MulticastScopeFixture, UnicastIsNeverFiltered) {
  Message m = multicast_msg(1, "scope.a");
  m.dst = 5;  // wants_none subscribed to no multicast at all
  network.send(m);
  simulator.run_until(seconds(1));
  EXPECT_EQ(wants_none.inbox.size(), 1u);
}

TEST_F(MulticastScopeFixture, SubscribersListedInAttachOrder) {
  EXPECT_EQ(network.multicast_subscribers(MessageType::intern("scope.a")),
            (std::vector<NodeId>{1, 2, 4}));
  EXPECT_EQ(network.multicast_subscribers(MessageType::intern("scope.b")),
            (std::vector<NodeId>{1, 3, 4}));
  // A type nobody declared still reaches the universal sinks.
  EXPECT_EQ(network.multicast_subscribers(MessageType::intern("scope.other")),
            (std::vector<NodeId>{1, 4}));
}

TEST_F(MulticastScopeFixture, IndexSurvivesInterestChurn) {
  ASSERT_TRUE(network.check_subscription_index());
  // Narrow a universal sink, widen a narrow one, silence another, then
  // restore - every transition rewrites the dense index in place.
  network.set_multicast_interests(
      4, std::vector<MessageType>{MessageType::intern("scope.a")});
  network.set_multicast_interests(
      2, std::vector<MessageType>{MessageType::intern("scope.a"),
                                  MessageType::intern("scope.b")});
  network.set_multicast_interests(3, std::vector<MessageType>{});
  ASSERT_TRUE(network.check_subscription_index());
  EXPECT_EQ(network.multicast_subscribers(MessageType::intern("scope.b")),
            (std::vector<NodeId>{1, 2}));
  network.set_multicast_interests(3, std::nullopt);  // back to universal
  ASSERT_TRUE(network.check_subscription_index());
  EXPECT_EQ(network.multicast_subscribers(MessageType::intern("scope.b")),
            (std::vector<NodeId>{1, 2, 3}));

  network.multicast(multicast_msg(1, "scope.b"));
  simulator.run_until(seconds(1));
  EXPECT_EQ(wants_a.inbox.size(), 1u);  // widened to scope.b above
  EXPECT_EQ(wants_b.inbox.size(), 1u);
  EXPECT_TRUE(universal.inbox.empty());  // narrowed to scope.a above
}

TEST_F(MulticastScopeFixture, DuplicateInterestDeclarationsCollapse) {
  network.set_multicast_interests(
      2, std::vector<MessageType>{MessageType::intern("scope.a"),
                                  MessageType::intern("scope.a")});
  ASSERT_TRUE(network.check_subscription_index());
  network.multicast(multicast_msg(1, "scope.a"));
  simulator.run_until(seconds(1));
  EXPECT_EQ(wants_a.inbox.size(), 1u);  // one delivery, not two
}

// Only subscribers draw delay and loss: attaching a node that declares
// no interest must not move any subscriber's arrival, whether it sits
// before, between or after them in attach order.
TEST(MulticastScopeRng, ScopedRngSkipsDrawsForUninterested) {
  std::vector<sim::SimTime> arrivals[2];
  for (int with_skipped = 0; with_skipped < 2; ++with_skipped) {
    sim::Simulator simulator{424242};
    Network network{simulator};
    InterestedSink sender, before, skipped, after;
    before.clock = &simulator;
    skipped.interests = std::vector<MessageType>{};
    after.clock = &simulator;
    network.attach(1, sender);
    network.attach(2, before);
    if (with_skipped == 1) network.attach(3, skipped);
    network.attach(4, after);
    for (int k = 0; k < 50; ++k) {
      network.multicast(multicast_msg(1, "rng.skip"));
    }
    simulator.run_until(seconds(1));
    ASSERT_EQ(before.arrivals.size(), 50u);
    ASSERT_EQ(after.arrivals.size(), 50u);
    arrivals[with_skipped] = before.arrivals;
    arrivals[with_skipped].insert(arrivals[with_skipped].end(),
                                  after.arrivals.begin(), after.arrivals.end());
    EXPECT_TRUE(skipped.inbox.empty());
  }
  EXPECT_EQ(arrivals[0], arrivals[1]);
}

// Every multicast delivery closure must fit InlineCallback's buffer:
// the per-delivery heap allocation this PR removed was the single
// biggest run-loop cost at 10^4+ nodes.
TEST(MulticastScopeAlloc, DeliveryClosuresStayInline) {
  sim::Simulator simulator{99};
  Network network{simulator};
  InterestedSink sinks[12];
  for (NodeId id = 1; id <= 12; ++id) {
    network.attach(id, sinks[id - 1]);
  }
  network.set_message_loss_rate(0.25);  // the lossy path captures too
  for (int k = 0; k < 20; ++k) {
    network.multicast(multicast_msg(1, "alloc.pin"), 3);
  }
  simulator.run_until(seconds(1));
  EXPECT_EQ(simulator.kernel_stats().callback_heap_allocs, 0u);
}

// reserve_nodes(max_id) must cover id == max_id itself (it reserves
// max_id + 1 slots): attaching the last planned id used to reallocate
// the table, invalidating interface references held across the build.
TEST(MulticastScopeReserve, ReserveCoversTheLargestPlannedId) {
  sim::Simulator simulator{7};
  Network network{simulator};
  network.reserve_nodes(8);
  InterestedSink sinks[8];
  network.attach(1, sinks[0]);
  const InterfaceState* iface = &network.interface(1);
  const NodeId* order = network.nodes().data();
  for (NodeId id = 2; id <= 8; ++id) {
    network.attach(id, sinks[id - 1]);
  }
  EXPECT_EQ(&network.interface(1), iface);
  EXPECT_EQ(network.nodes().data(), order);
  EXPECT_EQ(network.nodes().size(), 8u);
}

}  // namespace
}  // namespace sdcm::net
