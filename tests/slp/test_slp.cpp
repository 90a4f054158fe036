// Tests for the SLP hybrid model (extension): registry-mode operation
// with a Directory Agent, the peer-to-peer multicast fallback, and
// poll-only (CM2) consistency maintenance.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "sdcm/net/failure_model.hpp"
#include "sdcm/slp/slp.hpp"

namespace sdcm::slp {
namespace {

using discovery::ServiceDescription;
using sim::seconds;

ServiceDescription printer_sd() {
  ServiceDescription sd;
  sd.id = 1;
  sd.device_type = "Printer";
  sd.service_type = "ColorPrinter";
  return sd;
}

struct SlpFixture : ::testing::Test {
  sim::Simulator simulator{1234};
  net::Network network{simulator};
  discovery::ConsistencyObserver observer;
  std::unique_ptr<DirectoryAgent> da;   // node 1
  std::unique_ptr<ServiceAgent> sa;     // node 10
  std::unique_ptr<UserAgent> ua;        // node 11

  void build(bool with_da, SlpConfig config = {}) {
    if (with_da) {
      da = std::make_unique<DirectoryAgent>(simulator, network, 1, config);
    }
    sa = std::make_unique<ServiceAgent>(simulator, network, 10, config,
                                        &observer);
    sa->add_service(printer_sd());
    ua = std::make_unique<UserAgent>(simulator, network, 11, "ColorPrinter",
                                     config, &observer);
    if (da) da->start();
    sa->start();
    ua->start();
  }
};

TEST_F(SlpFixture, RegistryModeDiscoveryAndPolling) {
  build(/*with_da=*/true);
  simulator.run_until(seconds(400));
  EXPECT_TRUE(sa->has_da());
  EXPECT_TRUE(ua->has_da());
  EXPECT_TRUE(da->has_registration(1));
  ASSERT_TRUE(ua->cached().has_value());
  EXPECT_EQ(ua->cached()->version, 1u);
}

TEST_F(SlpFixture, PeerToPeerModeWithoutDirectoryAgent) {
  build(/*with_da=*/false);
  simulator.run_until(seconds(400));
  EXPECT_FALSE(sa->has_da());
  EXPECT_FALSE(ua->has_da());
  ASSERT_TRUE(ua->cached().has_value());
  // The reply came from the SA directly, via multicast SrvRqst.
  EXPECT_GE(network.counters().of_type(msg::kMulticastSrvRqst), 1u);
  EXPECT_EQ(network.counters().of_type(msg::kSrvRqst), 0u);
}

TEST_F(SlpFixture, UpdatePropagatesOnlyThroughPolling) {
  build(/*with_da=*/true);
  simulator.run_until(seconds(400));
  sa->change_service(1);
  // Immediately after the change the UA is stale - no notification (CM1)
  // exists in SLP.
  simulator.run_until(seconds(401));
  EXPECT_EQ(ua->cached()->version, 1u);
  // The next poll (every 300 s) retrieves it.
  simulator.run_until(seconds(800));
  EXPECT_EQ(ua->cached()->version, 2u);
  const auto reached = observer.reach_time(11, 2);
  ASSERT_TRUE(reached.has_value());
  EXPECT_GT(*reached - *observer.change_time(2), seconds(50));
}

/// Users of five UAs that reach the changed description when the DA is
/// dead from 150 s to the end of a 5400 s run and the change falls in
/// [2600 s, 2700 s].
int failover_reached(std::uint64_t seed) {
  sim::Simulator simulator(seed);
  simulator.trace().set_recording(false);
  net::Network network(simulator);
  discovery::ConsistencyObserver observer;
  const SlpConfig config{};
  DirectoryAgent da(simulator, network, 1, config);
  ServiceAgent sa(simulator, network, 10, config, &observer);
  sa.add_service(printer_sd());
  std::vector<std::unique_ptr<UserAgent>> uas;
  for (int i = 0; i < 5; ++i) {
    uas.push_back(std::make_unique<UserAgent>(
        simulator, network, static_cast<sim::NodeId>(11 + i), "ColorPrinter",
        config, &observer));
  }
  da.start();
  sa.start();
  for (auto& ua : uas) ua->start();
  net::FailureEpisode ep;
  ep.node = 1;
  ep.mode = net::FailureMode::kBoth;
  ep.start = seconds(150);
  ep.duration = seconds(5250);
  net::apply_failures(simulator, network, std::array{ep});
  auto change_rng = simulator.rng().fork("experiment.change");
  const auto change_at =
      change_rng.uniform_time(seconds(2600), seconds(2700));
  simulator.schedule_at(change_at, [&sa] { sa.change_service(1); });
  simulator.run_until(seconds(5400));
  int reached = 0;
  for (const auto& ua : uas) {
    reached += observer.reach_time(ua->id(), 2).has_value() ? 1 : 0;
  }
  return reached;
}

TEST_F(SlpFixture, HybridFailoverToMulticastWhenDaDies) {
  // The Section 1 resilience argument: the Registry fails, the system
  // degrades to peer-to-peer instead of breaking.
  build(/*with_da=*/true);
  simulator.run_until(seconds(400));
  ASSERT_TRUE(ua->has_da());

  net::FailureEpisode ep;
  ep.node = 1;
  ep.mode = net::FailureMode::kBoth;
  ep.start = seconds(500);
  ep.duration = seconds(4000);
  net::apply_failures(simulator, network, std::array{ep});
  simulator.schedule_at(seconds(600), [&] { sa->change_service(1); });

  // After advert_timeout (2250 s) the agents drop the DA...
  simulator.run_until(seconds(3200));
  EXPECT_FALSE(ua->has_da());
  // ...and the UA's polls, now multicast, reach the SA directly: the
  // update arrives despite the dead Registry.
  EXPECT_EQ(ua->cached()->version, 2u);

  // Every User of every seed recovers the same way.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    EXPECT_EQ(failover_reached(seed), 5) << "seed " << seed;
  }
}

TEST_F(SlpFixture, DaRegistrationExpiresWithoutRenewal) {
  build(/*with_da=*/true);
  simulator.run_until(seconds(400));
  ASSERT_TRUE(da->has_registration(1));
  network.interface(10).set_tx(false);  // SA re-registrations stop
  simulator.run_until(seconds(3000));
  EXPECT_FALSE(da->has_registration(1));
}

TEST_F(SlpFixture, ReturningDaIsReadopted) {
  build(/*with_da=*/true);
  simulator.run_until(seconds(400));
  net::FailureEpisode ep;
  ep.node = 1;
  ep.mode = net::FailureMode::kBoth;
  ep.start = seconds(500);
  ep.duration = seconds(3000);
  net::apply_failures(simulator, network, std::array{ep});
  simulator.run_until(seconds(3400));
  ASSERT_FALSE(ua->has_da());
  // DA recovers at 3500 and advertises on its 900 s grid; both agents
  // re-adopt it and the SA re-registers.
  simulator.run_until(seconds(5400));
  EXPECT_TRUE(ua->has_da());
  EXPECT_TRUE(sa->has_da());
  EXPECT_TRUE(da->has_registration(1));
}

}  // namespace
}  // namespace sdcm::slp
