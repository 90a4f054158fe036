// Tests for the Alex-style adaptive update propagation extension
// (Section 4.2: invalidation vs data push vs adaptive switching).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sdcm/discovery/observer.hpp"
#include "sdcm/frodo/manager.hpp"
#include "sdcm/frodo/registry_node.hpp"
#include "sdcm/frodo/user.hpp"

namespace sdcm::frodo {
namespace {

using discovery::ServiceDescription;
using sim::seconds;

ServiceDescription printer_sd() {
  ServiceDescription sd;
  sd.id = 1;
  sd.device_type = "Printer";
  sd.service_type = "ColorPrinter";
  sd.attributes = {{"PaperSize", "A4"}, {"Location", "Study"},
                   {"Color", "CMYK"}, {"Duplex", "yes"}};
  return sd;
}

struct AdaptiveFixture : ::testing::Test {
  sim::Simulator simulator{2121};
  net::Network network{simulator};
  discovery::ConsistencyObserver observer;
  std::unique_ptr<FrodoRegistryNode> registry;
  std::unique_ptr<FrodoManager> manager;
  std::unique_ptr<FrodoUser> user;

  void build(FrodoConfig config) {
    registry = std::make_unique<FrodoRegistryNode>(simulator, network, 1, 100,
                                                   config);
    manager = std::make_unique<FrodoManager>(simulator, network, 10,
                                             DeviceClass::k300D, config,
                                             &observer);
    manager->add_service(printer_sd());
    user = std::make_unique<FrodoUser>(simulator, network, 11,
                                       DeviceClass::k300D,
                                       Matching{"Printer", "ColorPrinter"},
                                       config, &observer);
    registry->start();
    manager->start();
    user->start();
  }
};

/// Update-class bytes and mean change-to-consistency latency of the
/// final version when five Users watch a service that changes `changes`
/// times, `gap` apart, from 200 s on.
struct Propagation {
  std::uint64_t bytes = 0;
  double latency_s = 0.0;
};

Propagation propagate(UpdatePropagation mode, sim::SimDuration gap,
                      int changes, sim::SimTime until) {
  sim::Simulator s(77);
  net::Network n(s);
  discovery::ConsistencyObserver obs;
  FrodoConfig config;
  config.propagation = mode;
  config.invalidation_fetch_delay = seconds(120);
  FrodoRegistryNode reg(s, n, 1, 100, config);
  FrodoManager mgr(s, n, 10, DeviceClass::k300D, config, &obs);
  mgr.add_service(printer_sd());
  std::vector<std::unique_ptr<FrodoUser>> users;
  for (int i = 0; i < 5; ++i) {
    users.push_back(std::make_unique<FrodoUser>(
        s, n, static_cast<NodeId>(11 + i), DeviceClass::k300D,
        Matching{"Printer", "ColorPrinter"}, config, &obs));
  }
  reg.start();
  mgr.start();
  for (auto& u : users) u->start();
  s.run_until(seconds(100));
  const auto before = n.counters().bytes_of_class(net::MessageClass::kUpdate);
  for (int c = 0; c < changes; ++c) {
    s.schedule_at(seconds(200) + c * gap, [&] { mgr.change_service(1); });
  }
  s.run_until(until);
  Propagation out;
  out.bytes = n.counters().bytes_of_class(net::MessageClass::kUpdate) - before;
  const auto final_version =
      static_cast<discovery::ServiceVersion>(1 + changes);
  const auto changed = obs.change_time(final_version);
  EXPECT_TRUE(changed.has_value());
  for (auto& u : users) {
    EXPECT_EQ(u->cached()->version, final_version);
    const auto reached = obs.reach_time(u->id(), final_version);
    if (reached && changed) {
      out.latency_s += sim::to_seconds(*reached - *changed);
    }
  }
  out.latency_s /= static_cast<double>(users.size());
  return out;
}

TEST_F(AdaptiveFixture, InvalidationModeDelaysByTheFetchWindow) {
  FrodoConfig config;
  config.propagation = UpdatePropagation::kInvalidation;
  config.invalidation_fetch_delay = seconds(120);
  build(config);
  simulator.run_until(seconds(100));
  manager->change_service(1, {{"PaperSize", "Letter"}});
  simulator.run_until(seconds(400));
  ASSERT_TRUE(user->cached().has_value());
  EXPECT_EQ(user->cached()->version, 2u);
  EXPECT_EQ(user->cached()->attributes.at("PaperSize"), "Letter");
  const auto reached = observer.reach_time(11, 2);
  ASSERT_TRUE(reached.has_value());
  // Consistency only after the deferred fetch (~120 s after the change).
  EXPECT_GT(*reached - *observer.change_time(2), seconds(119));
  EXPECT_LT(*reached - *observer.change_time(2), seconds(125));

  // On a rarely changing service the delay is invalidation's alone: data
  // push and the adaptive mode (data once the service has settled) skip
  // the fetch.
  const auto cold = [](UpdatePropagation mode) {
    return propagate(mode, seconds(1800), 3, seconds(6600)).latency_s;
  };
  const double invalidation_s = cold(UpdatePropagation::kInvalidation);
  EXPECT_LT(cold(UpdatePropagation::kData), invalidation_s);
  EXPECT_LT(cold(UpdatePropagation::kAdaptive), invalidation_s);
}

TEST_F(AdaptiveFixture, InvalidationStubNeverCorruptsTheCache) {
  FrodoConfig config;
  config.propagation = UpdatePropagation::kInvalidation;
  build(config);
  simulator.run_until(seconds(100));
  manager->change_service(1, {{"PaperSize", "Letter"}});
  simulator.run_until(seconds(101));
  // The invalidation arrived but the body was not fetched yet: the cache
  // must still hold the complete version-1 description.
  ASSERT_TRUE(user->cached().has_value());
  EXPECT_EQ(user->cached()->version, 1u);
  EXPECT_EQ(user->cached()->attributes.size(), 4u);
}

TEST_F(AdaptiveFixture, BurstsCoalesceIntoOneFetch) {
  FrodoConfig config;
  config.propagation = UpdatePropagation::kInvalidation;
  config.invalidation_fetch_delay = seconds(120);
  build(config);
  simulator.run_until(seconds(100));
  // Five changes within the fetch window: one fetch, final version only.
  for (int i = 0; i < 5; ++i) {
    simulator.schedule_at(seconds(200 + 10 * i),
                          [&] { manager->change_service(1); });
  }
  simulator.run_until(seconds(1000));
  EXPECT_EQ(user->cached()->version, 6u);
  EXPECT_EQ(simulator.trace().count_event("frodo.invalidation.fetch"),
            1u);
}

TEST_F(AdaptiveFixture, AdaptiveUsesDataForSettledServices) {
  FrodoConfig config;
  config.propagation = UpdatePropagation::kAdaptive;
  config.adaptive_hot_threshold = seconds(600);
  build(config);
  simulator.run_until(seconds(100));
  // First change: no previous gap -> data push, immediate consistency.
  manager->change_service(1);
  simulator.run_until(seconds(101));
  EXPECT_EQ(user->cached()->version, 2u);
  // Second change 1800 s later (cold): data again.
  simulator.run_until(seconds(1900));
  manager->change_service(1);
  simulator.run_until(seconds(1901));
  EXPECT_EQ(user->cached()->version, 3u);
  EXPECT_EQ(simulator.trace().count_event("frodo.invalidation.fetch"),
            0u);
}

TEST_F(AdaptiveFixture, AdaptiveSwitchesToInvalidationWhenHot) {
  FrodoConfig config;
  config.propagation = UpdatePropagation::kAdaptive;
  config.adaptive_hot_threshold = seconds(600);
  config.invalidation_fetch_delay = seconds(120);
  build(config);
  simulator.run_until(seconds(100));
  manager->change_service(1);  // v2: cold -> data
  simulator.run_until(seconds(150));
  manager->change_service(1);  // v3: 50 s gap -> hot -> invalidation
  simulator.run_until(seconds(151));
  EXPECT_EQ(user->cached()->version, 2u);  // only the stub arrived so far
  simulator.run_until(seconds(1000));
  EXPECT_EQ(user->cached()->version, 3u);  // fetched after the delay
  EXPECT_EQ(simulator.trace().count_event("frodo.invalidation.fetch"),
            1u);
}

TEST_F(AdaptiveFixture, InvalidationSavesBytesOnHotServices) {
  // The efficiency claim: under a burst of changes, invalidation moves
  // fewer update-class bytes than pushing the full description each
  // time, and the adaptive mode, invalidating while the service is hot,
  // keeps that saving.
  const auto hot = [](UpdatePropagation mode) {
    return propagate(mode, seconds(20), 10, seconds(2000)).bytes;
  };
  const auto data_bytes = hot(UpdatePropagation::kData);
  EXPECT_LT(hot(UpdatePropagation::kInvalidation), data_bytes);
  EXPECT_LT(hot(UpdatePropagation::kAdaptive), data_bytes);
}

}  // namespace
}  // namespace sdcm::frodo
