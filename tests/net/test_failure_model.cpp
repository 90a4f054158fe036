#include "sdcm/net/failure_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <vector>

namespace sdcm::net {
namespace {

using sim::seconds;

const std::array<NodeId, 7> kNodes = {1, 2, 3, 4, 5, 6, 7};

TEST(FailurePlanner, ZeroLambdaYieldsNoFailures) {
  sim::Random rng(1);
  FailurePlanConfig cfg;
  cfg.lambda = 0.0;
  EXPECT_TRUE(plan_failures(kNodes, cfg, rng).empty());
}

TEST(FailurePlanner, OneEpisodePerNode) {
  sim::Random rng(2);
  FailurePlanConfig cfg;
  cfg.lambda = 0.3;
  const auto plan = plan_failures(kNodes, cfg, rng);
  ASSERT_EQ(plan.size(), kNodes.size());
  std::set<NodeId> seen;
  for (const auto& ep : plan) seen.insert(ep.node);
  EXPECT_EQ(seen.size(), kNodes.size());
}

TEST(FailurePlanner, DurationIsLambdaTimesHorizon) {
  // The paper's Section 6.2 example: lambda = 0.15 -> 810 s outages.
  sim::Random rng(3);
  FailurePlanConfig cfg;
  cfg.lambda = 0.15;
  for (const auto& ep : plan_failures(kNodes, cfg, rng)) {
    EXPECT_EQ(ep.duration, seconds(810));
  }
}

TEST(FailurePlanner, FitInsideEpisodesEndWithinHorizon) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    sim::Random rng(seed);
    for (const double lambda : {0.05, 0.5, 0.9}) {
      FailurePlanConfig cfg;
      cfg.lambda = lambda;
      cfg.placement = FailurePlacement::kFitInside;
      for (const auto& ep : plan_failures(kNodes, cfg, rng)) {
        EXPECT_GE(ep.start, seconds(100));
        EXPECT_LE(ep.end(), seconds(5400));
      }
    }
  }
}

TEST(FailurePlanner, TruncatedStartsSpanTheFullPaperWindow) {
  // Section 5 Step 2 taken literally: starts anywhere in [100 s, 5400 s];
  // late episodes extend past the horizon (the node never recovers
  // in-run).
  bool some_end_past_horizon = false;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    sim::Random rng(seed);
    for (const double lambda : {0.05, 0.5, 0.9}) {
      FailurePlanConfig cfg;
      cfg.lambda = lambda;
      cfg.placement = FailurePlacement::kTruncated;
      for (const auto& ep : plan_failures(kNodes, cfg, rng)) {
        EXPECT_GE(ep.start, seconds(100));
        EXPECT_LE(ep.start, seconds(5400));
        some_end_past_horizon =
            some_end_past_horizon || ep.end() > seconds(5400);
      }
    }
  }
  EXPECT_TRUE(some_end_past_horizon);
}

TEST(FailurePlanner, AllThreeModesOccur) {
  std::set<FailureMode> seen;
  for (std::uint64_t seed = 0; seed < 30 && seen.size() < 3; ++seed) {
    sim::Random rng(seed);
    FailurePlanConfig cfg;
    cfg.lambda = 0.2;
    for (const auto& ep : plan_failures(kNodes, cfg, rng)) {
      seen.insert(ep.mode);
    }
  }
  EXPECT_TRUE(seen.contains(FailureMode::kTransmitter));
  EXPECT_TRUE(seen.contains(FailureMode::kReceiver));
  EXPECT_TRUE(seen.contains(FailureMode::kBoth));
}

TEST(FailurePlanner, CoversHelper) {
  FailureEpisode ep;
  ep.start = seconds(100);
  ep.duration = seconds(50);
  EXPECT_FALSE(ep.covers(seconds(99)));
  EXPECT_TRUE(ep.covers(seconds(100)));
  EXPECT_TRUE(ep.covers(seconds(149)));
  EXPECT_FALSE(ep.covers(seconds(150)));
}

TEST(ApplyFailures, FlipsInterfacesAtEpisodeBounds) {
  sim::Simulator simulator(4);
  Network network(simulator);
  network.attach(1, [](const Message&) {});
  FailureEpisode ep;
  ep.node = 1;
  ep.mode = FailureMode::kTransmitter;
  ep.start = seconds(100);
  ep.duration = seconds(50);
  apply_failures(simulator, network, std::array{ep});

  simulator.run_until(seconds(99));
  EXPECT_TRUE(network.interface(1).tx_up());
  simulator.run_until(seconds(120));
  EXPECT_FALSE(network.interface(1).tx_up());
  EXPECT_TRUE(network.interface(1).rx_up());  // tx-only episode
  simulator.run_until(seconds(200));
  EXPECT_TRUE(network.interface(1).tx_up());
}

TEST(ApplyFailures, BothModeTakesNodeOffline) {
  sim::Simulator simulator(5);
  Network network(simulator);
  network.attach(1, [](const Message&) {});
  FailureEpisode ep;
  ep.node = 1;
  ep.mode = FailureMode::kBoth;
  ep.start = seconds(10);
  ep.duration = seconds(10);
  apply_failures(simulator, network, std::array{ep});
  simulator.run_until(seconds(15));
  EXPECT_FALSE(network.interface(1).tx_up());
  EXPECT_FALSE(network.interface(1).rx_up());
  simulator.run_until(seconds(25));
  EXPECT_TRUE(network.interface(1).tx_up());
  EXPECT_TRUE(network.interface(1).rx_up());
}

TEST(ApplyFailures, EmitsTraceRecords) {
  sim::Simulator simulator(6);
  Network network(simulator);
  network.attach(1, [](const Message&) {});
  FailureEpisode ep;
  ep.node = 1;
  ep.mode = FailureMode::kReceiver;
  ep.start = seconds(10);
  ep.duration = seconds(10);
  apply_failures(simulator, network, std::array{ep});
  simulator.run_until(seconds(30));
  EXPECT_EQ(simulator.trace().count_event("interface.down"), 1u);
  EXPECT_EQ(simulator.trace().count_event("interface.up"), 1u);
}

TEST(ApplyFailures, NoneModeIsIgnored) {
  sim::Simulator simulator(7);
  Network network(simulator);
  network.attach(1, [](const Message&) {});
  FailureEpisode ep;
  ep.node = 1;
  ep.mode = FailureMode::kNone;
  ep.start = seconds(10);
  ep.duration = seconds(10);
  apply_failures(simulator, network, std::array{ep});
  simulator.run_until(seconds(30));
  EXPECT_TRUE(simulator.trace().records().empty());
}

TEST(FailureModeNames, ToString) {
  EXPECT_EQ(to_string(FailureMode::kTransmitter), "tx");
  EXPECT_EQ(to_string(FailureMode::kReceiver), "rx");
  EXPECT_EQ(to_string(FailureMode::kBoth), "tx+rx");
}

TEST(FailurePlanner, FitInsideEpisodesNeverOverlapPerNode) {
  // Property sweep: multi-episode fit-inside plans must be disjoint per
  // node, ordered, inside the window, and preserve the lambda * horizon
  // downtime budget (up to one microsecond of integer division slack
  // per episode). lambda = 0.99 stresses the per-slice duration cap.
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    for (const double lambda : {0.15, 0.5, 0.9, 0.99}) {
      for (const int episodes : {1, 2, 3, 5}) {
        sim::Random rng(seed * 101 + 7);
        FailurePlanConfig cfg;
        cfg.lambda = lambda;
        cfg.placement = FailurePlacement::kFitInside;
        cfg.episodes = episodes;
        std::map<NodeId, std::vector<FailureEpisode>> per_node;
        for (const auto& ep : plan_failures(kNodes, cfg, rng)) {
          per_node[ep.node].push_back(ep);
        }
        EXPECT_EQ(per_node.size(), kNodes.size());
        for (auto& [node, eps] : per_node) {
          ASSERT_EQ(eps.size(), static_cast<std::size_t>(episodes));
          std::sort(eps.begin(), eps.end(),
                    [](const FailureEpisode& a, const FailureEpisode& b) {
                      return a.start < b.start;
                    });
          sim::SimDuration down = 0;
          for (std::size_t i = 0; i < eps.size(); ++i) {
            EXPECT_GE(eps[i].start, cfg.min_start)
                << "seed=" << seed << " lambda=" << lambda;
            EXPECT_LE(eps[i].end(), cfg.horizon)
                << "seed=" << seed << " lambda=" << lambda;
            if (i > 0) {
              EXPECT_LE(eps[i - 1].end(), eps[i].start)
                  << "overlap: seed=" << seed << " lambda=" << lambda
                  << " episodes=" << episodes << " node=" << node;
            }
            down += eps[i].duration;
          }
          if (lambda <= 0.9) {
            const auto budget = static_cast<sim::SimDuration>(
                lambda * static_cast<double>(cfg.horizon));
            EXPECT_NEAR(static_cast<double>(down),
                        static_cast<double>(budget),
                        static_cast<double>(episodes))
                << "seed=" << seed << " lambda=" << lambda;
          }
        }
      }
    }
  }
}

TEST(ApplyFailures, OverlappingEpisodesStayDownUnderRefcounting) {
  // Two overlapping tx outages on node 1: [100 s, 200 s) and
  // [150 s, 250 s). The union is down until 250 s.
  FailureEpisode first;
  first.node = 1;
  first.mode = FailureMode::kTransmitter;
  first.start = seconds(100);
  first.duration = seconds(100);
  FailureEpisode second = first;
  second.start = seconds(150);
  const std::array plan{first, second};

  // The interface only comes back once every covering episode has
  // ended: the first episode's recovery at 200 s must not re-enable it
  // while the second still covers it.
  sim::Simulator simulator(8);
  Network network(simulator);
  network.attach(1, [](const Message&) {});
  apply_failures(simulator, network, plan);
  simulator.run_until(seconds(210));
  EXPECT_FALSE(network.interface(1).tx_up());
  simulator.run_until(seconds(260));
  EXPECT_TRUE(network.interface(1).tx_up());
  // Both episode bounds are logged: two downs, two ups.
  EXPECT_EQ(simulator.trace().records().size(), 4u);
}

}  // namespace
}  // namespace sdcm::net
