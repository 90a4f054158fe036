#include "sdcm/discovery/observer.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace sdcm::discovery {
namespace {

using sim::seconds;

TEST(Observer, RecordsChangeAndReachTimes) {
  ConsistencyObserver obs;
  obs.track_user(10);
  obs.track_user(11);
  obs.service_changed(2, seconds(500));
  obs.user_reached(10, 2, seconds(600));

  EXPECT_EQ(obs.change_time(2), seconds(500));
  EXPECT_EQ(obs.reach_time(10, 2), seconds(600));
  EXPECT_FALSE(obs.reach_time(11, 2).has_value());
  EXPECT_FALSE(obs.change_time(3).has_value());
}

TEST(Observer, FirstReportWins) {
  ConsistencyObserver obs;
  obs.track_user(10);
  obs.service_changed(2, seconds(500));
  obs.user_reached(10, 2, seconds(600));
  obs.user_reached(10, 2, seconds(700));  // duplicate report, ignored
  EXPECT_EQ(obs.reach_time(10, 2), seconds(600));
}

TEST(Observer, UntrackedUsersIgnored) {
  ConsistencyObserver obs;
  obs.track_user(10);
  obs.user_reached(99, 2, seconds(600));
  EXPECT_FALSE(obs.reach_time(99, 2).has_value());
}

TEST(Observer, TrackUserIsIdempotent) {
  ConsistencyObserver obs;
  obs.track_user(10);
  obs.track_user(10);
  EXPECT_EQ(obs.users().size(), 1u);
}

TEST(Observer, RetrackOnRejoinKeepsFirstTrackOrder) {
  // RunRecord::user_reach_times and the oracle iterate users() in this
  // order; a rejoining User calls track_user again and must not move.
  ConsistencyObserver obs;
  obs.track_user(30);
  obs.track_user(10);
  obs.track_user(20);
  obs.track_user(10);  // rejoin
  obs.track_user(30);  // rejoin
  obs.track_user(5);
  EXPECT_EQ(obs.users(), (std::vector<NodeId>{30, 10, 20, 5}));
}

TEST(Observer, UntrackedIdAboveEveryTrackedIdIsIgnored) {
  ConsistencyObserver obs;
  obs.track_user(3);
  obs.track_user(7);
  obs.service_changed(2, seconds(500));
  int reached = 0;
  obs.on_user_reached = [&reached](NodeId, ServiceVersion, sim::SimTime) {
    ++reached;
  };
  obs.user_reached(8, 2, seconds(600));
  obs.user_reached(1'000'000, 2, seconds(600));
  EXPECT_FALSE(obs.reach_time(8, 2).has_value());
  EXPECT_FALSE(obs.reach_time(1'000'000, 2).has_value());
  EXPECT_EQ(reached, 0);
  EXPECT_EQ(obs.users(), (std::vector<NodeId>{3, 7}));
  obs.user_reached(7, 2, seconds(650));
  EXPECT_EQ(reached, 1);
  EXPECT_FALSE(obs.all_consistent_by(2, seconds(5400)));  // 3 never did
}

TEST(Observer, AllConsistentByDeadline) {
  ConsistencyObserver obs;
  obs.track_user(10);
  obs.track_user(11);
  obs.service_changed(2, seconds(500));
  obs.user_reached(10, 2, seconds(600));
  EXPECT_FALSE(obs.all_consistent_by(2, seconds(5400)));
  obs.user_reached(11, 2, seconds(700));
  EXPECT_TRUE(obs.all_consistent_by(2, seconds(5400)));
  // U < D is strict: a user reaching exactly at D does not count.
  EXPECT_FALSE(obs.all_consistent_by(2, seconds(600)));
  EXPECT_TRUE(obs.all_consistent_by(2, seconds(701)));
}

TEST(Observer, TracksMultipleVersionsIndependently) {
  ConsistencyObserver obs;
  obs.track_user(10);
  obs.service_changed(2, seconds(100));
  obs.service_changed(3, seconds(200));
  obs.user_reached(10, 3, seconds(250));
  EXPECT_FALSE(obs.reach_time(10, 2).has_value());
  EXPECT_EQ(obs.reach_time(10, 3), seconds(250));
}

}  // namespace
}  // namespace sdcm::discovery
