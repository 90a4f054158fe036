#include "sdcm/check/oracle.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "sdcm/experiment/scenario.hpp"
#include "sdcm/net/network.hpp"
#include "sdcm/sim/simulator.hpp"

namespace {

using namespace sdcm;
using check::ConsistencyOracle;
using check::Invariant;
using check::OracleConfig;
using check::OracleReport;

std::string describe_all(const OracleReport& report) {
  std::string out;
  for (const check::Violation& violation : report.violations) {
    out += violation.describe() + "\n";
  }
  return out;
}

std::size_t count_of(const OracleReport& report, Invariant invariant) {
  std::size_t n = 0;
  for (const check::Violation& violation : report.violations) {
    if (violation.invariant == invariant) ++n;
  }
  return n;
}

/// A simulator + network + observer the oracle can attach to; the
/// synthetic tests then drive the observer hooks / trace stream / wire
/// probe directly instead of running a protocol.
struct OracleTest : testing::Test {
  sim::Simulator simulator{1};
  net::Network network{simulator};
  discovery::ConsistencyObserver observer;

  OracleReport finish(ConsistencyOracle& oracle) { return oracle.finish(); }
};

TEST_F(OracleTest, CleanRunReportsOk) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  observer.service_changed(2, sim::seconds(1000));
  observer.user_version(11, 1, sim::seconds(10));
  observer.user_version(11, 2, sim::seconds(1001));
  const OracleReport report = oracle.finish();
  EXPECT_TRUE(report.ok()) << describe_all(report);
  EXPECT_EQ(report.version_observations, 2u);
}

TEST_F(OracleTest, VersionRegressIsMonotonicityViolation) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  observer.service_changed(2, sim::seconds(500));
  observer.user_version(11, 2, sim::seconds(600));
  observer.user_version(11, 1, sim::seconds(700));  // regress
  const OracleReport report = oracle.finish();
  ASSERT_EQ(report.violation_total, 1u) << describe_all(report);
  EXPECT_EQ(report.violations[0].invariant, Invariant::kMonotonicity);
  EXPECT_EQ(report.violations[0].node, 11u);
  EXPECT_EQ(report.violations[0].at, sim::seconds(700));
}

TEST_F(OracleTest, ManagerPurgeResetsTheMonotonicityFloor) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  observer.service_changed(2, sim::seconds(500));
  observer.user_version(11, 2, sim::seconds(600));
  // The user purges its manager (lease expiry during an outage), then
  // rediscovers and adopts a stale description from a backup: designed
  // behaviour, not a regress.
  oracle.on_record(sim::TraceRecord{sim::seconds(700), 11,
                                    sim::TraceCategory::kDiscovery, 1,
                                    sim::kNoSpan, "frodo.manager.purged",
                                    "lease expired"});
  observer.user_version(11, 1, sim::seconds(800));
  const OracleReport report = oracle.finish();
  EXPECT_TRUE(report.ok()) << describe_all(report);
}

TEST_F(OracleTest, VersionBeforeChangeIsCausalityViolation) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  observer.user_version(11, 2, sim::seconds(50));  // no change happened
  const OracleReport report = oracle.finish();
  ASSERT_EQ(report.violation_total, 1u) << describe_all(report);
  EXPECT_EQ(report.violations[0].invariant, Invariant::kCausality);
}

TEST_F(OracleTest, NotificationWithoutLeaseIsHygieneViolation) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  observer.service_changed(2, sim::seconds(100));
  observer.notification_sent(1, 11, 2, sim::seconds(200));  // never granted
  const OracleReport report = oracle.finish();
  ASSERT_EQ(report.violation_total, 1u) << describe_all(report);
  EXPECT_EQ(report.violations[0].invariant, Invariant::kLeaseHygiene);
  EXPECT_EQ(report.violations[0].node, 1u);
}

TEST_F(OracleTest, NotificationAfterExpiryIsHygieneViolation) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  observer.lease_granted(1, 11, /*expires_at=*/sim::seconds(300),
                         /*at=*/sim::seconds(0));
  observer.notification_sent(1, 11, 2, sim::seconds(400));
  observer.lease_dropped(1, 11, sim::seconds(300));
  const OracleReport report = oracle.finish();
  ASSERT_EQ(report.violation_total, 1u) << describe_all(report);
  EXPECT_EQ(report.violations[0].invariant, Invariant::kLeaseHygiene);
}

TEST_F(OracleTest, RenewalExtendsTheLease) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  observer.lease_granted(1, 11, sim::seconds(300), sim::seconds(0));
  observer.lease_granted(1, 11, sim::seconds(6000), sim::seconds(250));
  observer.notification_sent(1, 11, 2, sim::seconds(400));
  const OracleReport report = oracle.finish();
  EXPECT_TRUE(report.ok()) << describe_all(report);
  EXPECT_EQ(report.leases_tracked, 2u);
  EXPECT_EQ(report.notifications_checked, 1u);
}

TEST_F(OracleTest, ExpiredLeaseNeverDroppedIsFlaggedAtFinish) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  observer.lease_granted(1, 11, sim::seconds(300), sim::seconds(0));
  const OracleReport report = oracle.finish();
  ASSERT_EQ(report.violation_total, 1u) << describe_all(report);
  EXPECT_EQ(report.violations[0].invariant, Invariant::kLeaseHygiene);
  EXPECT_EQ(report.violations[0].at, sim::seconds(5400));
}

TEST_F(OracleTest, LatePurgeIsHygieneViolation) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  observer.lease_granted(1, 11, sim::seconds(300), sim::seconds(0));
  observer.lease_dropped(1, 11, sim::seconds(400));  // 100 s late
  const OracleReport report = oracle.finish();
  ASSERT_EQ(report.violation_total, 1u) << describe_all(report);
  EXPECT_EQ(report.violations[0].invariant, Invariant::kLeaseHygiene);
}

TEST_F(OracleTest, DropWithoutGrantIsHygieneViolation) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  observer.lease_dropped(1, 11, sim::seconds(100));
  const OracleReport report = oracle.finish();
  ASSERT_EQ(report.violation_total, 1u) << describe_all(report);
  EXPECT_EQ(report.violations[0].invariant, Invariant::kLeaseHygiene);
}

TEST_F(OracleTest, TraceUpdateRecordBeforeChangeIsCausalityViolation) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  oracle.on_record(sim::TraceRecord{sim::seconds(10), 10,
                                    sim::TraceCategory::kUpdate, 1,
                                    sim::kNoSpan, "jini.notify.tx",
                                    "to=11 version=2"});
  const OracleReport report = oracle.finish();
  ASSERT_EQ(report.violation_total, 1u) << describe_all(report);
  EXPECT_EQ(report.violations[0].invariant, Invariant::kCausality);
  EXPECT_EQ(report.violations[0].span, 1u);
}

TEST_F(OracleTest, VersionTokenParsingRespectsBoundaries) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  // "from_version=3" must NOT parse as "version=3".
  oracle.on_record(sim::TraceRecord{sim::seconds(10), 10,
                                    sim::TraceCategory::kUpdate, 1,
                                    sim::kNoSpan, "x.notify.tx",
                                    "to=11 from_version=3"});
  const OracleReport report = oracle.finish();
  EXPECT_TRUE(report.ok()) << describe_all(report);
}

TEST_F(OracleTest, NotificationDescendingFromChangeRootPasses) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  oracle.on_record(sim::TraceRecord{sim::seconds(20), 10,
                                    sim::TraceCategory::kUpdate, 1,
                                    sim::kNoSpan, "upnp.service_changed",
                                    "version=2"});
  oracle.on_record(sim::TraceRecord{sim::seconds(21), 10,
                                    sim::TraceCategory::kUpdate, 2, 1,
                                    "upnp.notify.tx", "to=11 version=2"});
  const OracleReport report = oracle.finish();
  EXPECT_TRUE(report.ok()) << describe_all(report);
  EXPECT_EQ(report.records_checked, 2u);
}

TEST_F(OracleTest, OrphanNotificationIsCausalityViolation) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  oracle.on_record(sim::TraceRecord{sim::seconds(20), 10,
                                    sim::TraceCategory::kUpdate, 1,
                                    sim::kNoSpan, "upnp.service_changed",
                                    "version=2"});
  // A GENA notification rooted in a timer, not the change: bug.
  oracle.on_record(sim::TraceRecord{sim::seconds(30), 10,
                                    sim::TraceCategory::kUpdate, 2,
                                    sim::kNoSpan, "upnp.notify.tx", "to=11"});
  const OracleReport report = oracle.finish();
  ASSERT_EQ(report.violation_total, 1u) << describe_all(report);
  EXPECT_EQ(report.violations[0].invariant, Invariant::kCausality);
  EXPECT_EQ(report.violations[0].span, 2u);
}

TEST_F(OracleTest, MalformedSpanStructureIsCausalityViolation) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  // Parent id >= child id (and never recorded): structurally impossible
  // in a real log.
  oracle.on_record(sim::TraceRecord{sim::seconds(5), 10,
                                    sim::TraceCategory::kInfo, 3, 7, "x",
                                    ""});
  const OracleReport report = oracle.finish();
  EXPECT_GE(report.violation_total, 1u);
  EXPECT_GE(count_of(report, Invariant::kCausality), 1u)
      << describe_all(report);
}

TEST_F(OracleTest, RecordPredatingItsParentIsCausalityViolation) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  oracle.on_record(sim::TraceRecord{sim::seconds(100), 10,
                                    sim::TraceCategory::kInfo, 1,
                                    sim::kNoSpan, "root", ""});
  oracle.on_record(sim::TraceRecord{sim::seconds(50), 10,
                                    sim::TraceCategory::kInfo, 2, 1, "child",
                                    ""});
  const OracleReport report = oracle.finish();
  ASSERT_EQ(report.violation_total, 1u) << describe_all(report);
  EXPECT_EQ(report.violations[0].invariant, Invariant::kCausality);
}

TEST_F(OracleTest, InterfaceUpInsidePlannedOutageIsViolation) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  // Two overlapping episodes on node 1; merged cover [100 s, 250 s].
  const std::array<net::FailureEpisode, 2> plan{
      net::FailureEpisode{1, net::FailureMode::kBoth, sim::seconds(100),
                          sim::seconds(100)},
      net::FailureEpisode{1, net::FailureMode::kBoth, sim::seconds(150),
                          sim::seconds(100)}};
  oracle.arm(plan, std::vector<sim::NodeId>{});

  net::Message msg;
  msg.src = 1;
  msg.dst = 2;
  // An interface seen up at 210 s while the second episode still
  // covers it (e.g. an application that let the first episode's up-flip
  // at 200 s re-enable it).
  oracle.on_send(msg, /*tx_up=*/true, sim::seconds(210));
  const OracleReport report = oracle.finish();
  ASSERT_EQ(report.violation_total, 1u) << describe_all(report);
  EXPECT_EQ(report.violations[0].invariant, Invariant::kInterface);
  EXPECT_EQ(report.violations[0].node, 1u);
}

TEST_F(OracleTest, InterfaceBoundaryAndOutsideBehaviour) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  const std::array<net::FailureEpisode, 1> plan{net::FailureEpisode{
      1, net::FailureMode::kBoth, sim::seconds(100), sim::seconds(100)}};
  oracle.arm(plan, std::vector<sim::NodeId>{});

  net::Message msg;
  msg.src = 1;
  msg.dst = 1;
  // Down inside the outage: fine. Up at the boundary instants: fine
  // (event ordering at the same timestamp is ambiguous).
  oracle.on_send(msg, /*tx_up=*/false, sim::seconds(150));
  oracle.on_send(msg, /*tx_up=*/true, sim::seconds(100));
  oracle.on_send(msg, /*tx_up=*/true, sim::seconds(200));
  // Up outside: fine.
  oracle.on_arrival(msg, /*rx_up=*/true, /*lost=*/false, sim::seconds(300));
  EXPECT_TRUE(oracle.finish().ok());

  // Down outside every planned outage: violation.
  oracle.begin_run(observer, network, sim::seconds(5400));
  oracle.arm(plan, std::vector<sim::NodeId>{});
  oracle.on_arrival(msg, /*rx_up=*/false, /*lost=*/false, sim::seconds(500));
  const OracleReport report = oracle.finish();
  ASSERT_EQ(report.violation_total, 1u) << describe_all(report);
  EXPECT_EQ(report.violations[0].invariant, Invariant::kInterface);
}

TEST_F(OracleTest, ConvergenceViolationWhenUserStranded) {
  OracleConfig config;
  config.require_convergence = true;
  config.convergence_grace = sim::seconds(10);
  ConsistencyOracle oracle(config);
  oracle.begin_run(observer, network, sim::seconds(5400));
  oracle.arm(std::vector<net::FailureEpisode>{},
             std::vector<sim::NodeId>{11, 12});
  observer.service_changed(2, sim::seconds(1000));
  observer.user_version(11, 2, sim::seconds(1100));
  // User 12 never reaches version 2.
  const OracleReport report = oracle.finish();
  ASSERT_EQ(report.violation_total, 1u) << describe_all(report);
  EXPECT_EQ(report.violations[0].invariant, Invariant::kConvergence);
  EXPECT_EQ(report.violations[0].node, 12u);
}

TEST_F(OracleTest, ConvergenceNotCheckedWithoutQuietTail) {
  OracleConfig config;
  config.require_convergence = true;
  config.convergence_grace = sim::seconds(5400);
  ConsistencyOracle oracle(config);
  oracle.begin_run(observer, network, sim::seconds(5400));
  // Last episode ends at 200 s: 200 s + 5400 s grace > deadline, so the
  // check must not apply even though user 11 is stranded.
  const std::array<net::FailureEpisode, 1> plan{net::FailureEpisode{
      1, net::FailureMode::kBoth, sim::seconds(100), sim::seconds(100)}};
  oracle.arm(plan, std::vector<sim::NodeId>{11});
  observer.service_changed(2, sim::seconds(1000));
  EXPECT_TRUE(oracle.finish().ok());
}

TEST_F(OracleTest, ViolationStorageIsCappedButCounted) {
  OracleConfig config;
  config.max_stored_violations = 3;
  ConsistencyOracle oracle(config);
  oracle.begin_run(observer, network, sim::seconds(5400));
  for (int i = 0; i < 10; ++i) {
    observer.lease_dropped(1, 11, sim::seconds(i));
  }
  const OracleReport report = oracle.finish();
  EXPECT_EQ(report.violation_total, 10u);
  EXPECT_EQ(report.violations.size(), 3u);
}

// --- integration with the experiment harness ---

TEST(OracleIntegration, TraceFingerprintIdenticalWithAndWithoutOracle) {
  experiment::ExperimentConfig config;
  config.model = experiment::SystemModel::kJiniOneRegistry;
  config.lambda = 0.6;
  config.seed = 7;
  config.record_trace = true;
  const metrics::RunRecord baseline = experiment::run_experiment(config);
  ASSERT_NE(baseline.trace_fingerprint, 0u);

  ConsistencyOracle oracle;
  config.oracle = &oracle;
  config.record_trace = false;  // oracle alone forces recording on
  const metrics::RunRecord checked = experiment::run_experiment(config);
  EXPECT_EQ(baseline.trace_fingerprint, checked.trace_fingerprint);
  const OracleReport report = oracle.finish();
  EXPECT_TRUE(report.ok()) << describe_all(report);
  EXPECT_GT(report.records_checked, 0u);
  EXPECT_GT(report.wire_sends, 0u);
}

TEST(OracleIntegration, RealRunsAcrossModelsProduceNoViolations) {
  for (const experiment::SystemModel model : experiment::kAllModels) {
    for (const double lambda : {0.3, 0.9}) {
      for (const int episodes : {1, 3}) {
        for (const double loss : {0.0, 0.2}) {
          experiment::ExperimentConfig config;
          config.model = model;
          config.lambda = lambda;
          config.failure_episodes = episodes;
          config.message_loss_rate = loss;
          config.seed = 11;
          ConsistencyOracle oracle;
          config.oracle = &oracle;
          experiment::run_experiment(config);
          const OracleReport report = oracle.finish();
          EXPECT_TRUE(report.ok())
              << experiment::to_string(model) << " lambda=" << lambda
              << " episodes=" << episodes << " loss=" << loss << "\n"
              << describe_all(report);
          EXPECT_GT(report.records_checked, 0u);
        }
      }
    }
  }
}

TEST(OracleIntegration, LeaseAndVersionCountersSeeRealTraffic) {
  experiment::ExperimentConfig config;
  config.model = experiment::SystemModel::kUpnp;
  config.lambda = 0.0;
  config.seed = 3;
  ConsistencyOracle oracle;
  config.oracle = &oracle;
  experiment::run_experiment(config);
  const OracleReport report = oracle.finish();
  EXPECT_TRUE(report.ok()) << describe_all(report);
  EXPECT_GT(report.leases_tracked, 0u);
  EXPECT_GT(report.version_observations, 0u);
  EXPECT_GT(report.notifications_checked, 0u);
}

}  // namespace
