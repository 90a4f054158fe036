// Property tests over whole traced runs: the causal-span invariants hold
// for every protocol model at every failure regime, and the hot-path
// histograms a traced run feeds agree with the paper's transport model.
#include <gtest/gtest.h>

#include <string>

#include "sdcm/experiment/scenario.hpp"
#include "sdcm/obs/span_tree.hpp"

namespace sdcm::obs {
namespace {

using experiment::ExperimentConfig;
using experiment::kAllModels;
using experiment::run_experiment_traced;
using experiment::SystemModel;

TEST(TracedRuns, SpanGraphIsAForestForEveryModelAndFailureRate) {
  for (const SystemModel model : kAllModels) {
    for (const double lambda : {0.0, 0.3, 0.9}) {
      ExperimentConfig config;
      config.model = model;
      config.lambda = lambda;
      config.seed = 20060425;
      const auto traced = run_experiment_traced(config);
      ASSERT_FALSE(traced.trace.records().empty());
      const auto violation = check_span_forest(traced.trace.records());
      EXPECT_EQ(violation, std::nullopt)
          << to_string(model) << " lambda " << lambda << ": " << *violation;
    }
  }
}

TEST(TracedRuns, TracedAndPlainRunsAgreeOnBehaviour) {
  // run_experiment_traced must replay the exact run run_experiment does:
  // same seed, same record, same fingerprint.
  ExperimentConfig config;
  config.model = SystemModel::kFrodoThreeParty;
  config.lambda = 0.3;
  config.seed = 7;
  config.record_trace = true;
  const auto plain = experiment::run_experiment(config);
  const auto traced = run_experiment_traced(config);
  EXPECT_EQ(traced.record.trace_fingerprint, plain.trace_fingerprint);
  EXPECT_EQ(traced.trace.fingerprint(), plain.trace_fingerprint);
  EXPECT_EQ(traced.record.update_messages, plain.update_messages);
}

TEST(TracedRuns, HopDelayHistogramMatchesTable3TransportModel) {
  // Table 3: every per-hop delay is drawn U(10 us, 100 us). On a
  // failure-free run the histogram must lie entirely inside that range.
  ExperimentConfig config;
  config.model = SystemModel::kFrodoThreeParty;
  config.lambda = 0.0;
  config.seed = 1;
  const auto traced = run_experiment_traced(config);
  const Histogram* hops = traced.obs.find_histogram("net.hop_delay_us");
  ASSERT_NE(hops, nullptr);
  ASSERT_GT(hops->count(), 0u);
  EXPECT_GE(hops->min(), 10u);
  EXPECT_LE(hops->max(), 100u);
  // The fixed bounds {9,10,25,50,75,100} bracket the range: nothing may
  // land in the (0,9] underflow or the >100 overflow bucket.
  for (const auto& bucket : hops->buckets()) {
    EXPECT_GT(bucket.upper, 9u);
    EXPECT_LE(bucket.upper, 100u);
  }
}

TEST(TracedRuns, NotificationLatencyIsRecordedPerReachedUser) {
  ExperimentConfig config;
  config.model = SystemModel::kFrodoThreeParty;
  config.lambda = 0.0;
  config.seed = 1;
  const auto traced = run_experiment_traced(config);
  const Histogram* latency =
      traced.obs.find_histogram("update.notification_latency_us");
  ASSERT_NE(latency, nullptr);
  std::uint64_t reached = 0;
  for (const auto& t : traced.record.user_reach_times) {
    if (t.has_value()) ++reached;
  }
  EXPECT_EQ(latency->count(), reached);
  EXPECT_EQ(reached, 5u);  // failure-free: all users reach version 2
}

TEST(TracedRuns, ObsInstrumentationDoesNotPerturbTheTrace) {
  // A traced run attaches the registry and a plain run does not; the
  // golden fingerprints pin both to the same simulated behaviour (see
  // TraceEquivalence.ScopedRngGoldenFingerprints). Here every model's
  // traced run must actually have fed the registry and replayed the
  // plain run's trace.
  for (const SystemModel model : kAllModels) {
    ExperimentConfig config;
    config.model = model;
    config.lambda = 0.3;
    config.seed = 3;
    config.record_trace = true;
    const auto traced = run_experiment_traced(config);
    EXPECT_FALSE(traced.obs.empty()) << to_string(model);
    const auto plain = experiment::run_experiment(config);
    EXPECT_EQ(traced.record.trace_fingerprint, plain.trace_fingerprint)
        << to_string(model);
  }
}

}  // namespace
}  // namespace sdcm::obs
