// Determinism pin for the discrete-event kernel: same (model, lambda,
// seed) must replay bit-identical event logs, and the logs must match
// pinned golden fingerprints.

#include <gtest/gtest.h>

#include <cstdint>

#include "sdcm/experiment/scenario.hpp"

namespace sdcm::experiment {
namespace {

metrics::RunRecord traced_run(SystemModel model, double lambda,
                              std::uint64_t seed) {
  ExperimentConfig config;
  config.model = model;
  config.lambda = lambda;
  config.seed = seed;
  config.record_trace = true;
  return run_experiment(config);
}

TEST(TraceEquivalence, SameSeedReplaysIdenticalTrace) {
  for (const auto model : kAllModels) {
    const auto first = traced_run(model, 0.30, 42);
    const auto second = traced_run(model, 0.30, 42);
    EXPECT_NE(first.trace_fingerprint, 0u) << to_string(model);
    EXPECT_EQ(first.trace_fingerprint, second.trace_fingerprint)
        << to_string(model);
  }
}

TEST(TraceEquivalence, DifferentSeedsDiverge) {
  const auto a = traced_run(SystemModel::kFrodoThreeParty, 0.30, 42);
  const auto b = traced_run(SystemModel::kFrodoThreeParty, 0.30, 43);
  EXPECT_NE(a.trace_fingerprint, b.trace_fingerprint);
}

// Golden fingerprints at seed 42, pinned from the commit that
// introduced interest-scoped multicast (only subscribers draw delay and
// loss) and kept since that became the only multicast behaviour. The
// two FRODO-3party values were re-pinned when the Central stopped
// notifying interested Users of a version they had already reported
// holding. Any event-queue change that reorders
// same-time events, alters id assignment visible through timer
// semantics, or perturbs RNG stream consumption shows up here as a
// mismatch. Regenerate only for a change that is *supposed* to alter
// simulated behaviour, never for a kernel refactor. Each value is also
// reached through run_experiment_traced, which attaches the metrics
// registry, so the pins prove that observing a run never perturbs it.
TEST(TraceEquivalence, ScopedRngGoldenFingerprints) {
  struct Golden {
    SystemModel model;
    double lambda;
    std::uint64_t fingerprint;
  };
  const Golden goldens[] = {
      {SystemModel::kUpnp, 0.0, 0x7617305a37547c95ull},
      {SystemModel::kJiniOneRegistry, 0.0, 0xb176c0f852e3ab64ull},
      {SystemModel::kJiniTwoRegistries, 0.0, 0xbe90207ae5f06c7dull},
      {SystemModel::kFrodoThreeParty, 0.0, 0x2a297fe3b29d041eull},
      {SystemModel::kFrodoTwoParty, 0.0, 0xd5015b12b0358e42ull},
      {SystemModel::kMdns, 0.0, 0xcba6197845d8ffa6ull},
      {SystemModel::kUpnp, 0.30, 0xfce910c0fd915db9ull},
      {SystemModel::kJiniOneRegistry, 0.30, 0x7d6aaac0019bc82dull},
      {SystemModel::kJiniTwoRegistries, 0.30, 0x9e36f0f617f8d9a6ull},
      {SystemModel::kFrodoThreeParty, 0.30, 0xc9b8c6c71664a0d1ull},
      {SystemModel::kFrodoTwoParty, 0.30, 0x1afb7312f89bf0f5ull},
      {SystemModel::kMdns, 0.30, 0xb020a958592e6f1eull},
  };
  for (const auto& golden : goldens) {
    const auto run = traced_run(golden.model, golden.lambda, 42);
    EXPECT_EQ(run.trace_fingerprint, golden.fingerprint)
        << to_string(golden.model) << " lambda=" << golden.lambda
        << " actual=0x" << std::hex << run.trace_fingerprint;
    // The same run with the metrics registry attached: observing must
    // never perturb the simulation.
    ExperimentConfig config;
    config.model = golden.model;
    config.lambda = golden.lambda;
    config.seed = 42;
    const auto observed = run_experiment_traced(config);
    EXPECT_FALSE(observed.obs.empty()) << to_string(golden.model);
    EXPECT_EQ(observed.record.trace_fingerprint, golden.fingerprint)
        << to_string(golden.model) << " lambda=" << golden.lambda
        << " traced actual=0x" << std::hex
        << observed.record.trace_fingerprint;
  }
}

// The goldens above are 5-User static runs whose queue stays about 300
// deep. This one is a FRODO-3party churn run at 10^3 Users, whose queue
// peaks at 19,137 live events: a heap that reorders events only at
// depth, or that schedules or cancels one event more or less, fails
// here. The trace is streamed to a counting writer, which keeps the
// fingerprint without holding every record in memory.
TEST(TraceEquivalence, DeepQueueChurnGolden) {
  struct CountingWriter final : sim::TraceWriter {
    std::uint64_t records = 0;
    void on_record(const sim::TraceRecord&) override { ++records; }
  } writer;
  ExperimentConfig config;
  config.model = SystemModel::kFrodoThreeParty;
  config.lambda = 0.30;
  config.seed = 42;
  config.topology.users = 1000;
  config.workload.kind = WorkloadKind::kChurn;
  config.trace_writer = &writer;
  const auto run = run_experiment(config);
  EXPECT_EQ(run.trace_fingerprint, 0xd2b4bdf2b34cc925ull)
      << "actual=0x" << std::hex << run.trace_fingerprint;
  EXPECT_EQ(run.kernel.events_scheduled, 164192u);
  EXPECT_EQ(run.kernel.events_cancelled, 35391u);
  EXPECT_EQ(run.kernel.events_fired, 124828u);
  EXPECT_EQ(run.kernel.peak_heap_size, 19137u);
  EXPECT_EQ(writer.records, run.kernel.trace_records);
}

// The kernel counters ride along with every run; sanity-pin the shape
// (exact values are covered by the event-queue unit tests).
TEST(TraceEquivalence, KernelStatsAreThreadedThroughRuns) {
  const auto upnp = traced_run(SystemModel::kUpnp, 0.30, 42);
  EXPECT_GT(upnp.kernel.events_scheduled, 0u);
  EXPECT_GT(upnp.kernel.events_fired, 0u);
  EXPECT_GT(upnp.kernel.peak_heap_size, 0u);
  EXPECT_GT(upnp.kernel.trace_records, 0u);
  EXPECT_GT(upnp.kernel.tcp_sent, 0u);  // UPnP unicasts over TCP
  EXPECT_GT(upnp.kernel.udp_sent, 0u);  // ssdp:alive multicast

  const auto frodo = traced_run(SystemModel::kFrodoTwoParty, 0.30, 42);
  EXPECT_EQ(frodo.kernel.tcp_sent, 0u);  // FRODO is UDP-only
  EXPECT_GT(frodo.kernel.udp_sent, 0u);
  // Interface failures at lambda=0.3 must actually drop wire copies.
  EXPECT_GT(frodo.kernel.udp_copies_dropped_tx +
                frodo.kernel.udp_deliveries_dropped_rx,
            0u);
}

}  // namespace
}  // namespace sdcm::experiment
