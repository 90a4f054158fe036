#include "sdcm/check/fuzz.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "sdcm/obs/registry.hpp"

namespace {

using namespace sdcm;
using check::FuzzCase;
using check::FuzzConfig;
using check::FuzzResult;
using experiment::SystemModel;

std::string describe_all(const check::OracleReport& report) {
  std::string out;
  for (const check::Violation& violation : report.violations) {
    out += violation.describe() + "\n";
  }
  return out;
}

/// The pinned overlap regression: two overlapping truncated episodes on
/// one node. A plain boolean failure application re-enabled the
/// interfaces mid-outage here (the oracle's interface invariant flagged
/// it); the refcounted application keeps them down.
FuzzCase pinned_overlap_case() {
  FuzzCase pinned;
  pinned.model = SystemModel::kUpnp;
  pinned.seed = 25;
  pinned.plan.lambda = 0.9;
  pinned.plan.episodes = 2;
  pinned.plan.placement = net::FailurePlacement::kTruncated;
  pinned.plan.message_loss_rate = 0.0;
  pinned.plan.converge_shape = false;
  return pinned;
}

/// The pinned delivery-abandonment case: FRODO-3party seed 894,
/// converge-shaped. Two users' receivers are down when the service
/// changes; the registry's push to each exhausts its retransmission
/// budget (one send plus three retries, 2 s apart) inside the outage,
/// nothing re-pushes after recovery, and both users hold version 1
/// forever despite a quiet second half. A genuine property of the
/// reproduced model, surfaced by the fuzzer; it is why
/// require_convergence is opt-in.
FuzzCase stranded_case() {
  FuzzCase stranded;
  stranded.model = SystemModel::kFrodoThreeParty;
  stranded.seed = 894;
  stranded.plan.lambda = 0.15;
  stranded.plan.episodes = 1;
  stranded.plan.placement = net::FailurePlacement::kFitInside;
  stranded.plan.message_loss_rate = 0.0;
  stranded.plan.converge_shape = true;
  return stranded;
}

TEST(FuzzPlanDraw, IsDeterministic) {
  FuzzConfig config;
  const check::FuzzPlan a =
      check::draw_fuzz_plan(SystemModel::kUpnp, 17, config);
  const check::FuzzPlan b =
      check::draw_fuzz_plan(SystemModel::kUpnp, 17, config);
  EXPECT_EQ(a.lambda, b.lambda);
  EXPECT_EQ(a.episodes, b.episodes);
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_EQ(a.message_loss_rate, b.message_loss_rate);
  EXPECT_EQ(a.converge_shape, b.converge_shape);
}

TEST(FuzzPlanDraw, VariesAcrossSeedsAndModels) {
  FuzzConfig config;
  bool seed_varies = false;
  const check::FuzzPlan base =
      check::draw_fuzz_plan(SystemModel::kUpnp, 1, config);
  for (std::uint64_t seed = 2; seed <= 32 && !seed_varies; ++seed) {
    const check::FuzzPlan other =
        check::draw_fuzz_plan(SystemModel::kUpnp, seed, config);
    seed_varies = other.lambda != base.lambda ||
                  other.episodes != base.episodes ||
                  other.placement != base.placement ||
                  other.message_loss_rate != base.message_loss_rate ||
                  other.converge_shape != base.converge_shape;
  }
  EXPECT_TRUE(seed_varies);

  // Same seed, different model: the model name is folded into the
  // stream, so plans differ somewhere over a modest seed range.
  bool model_varies = false;
  for (std::uint64_t seed = 1; seed <= 32 && !model_varies; ++seed) {
    const check::FuzzPlan upnp =
        check::draw_fuzz_plan(SystemModel::kUpnp, seed, config);
    const check::FuzzPlan jini =
        check::draw_fuzz_plan(SystemModel::kJiniOneRegistry, seed, config);
    model_varies = upnp.lambda != jini.lambda ||
                   upnp.episodes != jini.episodes ||
                   upnp.placement != jini.placement ||
                   upnp.message_loss_rate != jini.message_loss_rate ||
                   upnp.converge_shape != jini.converge_shape;
  }
  EXPECT_TRUE(model_varies);
}

TEST(FuzzSweep, ChurnWorkloadReachesTheRunAndStaysClean) {
  // Churn rewrites the multicast subscription index on every depart and
  // rejoin; the oracle must stay clean across it.
  FuzzConfig config;
  config.models = {SystemModel::kFrodoThreeParty};
  config.seed_begin = 1;
  config.seed_end = 7;
  config.workload_choices = {experiment::WorkloadKind::kChurn};
  const FuzzResult result = check::run_fuzz(config);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.cases_run, 6u);
  // The plan's workload lands in the experiment config verbatim.
  FuzzCase fuzz_case;
  fuzz_case.model = SystemModel::kFrodoThreeParty;
  fuzz_case.seed = 1;
  fuzz_case.plan = check::draw_fuzz_plan(fuzz_case.model, 1, config);
  EXPECT_EQ(fuzz_case.plan.workload, experiment::WorkloadKind::kChurn);
  const auto run_config = check::fuzz_experiment_config(fuzz_case, config);
  EXPECT_EQ(run_config.workload.kind, experiment::WorkloadKind::kChurn);
}

TEST(FuzzRegression, RefcountedFailuresPassTheSameCase) {
  FuzzConfig config;
  const check::OracleReport report =
      check::run_fuzz_case(pinned_overlap_case(), config);
  EXPECT_TRUE(report.ok()) << describe_all(report);
}

TEST(FuzzShrink, MinimizedStrandedCaseStillFailsAndKeepsTheConvergeShape) {
  FuzzConfig config;
  config.require_convergence = true;
  // Message loss is noise the shrinker must strip: without it the case
  // is exactly the pinned stranded run, which still fails.
  FuzzCase noisy = stranded_case();
  noisy.plan.message_loss_rate = 0.2;
  int shrink_runs = 0;
  const FuzzCase minimized =
      check::shrink_fuzz_case(noisy, config, shrink_runs);
  EXPECT_GT(shrink_runs, 0);
  // Convergence is only demanded of converge-shaped plans; the shrinker
  // must not "minimize" its way past the failure.
  EXPECT_TRUE(minimized.plan.converge_shape);
  EXPECT_EQ(minimized.plan.message_loss_rate, 0.0);
  EXPECT_FALSE(check::run_fuzz_case(minimized, config).ok());
}

TEST(FuzzSweep, CleanSweepFindsNothing) {
  FuzzConfig config;
  config.models = {SystemModel::kUpnp, SystemModel::kFrodoThreeParty};
  config.seed_begin = 1;
  config.seed_end = 5;
  const FuzzResult result = check::run_fuzz(config);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.cases_run, 8u);
  EXPECT_TRUE(result.findings.empty());
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(FuzzSweep, ConvergenceSweepFindsTheStrandedFrodoUser) {
  namespace fs = std::filesystem;
  const fs::path dump = fs::path(::testing::TempDir()) / "sdcm_fuzz_dump";
  fs::remove_all(dump);
  FuzzConfig config;
  config.models = {SystemModel::kFrodoThreeParty};
  config.seed_begin = 894;
  config.seed_end = 895;
  config.require_convergence = true;
  config.dump_dir = dump.string();
  std::ostringstream log;
  config.log = &log;
  const FuzzResult result = check::run_fuzz(config);
  ASSERT_EQ(result.findings.size(), 1u);
  const check::FuzzFinding& finding = result.findings.front();
  EXPECT_EQ(finding.original.model, SystemModel::kFrodoThreeParty);
  EXPECT_EQ(finding.original.seed, 894u);
  EXPECT_TRUE(finding.original.plan.converge_shape);
  EXPECT_FALSE(finding.report.ok());
  EXPECT_GT(finding.shrink_runs, 0);
  EXPECT_LE(finding.minimized.plan.episodes, finding.original.plan.episodes);
  EXPECT_FALSE(log.str().empty());

  // The repro bundle: every file present and non-empty, and registry.txt
  // is the minimized run's metrics registry in the `sdcm_logs
  // --histograms` rendering, recovery counters included.
  ASSERT_FALSE(finding.dump_path.empty());
  const fs::path dir(finding.dump_path);
  for (const char* name :
       {"trace.jsonl", "tree.txt", "repro.txt", "registry.txt"}) {
    EXPECT_FALSE(read_file(dir / name).empty()) << name;
  }
  const experiment::TracedExperiment traced =
      experiment::run_experiment_traced(
          check::fuzz_experiment_config(finding.minimized, config));
  ASSERT_FALSE(traced.obs.empty());
  std::ostringstream expected;
  obs::write_registry_text(expected, traced.obs);
  const std::string registry = read_file(dir / "registry.txt");
  EXPECT_EQ(registry, expected.str());
  EXPECT_NE(registry.find("recovery.frodo."), std::string::npos) << registry;
  fs::remove_all(dump);
}

TEST(FuzzConfigShaping, ConvergeShapeExtendsRunAndGatesOracle) {
  FuzzCase shaped;
  shaped.model = SystemModel::kFrodoThreeParty;
  shaped.plan.converge_shape = true;
  FuzzConfig config;
  const experiment::ExperimentConfig experiment_config =
      check::fuzz_experiment_config(shaped, config);
  EXPECT_EQ(experiment_config.failure_horizon,
            experiment_config.duration / 2);
  // Convergence is opt-in: the models do not guarantee it.
  EXPECT_FALSE(check::fuzz_oracle_config(shaped, config).require_convergence);
  config.require_convergence = true;
  EXPECT_TRUE(check::fuzz_oracle_config(shaped, config).require_convergence);

  // UPnP's polling model offers no convergence bound: never required.
  shaped.model = SystemModel::kUpnp;
  EXPECT_FALSE(check::fuzz_oracle_config(shaped, config).require_convergence);
}

TEST(FuzzSweep, MdnsConvergesUnderChurnWithConvergenceRequired) {
  // The decentralized model's strongest claim: with require_convergence
  // on - the strict mode that hunts delivery-abandonment cases in the
  // registry-based protocols - mDNS produces no findings, because its
  // periodic full-record announcements repair any missed change burst
  // once connectivity returns. The whole observability stack (oracle,
  // shrinker, plan generator) runs unchanged against the new protocol.
  FuzzConfig config;
  config.models = {SystemModel::kMdns};
  config.seed_begin = 1;
  config.seed_end = 25;
  config.require_convergence = true;
  const FuzzResult result = check::run_fuzz(config);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.cases_run, 24u);
  EXPECT_TRUE(result.findings.empty());
}

TEST(FuzzRegression, RetransmissionAbandonmentStrandsAFrodoUser) {
  FuzzConfig config;
  const check::OracleReport lenient =
      check::run_fuzz_case(stranded_case(), config);
  EXPECT_TRUE(lenient.ok()) << describe_all(lenient);

  config.require_convergence = true;
  const check::OracleReport strict =
      check::run_fuzz_case(stranded_case(), config);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.violations[0].invariant, check::Invariant::kConvergence);
}

}  // namespace
