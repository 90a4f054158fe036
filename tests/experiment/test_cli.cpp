#include "sdcm/experiment/cli.hpp"

#include <gtest/gtest.h>

#include <iterator>

namespace sdcm::experiment::cli {
namespace {

std::optional<Options> parse_args(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"sdcm_sweep"};
  argv.insert(argv.end(), args.begin(), args.end());
  std::string error;
  return parse(static_cast<int>(argv.size()), argv.data(), error);
}

TEST(Cli, DefaultsMatchThePaperDesign) {
  const auto options = parse_args({});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->sweep.models.size(), std::size(kAllModels));
  EXPECT_EQ(options->sweep.lambdas.size(), 19u);
  EXPECT_EQ(options->sweep.runs, 30);
  EXPECT_EQ(options->sweep.topology.users, 5);
  EXPECT_TRUE(options->sweep.ablation.frodo_pr1);
  EXPECT_FALSE(options->sweep.shard.is_sharded());
  EXPECT_TRUE(options->jsonl.empty());
  EXPECT_TRUE(options->merge_inputs.empty());
  EXPECT_TRUE(options->progress);
  EXPECT_EQ(options->output, "-");
}

TEST(Cli, ModelsListParses) {
  const auto options = parse_args({"--models=UPnP,FRODO-2party"});
  ASSERT_TRUE(options.has_value());
  ASSERT_EQ(options->sweep.models.size(), 2u);
  EXPECT_EQ(options->sweep.models[0], SystemModel::kUpnp);
  EXPECT_EQ(options->sweep.models[1], SystemModel::kFrodoTwoParty);
}

TEST(Cli, UnknownModelRejected) {
  std::string error;
  const char* argv[] = {"sdcm_sweep", "--models=Bonjour"};
  EXPECT_FALSE(parse(2, argv, error).has_value());
  EXPECT_NE(error.find("Bonjour"), std::string::npos);
}

TEST(Cli, LambdaRangeParses) {
  const auto options = parse_args({"--lambdas=0.0:0.2:0.1"});
  ASSERT_TRUE(options.has_value());
  ASSERT_EQ(options->sweep.lambdas.size(), 3u);
  EXPECT_DOUBLE_EQ(options->sweep.lambdas[2], 0.2);
}

TEST(Cli, LambdaListParses) {
  const auto options = parse_args({"--lambdas=0.15,0.45"});
  ASSERT_TRUE(options.has_value());
  ASSERT_EQ(options->sweep.lambdas.size(), 2u);
  EXPECT_DOUBLE_EQ(options->sweep.lambdas[0], 0.15);
}

TEST(Cli, BadLambdaRejected) {
  std::string error;
  const char* argv[] = {"sdcm_sweep", "--lambdas=0.5:0.1:0.1"};
  EXPECT_FALSE(parse(2, argv, error).has_value());
  const char* argv2[] = {"sdcm_sweep", "--lambdas=1.5"};
  EXPECT_FALSE(parse(2, argv2, error).has_value());
}

TEST(Cli, NumericFlags) {
  const auto options = parse_args(
      {"--runs=50", "--users=7", "--threads=4", "--seed=99", "--episodes=2"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->sweep.runs, 50);
  EXPECT_EQ(options->sweep.topology.users, 7);
  EXPECT_EQ(options->sweep.threads, 4u);
  EXPECT_EQ(options->sweep.master_seed, 99u);
  EXPECT_EQ(options->sweep.ablation.episodes, 2);
}

TEST(Cli, ZeroRunsRejected) {
  std::string error;
  const char* argv[] = {"sdcm_sweep", "--runs=0"};
  EXPECT_FALSE(parse(2, argv, error).has_value());
}

TEST(Cli, AblationTogglesAndPlacement) {
  const auto options = parse_args({"--no-frodo-pr1", "--no-frodo-srn1",
                                   "--no-upnp-pr5", "--placement=truncated"});
  ASSERT_TRUE(options.has_value());
  const AblationSpec& spec = options->sweep.ablation;
  EXPECT_FALSE(spec.frodo_pr1);
  EXPECT_FALSE(spec.frodo_srn1);
  EXPECT_FALSE(spec.upnp_pr5);
  EXPECT_TRUE(spec.frodo_srn2);
  EXPECT_EQ(spec.placement, net::FailurePlacement::kTruncated);

  ExperimentConfig run;
  spec.apply(run);
  EXPECT_FALSE(run.frodo.enable_pr1);
  EXPECT_EQ(run.frodo.srn1_retries, 0);
  EXPECT_FALSE(run.upnp.enable_pr5);
  EXPECT_TRUE(run.frodo.enable_srn2);
  EXPECT_EQ(run.failure_placement, net::FailurePlacement::kTruncated);
}

TEST(Cli, ShardFlagParses) {
  const auto options = parse_args({"--shard=1/4"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->sweep.shard.index, 1u);
  EXPECT_EQ(options->sweep.shard.count, 4u);
  EXPECT_TRUE(options->sweep.shard.is_sharded());
}

TEST(Cli, BadShardRejected) {
  for (const char* bad : {"--shard=4/4", "--shard=-1/2", "--shard=1",
                          "--shard=a/b", "--shard=1/0"}) {
    std::string error;
    const char* argv[] = {"sdcm_sweep", bad};
    EXPECT_FALSE(parse(2, argv, error).has_value()) << bad;
  }
}

TEST(Cli, JsonlMergeSummaryAndLossFlags) {
  const auto options = parse_args({"--jsonl=out.jsonl", "--summary=s.json",
                                   "--merge=a.jsonl,b.jsonl", "--loss=0.2",
                                   "--report=paper", "--no-progress"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->jsonl, "out.jsonl");
  EXPECT_EQ(options->summary, "s.json");
  ASSERT_EQ(options->merge_inputs.size(), 2u);
  EXPECT_EQ(options->merge_inputs[0], "a.jsonl");
  EXPECT_DOUBLE_EQ(options->sweep.ablation.message_loss_rate, 0.2);
  EXPECT_EQ(options->report, "paper");
  EXPECT_FALSE(options->progress);
}

TEST(Cli, UnknownFlagRejected) {
  std::string error;
  const char* argv[] = {"sdcm_sweep", "--frobnicate"};
  EXPECT_FALSE(parse(2, argv, error).has_value());
  EXPECT_NE(error.find("frobnicate"), std::string::npos);
  const char* report[] = {"sdcm_sweep", "--report=html"};
  EXPECT_FALSE(parse(2, report, error).has_value());
  // The removed multicast mode flag is unknown too, and the help text
  // names no mode, so tools probing it for "scoped-rng" drop the flag.
  const char* scope[] = {"sdcm_sweep", "--multicast-scope=scoped-rng"};
  EXPECT_FALSE(parse(2, scope, error).has_value());
  EXPECT_NE(error.find("unknown flag '--multicast-scope'"), std::string::npos)
      << error;
  EXPECT_EQ(usage().find("scoped-rng"), std::string::npos);
}

TEST(Cli, HelpShortCircuits) {
  const auto options = parse_args({"--help"});
  ASSERT_TRUE(options.has_value());
  EXPECT_TRUE(options->help);
  EXPECT_NE(usage().find("--models"), std::string::npos);
}

TEST(Cli, ModelNamesRoundTrip) {
  for (const auto model : kAllModels) {
    EXPECT_EQ(model_from_name(to_string(model)), model);
  }
  EXPECT_FALSE(model_from_name("SLP").has_value());
}

}  // namespace
}  // namespace sdcm::experiment::cli
