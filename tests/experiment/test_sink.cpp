#include "sdcm/experiment/sink.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace sdcm::experiment {
namespace {

/// Records every callback; relies on the engine's serialization
/// guarantee (no internal locking on purpose - a data race here would
/// trip TSan and the duplicate detection below).
class RecordingSink final : public RunSink {
 public:
  void on_campaign_begin(const SweepConfig&, std::uint64_t total) override {
    ++begins;
    total_runs = total;
  }
  void on_run(const RunEvent& event) override {
    const auto key = std::make_pair(event.point_index, event.run);
    EXPECT_TRUE(seen.insert(key).second)
        << "duplicate run delivered: point " << event.point_index << " run "
        << event.run;
    EXPECT_NE(event.record, nullptr);
    EXPECT_GT(event.seed, 0u);
  }
  void on_campaign_end(const CampaignSummary& summary) override {
    ++ends;
    runs_at_end = summary.runs_completed;
  }

  int begins = 0;
  int ends = 0;
  std::uint64_t total_runs = 0;
  std::uint64_t runs_at_end = 0;
  std::set<std::pair<std::size_t, int>> seen;
};

SweepConfig tiny_config() {
  SweepConfig config;
  config.models = {SystemModel::kUpnp, SystemModel::kFrodoTwoParty};
  config.lambdas = {0.0, 0.3};
  config.runs = 3;
  config.threads = 4;
  return config;
}

TEST(Sink, EveryRunDeliveredExactlyOnceUnderThreadPool) {
  auto config = tiny_config();
  RecordingSink sink;
  config.sink = &sink;
  const auto result = run_sweep(config);
  EXPECT_EQ(sink.begins, 1);
  EXPECT_EQ(sink.ends, 1);
  EXPECT_EQ(sink.total_runs, 12u);
  EXPECT_EQ(sink.seen.size(), 12u);
  EXPECT_EQ(sink.runs_at_end, 12u);
  EXPECT_EQ(result.summary.runs_completed, 12u);
}

TEST(Sink, MultiSinkFansOutInOrder) {
  auto config = tiny_config();
  config.runs = 1;
  RecordingSink a, b;
  MultiSink multi;
  multi.add(&a);
  multi.add(nullptr);  // ignored
  multi.add(&b);
  config.sink = &multi;
  (void)run_sweep(config);
  EXPECT_EQ(a.seen.size(), 4u);
  EXPECT_EQ(b.seen.size(), 4u);
  EXPECT_EQ(a.begins, 1);
  EXPECT_EQ(b.ends, 1);
}

TEST(Sink, ProgressSinkDrawsAndFinishesWithNewline) {
  auto config = tiny_config();
  config.threads = 1;
  std::ostringstream out;
  // Zero interval: every run redraws, so the output is deterministic
  // in shape (carriage returns, then a final newline).
  ProgressSink progress(out, std::chrono::milliseconds(0));
  config.sink = &progress;
  (void)run_sweep(config);
  const std::string text = out.str();
  EXPECT_NE(text.find("sweep:"), std::string::npos);
  EXPECT_NE(text.find("12/12"), std::string::npos);
  EXPECT_NE(text.find('\r'), std::string::npos);
  EXPECT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
}

TEST(Sink, JsonlRoundTripsRunsExactly) {
  auto config = tiny_config();
  config.keep_records = true;
  std::ostringstream log;
  JsonlSink sink(log);
  config.sink = &sink;
  const auto result = run_sweep(config);

  std::istringstream in(log.str());
  std::string line;
  std::string error;

  ASSERT_TRUE(std::getline(in, line));
  const auto header = parse_jsonl_header(line, error);
  ASSERT_TRUE(header.has_value()) << error;
  EXPECT_EQ(header->models, config.models);
  EXPECT_EQ(header->lambdas, config.lambdas);
  EXPECT_EQ(header->runs, config.runs);
  EXPECT_EQ(header->topology.users, config.topology.users);
  EXPECT_EQ(header->master_seed, config.master_seed);
  EXPECT_EQ(header->shard.count, 1u);

  std::size_t parsed = 0;
  while (std::getline(in, line)) {
    const auto run = parse_jsonl_run(line, error);
    ASSERT_TRUE(run.has_value()) << error << " in: " << line;
    ASSERT_LT(run->point_index, result.points.size());
    const auto& point = result.points[run->point_index];
    EXPECT_EQ(run->model, point.model);
    EXPECT_EQ(run->lambda, point.lambda);
    EXPECT_EQ(run->seed, run_seed(config.master_seed, run->model,
                                  run->lambda_index, run->run));
    // The record must round-trip bit-exactly - this is what makes the
    // shard merge reproduce the unsharded metrics.
    const auto& original =
        point.records[static_cast<std::size_t>(run->run)];
    EXPECT_EQ(run->record.change_time, original.change_time);
    EXPECT_EQ(run->record.deadline, original.deadline);
    ASSERT_EQ(run->record.user_reach_times.size(),
              original.user_reach_times.size());
    for (std::size_t u = 0; u < original.user_reach_times.size(); ++u) {
      EXPECT_EQ(run->record.user_reach_times[u],
                original.user_reach_times[u]);
    }
    EXPECT_EQ(run->record.update_messages, original.update_messages);
    EXPECT_EQ(run->record.window_messages, original.window_messages);
    EXPECT_EQ(run->record.trace_fingerprint, original.trace_fingerprint);
    EXPECT_EQ(run->record.kernel.events_fired, original.kernel.events_fired);
    EXPECT_EQ(run->record.kernel.udp_sent, original.kernel.udp_sent);
    ++parsed;
  }
  EXPECT_EQ(parsed, 12u);
}

TEST(Sink, MergeRejectsCorruptCampaigns) {
  auto config = tiny_config();
  config.runs = 2;
  std::ostringstream log;
  JsonlSink sink(log);
  config.sink = &sink;
  (void)run_sweep(config);
  const std::string good = log.str();
  std::string error;

  {  // A complete single log merges fine.
    std::istringstream in(good);
    std::istream* shards[] = {&in};
    EXPECT_TRUE(merge_jsonl(shards, error).has_value()) << error;
  }
  {  // Duplicated run line.
    const auto last = good.rfind('\n', good.size() - 2);
    const std::string dup = good + good.substr(last + 1);
    std::istringstream in(dup);
    std::istream* shards[] = {&in};
    EXPECT_FALSE(merge_jsonl(shards, error).has_value());
    EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
  }
  {  // Truncated log: a run is missing.
    const auto last = good.rfind("\n{");
    std::istringstream in(good.substr(0, last + 1));
    std::istream* shards[] = {&in};
    EXPECT_FALSE(merge_jsonl(shards, error).has_value());
    EXPECT_NE(error.find("missing"), std::string::npos) << error;
  }
  {  // Second shard from a different campaign (other seed).
    auto other = config;
    other.master_seed = 7;
    std::ostringstream other_log;
    JsonlSink other_sink(other_log);
    other.sink = &other_sink;
    (void)run_sweep(other);
    std::istringstream in0(good), in1(other_log.str());
    std::istream* shards[] = {&in0, &in1};
    EXPECT_FALSE(merge_jsonl(shards, error).has_value());
  }
  {  // A version 3 log lacks the consistency and FRODO lease fields.
    const std::string v4 = "{\"sdcm_campaign\":4,";
    ASSERT_EQ(good.rfind(v4, 0), 0u);
    std::istringstream in("{\"sdcm_campaign\":3," + good.substr(v4.size()));
    std::istream* shards[] = {&in};
    EXPECT_FALSE(merge_jsonl(shards, error).has_value());
    EXPECT_NE(error.find("version 3 logs"), std::string::npos) << error;
  }
  {  // A raw control byte inside a string is not JSON.
    std::string bad = good;
    const auto at = bad.find("\"static\"");
    ASSERT_NE(at, std::string::npos);
    bad[at + 3] = '\x01';
    std::istringstream in(bad);
    std::istream* shards[] = {&in};
    EXPECT_FALSE(merge_jsonl(shards, error).has_value());
    EXPECT_NE(error.find("raw control character"), std::string::npos)
        << error;
  }
  {  // Garbage input.
    std::istringstream in("not json\n");
    std::istream* shards[] = {&in};
    EXPECT_FALSE(merge_jsonl(shards, error).has_value());
  }
  // Header fields that older logs could omit are required now.
  for (const std::string field : {"managers", "registries", "workload"}) {
    const auto at = good.find(",\"" + field + "\":");
    ASSERT_NE(at, std::string::npos) << field;
    const auto end = good.find_first_of(",}", at + 1);
    std::istringstream in(good.substr(0, at) + good.substr(end));
    std::istream* shards[] = {&in};
    EXPECT_FALSE(merge_jsonl(shards, error).has_value()) << field;
    EXPECT_NE(error.find(field), std::string::npos) << error;
  }
  {  // Shard index outside the shard count.
    std::string bad = good;
    const std::string index = "\"shard_index\":0,\"shard_count\":1";
    const auto at = bad.find(index);
    ASSERT_NE(at, std::string::npos);
    bad.replace(at, index.size(), "\"shard_index\":7,\"shard_count\":2");
    std::istringstream in(bad);
    std::istream* shards[] = {&in};
    EXPECT_FALSE(merge_jsonl(shards, error).has_value());
    EXPECT_NE(error.find("shard index 7"), std::string::npos) << error;
  }
}

TEST(Sink, MergeRejectsOutOfRangeIntegers) {
  // Integers beyond int range are rejected where they are read, never
  // narrowed: 2^32 + 1 would otherwise alias run 1, 2^32 + 2 runs 2.
  auto config = tiny_config();
  config.runs = 2;
  std::ostringstream log;
  JsonlSink sink(log);
  config.sink = &sink;
  (void)run_sweep(config);
  const std::string good = log.str();
  const auto replace_first = [&good](const std::string& from,
                                     const std::string& to) {
    std::string out = good;
    const auto at = out.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) out.replace(at, from.size(), to);
    return out;
  };
  const struct {
    std::string log;
    const char* field;
  } cases[] = {
      {replace_first("\"run\":1,", "\"run\":4294967297,"), "'run'"},
      {replace_first("\"runs\":2,", "\"runs\":4294967298,"), "'runs'"},
  };
  for (const auto& c : cases) {
    std::string error;
    std::istringstream in(c.log);
    std::istream* shards[] = {&in};
    EXPECT_FALSE(merge_jsonl(shards, error).has_value()) << c.field;
    EXPECT_NE(error.find(c.field), std::string::npos) << error;
  }
}

TEST(Sink, MergeBoundsMemoryByRunLinesNotHeaderRuns) {
  // A header whose `runs` is huge but in int range, followed by a
  // single run line: merge must report the missing runs without first
  // allocating points x runs of bookkeeping (~8.6e9 slots here), even
  // when that one line carries a run index near INT_MAX.
  auto config = tiny_config();
  config.runs = 1;
  std::ostringstream log;
  JsonlSink sink(log);
  config.sink = &sink;
  (void)run_sweep(config);
  const std::string good = log.str();
  const auto header_end = good.find('\n');
  const auto run_end = good.find('\n', header_end + 1);
  ASSERT_NE(run_end, std::string::npos);
  std::string header = good.substr(0, header_end + 1);
  const std::string runs_key = "\"runs\":1,";
  ASSERT_NE(header.find(runs_key), std::string::npos);
  header.replace(header.find(runs_key), runs_key.size(),
                 "\"runs\":2147483646,");
  const std::string first_run =
      good.substr(header_end + 1, run_end - header_end);
  std::string far_run = first_run;
  const std::string run_key = "\"run\":0,";
  ASSERT_NE(far_run.find(run_key), std::string::npos);
  far_run.replace(far_run.find(run_key), run_key.size(),
                  "\"run\":2147483645,");

  for (const std::string& run_line : {first_run, far_run}) {
    std::string error;
    std::istringstream in(header + run_line);
    std::istream* shards[] = {&in};
    EXPECT_FALSE(merge_jsonl(shards, error).has_value());
    EXPECT_NE(error.find("cover only 1 of 8589934584 runs"),
              std::string::npos)
        << error;
  }
}

/// Changes one identity field to another valid value of its type.
struct Perturb {
  void operator()(std::vector<SystemModel>& models) const {
    for (const SystemModel model : kAllModels) {
      if (std::find(models.begin(), models.end(), model) == models.end()) {
        models.push_back(model);
        return;
      }
    }
  }
  void operator()(std::vector<double>& lambdas) const {
    lambdas.back() += 0.125;
  }
  void operator()(int& value) const { value += 2; }
  void operator()(std::int64_t& value) const { value += sim::seconds(1); }
  void operator()(std::uint64_t& value) const { ++value; }
  void operator()(double& value) const { value += 0.125; }
  void operator()(bool& value) const { value = !value; }
  void operator()(net::FailurePlacement& placement) const {
    placement = placement == net::FailurePlacement::kFitInside
                    ? net::FailurePlacement::kTruncated
                    : net::FailurePlacement::kFitInside;
  }
  void operator()(ConsistencyMode& mode) const {
    mode = mode == ConsistencyMode::kCm1 ? ConsistencyMode::kCm2
                                         : ConsistencyMode::kCm1;
  }
  void operator()(WorkloadKind& kind) const {
    kind = kind == WorkloadKind::kStatic ? WorkloadKind::kChurn
                                         : WorkloadKind::kStatic;
  }
};

TEST(Sink, MergeRefusesEveryIdentityFieldMismatch) {
  // For every row of the campaign identity table, a second shard whose
  // config differs in that one field must be refused, naming the key.
  // Two bases between them admit a valid change of every field: the
  // UPnP toggles need UPnP, a registry override needs registry models.
  SweepConfig upnp_base;
  upnp_base.models = {SystemModel::kUpnp, SystemModel::kFrodoThreeParty};
  upnp_base.lambdas = {0.0, 0.3};
  SweepConfig registry_base = upnp_base;
  registry_base.models = {SystemModel::kFrodoThreeParty,
                          SystemModel::kJiniTwoRegistries};

  std::vector<std::string> keys;
  for_each_identity_field(upnp_base, [&keys](const char* key, const auto&) {
    keys.emplace_back(key);
  });
  ASSERT_GE(keys.size(), 30u);

  for (std::size_t row = 0; row < keys.size(); ++row) {
    bool refused = false;
    for (const SweepConfig* base : {&upnp_base, &registry_base}) {
      SweepConfig changed = *base;
      std::size_t index = 0;
      for_each_identity_field(changed, [&](const char*, auto& field) {
        if (index++ == row) Perturb{}(field);
      });
      if (changed.validate().has_value()) continue;

      // Header-only shards: the headers are compared before any run.
      std::ostringstream log0, log1;
      JsonlSink(log0).on_campaign_begin(*base, 0);
      JsonlSink(log1).on_campaign_begin(changed, 0);

      std::istringstream in0(log0.str()), in1(log1.str());
      std::istream* shards[] = {&in0, &in1};
      std::string error;
      EXPECT_FALSE(merge_jsonl(shards, error).has_value()) << keys[row];
      EXPECT_NE(error.find("'" + keys[row] + "'"), std::string::npos)
          << keys[row] << ": " << error;
      EXPECT_NE(error.find("first shard"), std::string::npos) << error;
      refused = true;
      break;
    }
    EXPECT_TRUE(refused) << "no valid change of '" << keys[row] << "'";
  }
}

}  // namespace
}  // namespace sdcm::experiment
