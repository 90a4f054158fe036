#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sdcm/experiment/protocol_registry.hpp"
#include "sdcm/experiment/scenario.hpp"
#include "sdcm/metrics/streaming.hpp"
#include "sdcm/metrics/update_metrics.hpp"

namespace sdcm::experiment {

class RunSink;      // sink.hpp
class TraceSink;    // sink.hpp
class CheckSink;    // sink.hpp
class ProfileSink;  // sink.hpp

/// Section 4.2's two consistency-maintenance mechanisms: CM1 update
/// notification (the paper's evaluated setup), CM2 persistent polling,
/// or both at once. Applies to UPnP, Jini and FRODO.
enum class ConsistencyMode : std::uint8_t { kCm1, kCm2, kCm1Cm2 };

std::string_view to_string(ConsistencyMode mode) noexcept;
std::optional<ConsistencyMode> consistency_from_name(
    std::string_view name) noexcept;

/// The CM2 poll period of every polling campaign.
inline constexpr sim::SimDuration kCm2PollPeriod = sim::seconds(600);

/// The declarative per-run overrides of the paper's ablation studies:
/// every recovery-technique toggle (Table 4), the failure-episode
/// placement and count (DESIGN.md decision 1), the companion study's
/// message-loss rate, the CM1/CM2 mode and the FRODO subscription lease
/// and renewal point (DESIGN.md decision 3). The engine applies the spec
/// to every run, so ablation campaigns are plain data: they serialize,
/// compare and log.
struct AblationSpec {
  bool frodo_pr1 = true;
  /// Off = FrodoConfig::srn1_retries of 0 (no SRN1 retransmission).
  bool frodo_srn1 = true;
  bool frodo_srn2 = true;
  bool frodo_pr3 = true;
  bool frodo_pr4 = true;
  bool frodo_pr5 = true;
  bool upnp_pr4 = true;
  bool upnp_pr5 = true;
  net::FailurePlacement placement = net::FailurePlacement::kFitInside;
  int episodes = 1;
  /// Independent per-delivery loss probability; 0 in the paper's
  /// interface-failure experiments.
  double message_loss_rate = 0.0;
  ConsistencyMode consistency = ConsistencyMode::kCm1;
  /// FrodoConfig::subscription_lease and renew_fraction (their defaults).
  sim::SimDuration frodo_subscription_lease = sim::seconds(1800);
  double frodo_renew_fraction = 0.5;

  void apply(ExperimentConfig& run) const;
};

/// One recovery-technique toggle of AblationSpec: its campaign-log key,
/// its sdcm_sweep flag, the technique the protocol descriptors consume,
/// and the spec member. The CLI, SweepConfig::validate and the campaign
/// identity all loop over kAblationToggles.
struct AblationToggleRow {
  const char* key;
  const char* flag;
  AblationToggle toggle;
  bool AblationSpec::*member;
};

inline constexpr AblationToggleRow kAblationToggles[] = {
    {"frodo_pr1", "--no-frodo-pr1", AblationToggle::kFrodoPr1,
     &AblationSpec::frodo_pr1},
    {"frodo_srn1", "--no-frodo-srn1", AblationToggle::kFrodoSrn1,
     &AblationSpec::frodo_srn1},
    {"frodo_srn2", "--no-frodo-srn2", AblationToggle::kFrodoSrn2,
     &AblationSpec::frodo_srn2},
    {"frodo_pr3", "--no-frodo-pr3", AblationToggle::kFrodoPr3,
     &AblationSpec::frodo_pr3},
    {"frodo_pr4", "--no-frodo-pr4", AblationToggle::kFrodoPr4,
     &AblationSpec::frodo_pr4},
    {"frodo_pr5", "--no-frodo-pr5", AblationToggle::kFrodoPr5,
     &AblationSpec::frodo_pr5},
    {"upnp_pr4", "--no-upnp-pr4", AblationToggle::kUpnpPr4,
     &AblationSpec::upnp_pr4},
    {"upnp_pr5", "--no-upnp-pr5", AblationToggle::kUpnpPr5,
     &AblationSpec::upnp_pr5},
};

/// Deterministic campaign partition: shard `index` of `count` executes
/// the jobs whose stable (model, lambda index, run) key hashes to it,
/// so a campaign splits across machines and the JSONL shard logs merge
/// back into the identical unsharded result (sink.hpp, merge_jsonl).
struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;

  [[nodiscard]] bool is_sharded() const noexcept { return count > 1; }
};

/// A full Section 5 experiment: every selected system model simulated at
/// every failure rate, X runs per point.
struct SweepConfig {
  std::vector<SystemModel> models{std::begin(kAllModels),
                                  std::end(kAllModels)};
  /// Failure rates; default 0.00 .. 0.90 in 0.05 steps (19 points).
  std::vector<double> lambdas = paper_lambda_grid();
  /// Runs per (model, lambda) point. The paper simulates 30 logs per
  /// point.
  int runs = 30;
  /// Node population applied to every run (U Users / M Managers / R
  /// registries; see TopologySpec). The default is the paper topology.
  TopologySpec topology{};
  std::uint64_t master_seed = 20060425;  // IPDPS 2006
  /// 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Typed ablation overrides, applied to every run by the engine.
  AblationSpec ablation;
  /// Typed workload applied to every run (churn/storm/saturation;
  /// kStatic = the plain paper scenario). Applied alongside `ablation`.
  WorkloadSpec workload;
  /// Retain every RunRecord in SweepPoint::records. Off by default:
  /// the streaming aggregation makes per-point memory independent of
  /// the run count, which buffering records would undo.
  bool keep_records = false;
  /// Which slice of the campaign this process executes.
  ShardSpec shard;
  /// Observer notified once per completed run (non-owning; may be
  /// null). See sink.hpp for the built-in sinks.
  RunSink* sink = nullptr;
  /// Streams every run's full trace to per-run JSONL files (non-owning;
  /// may be null). Driven by the engine itself - open_run on the worker
  /// thread before each run, callbacks after the regular `sink`'s - so
  /// do not also register it in the `sink` chain.
  TraceSink* trace_sink = nullptr;
  /// Runs the consistency oracle over every run (non-owning; may be
  /// null). Driven by the engine like trace_sink: open_run before each
  /// run, callbacks after the regular `sink`'s. Composes with
  /// trace_sink - the oracle tees the trace stream downstream.
  CheckSink* check_sink = nullptr;
  /// Profiles every run's wall clock (non-owning; may be null). Driven
  /// by the engine like trace_sink: open_run hands each run its own
  /// obs::Profiler (installed as ExperimentConfig::profiler), and the
  /// engine's sink/oracle callbacks are themselves timed into the
  /// run's phase.sink_flush / phase.oracle_check before the profile is
  /// folded into the campaign aggregate. Per-event attribution needs a
  /// -DSDCM_PROFILE=ON build; phase timers work in every build.
  ProfileSink* profile_sink = nullptr;

  static std::vector<double> paper_lambda_grid();

  /// std::nullopt when the config is runnable; otherwise a message
  /// naming the first problem (empty models/lambdas, non-positive
  /// runs/users/managers, a registry override on a registry-less
  /// model, lambda outside [0, 1], a non-positive FRODO lease or a
  /// renew fraction outside (0, 1), malformed shard).
  [[nodiscard]] std::optional<std::string> validate() const;
};

/// The campaign identity: every SweepConfig field that decides what a
/// campaign's runs compute, with its campaign-log header key, in header
/// order (the shard, threads, sinks and keep_records are not identity).
/// JsonlSink writes the header from this table, parse_jsonl_header reads
/// it back and merge_jsonl compares shards field by field, so a field
/// listed here is logged, parsed and checked everywhere. Calls
/// `visit(key, field)` once per field; `Config` is SweepConfig or const
/// SweepConfig.
template <class Config, class Visit>
void for_each_identity_field(Config& config, Visit&& visit) {
  visit("models", config.models);
  visit("lambdas", config.lambdas);
  visit("runs", config.runs);
  visit("users", config.topology.users);
  visit("managers", config.topology.managers);
  visit("registries", config.topology.registries);
  visit("seed", config.master_seed);
  for (const AblationToggleRow& row : kAblationToggles) {
    visit(row.key, config.ablation.*row.member);
  }
  visit("placement", config.ablation.placement);
  visit("episodes", config.ablation.episodes);
  visit("message_loss_rate", config.ablation.message_loss_rate);
  visit("consistency", config.ablation.consistency);
  visit("frodo_subscription_lease", config.ablation.frodo_subscription_lease);
  visit("frodo_renew_fraction", config.ablation.frodo_renew_fraction);
  auto& churn = config.workload.churn;
  auto& storm = config.workload.storm;
  auto& saturation = config.workload.saturation;
  visit("workload", config.workload.kind);
  visit("churn_sessions", churn.sessions);
  visit("churn_window_start", churn.window_start);
  visit("churn_window_end", churn.window_end);
  visit("churn_min_down", churn.min_down);
  visit("churn_max_down", churn.max_down);
  visit("churn_users", churn.churn_users);
  visit("churn_manager", churn.churn_manager);
  visit("churn_permanent_leave_fraction", churn.permanent_leave_fraction);
  visit("storm_bursts", storm.bursts);
  visit("storm_announcements_per_burst", storm.announcements_per_burst);
  visit("storm_first_burst", storm.first_burst);
  visit("storm_burst_spacing", storm.burst_spacing);
  visit("storm_mitigation_jitter", storm.mitigation_jitter);
  visit("saturation_link_rate_hz", saturation.link_rate_hz);
  visit("saturation_burst_capacity", saturation.burst_capacity);
  visit("saturation_queue_limit", saturation.queue_limit);
}

struct SweepPoint {
  SystemModel model{};
  double lambda = 0.0;
  /// Index of `lambda` in SweepConfig::lambdas - part of the stable
  /// (model, lambda_index, run) identity used for seeding and sharding.
  std::size_t lambda_index = 0;
  /// Runs executed by this process (less than SweepConfig::runs when
  /// sharded; a merged campaign reports the full count).
  int runs = 0;
  metrics::MetricsSummary metrics;
  /// Raw per-run records, only when SweepConfig::keep_records is set.
  /// Sized to SweepConfig::runs; in sharded sweeps only this shard's
  /// slots are filled.
  std::vector<metrics::RunRecord> records;
};

/// Whole-campaign telemetry accumulated while the sweep streams.
struct CampaignSummary {
  std::uint64_t runs_completed = 0;
  std::uint64_t points = 0;
  /// Wall clock of the whole campaign (thread-parallel time).
  std::uint64_t wall_ns = 0;
  /// Sum of per-run wall clocks (total CPU-ish work).
  std::uint64_t run_wall_ns_total = 0;
  /// Simulated seconds covered (sum of run horizons).
  double sim_seconds_total = 0.0;
  /// Kernel counter totals across every run (peak_heap_size is a max).
  sim::KernelStats kernel;

  [[nodiscard]] double wall_seconds() const noexcept {
    return static_cast<double>(wall_ns) / 1e9;
  }
  [[nodiscard]] double runs_per_second() const noexcept;
  [[nodiscard]] double events_per_second() const noexcept;
  /// Simulated seconds per wall second - how much faster than real time
  /// the campaign ran.
  [[nodiscard]] double sim_speedup() const noexcept;
};

/// What run_sweep returns: the per-point summaries plus the campaign
/// telemetry. Converts to a span of points so the report emitters and
/// bench helpers keep reading it as "the points".
struct SweepResult {
  std::vector<SweepPoint> points;
  CampaignSummary summary;

  [[nodiscard]] auto begin() const noexcept { return points.begin(); }
  [[nodiscard]] auto end() const noexcept { return points.end(); }
  [[nodiscard]] std::size_t size() const noexcept { return points.size(); }
  // NOLINTNEXTLINE(google-explicit-constructor)
  operator std::span<const SweepPoint>() const noexcept { return points; }
};

/// Deterministic: the run seed depends only on (master_seed, model,
/// lambda index, run index), so results are stable across thread counts
/// and shard assignments.
std::uint64_t run_seed(std::uint64_t master_seed, SystemModel model,
                       std::size_t lambda_index, int run_index);

/// Stable shard assignment of one job. Depends only on the job's
/// (model, lambda_index, run_index) key and the shard count - not on
/// the master seed, the models order, or any other config - so every
/// shard of a campaign agrees on the partition.
std::size_t shard_of(SystemModel model, std::size_t lambda_index,
                     int run_index, std::size_t shard_count);

/// Executes the (shard of the) sweep on a thread pool, streaming each
/// completed run into the per-point StreamingSummary aggregation and
/// the optional sink. Points are ordered by (model, lambda) exactly as
/// configured. Throws std::invalid_argument when validate() fails.
SweepResult run_sweep(const SweepConfig& config);

}  // namespace sdcm::experiment
