#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "sdcm/check/oracle.hpp"
#include "sdcm/experiment/profile.hpp"
#include "sdcm/experiment/sweep.hpp"
#include "sdcm/obs/trace_jsonl.hpp"

namespace sdcm::experiment {

/// One completed run, as delivered to RunSink::on_run. The record
/// pointer is valid only for the duration of the callback; sinks that
/// need it later must copy.
struct RunEvent {
  SystemModel model{};
  double lambda = 0.0;
  /// Index of the (model, lambda) point in the campaign's canonical
  /// order (model-major, lambda-minor) - identical across shards.
  std::size_t point_index = 0;
  std::size_t lambda_index = 0;
  /// Run index within the point.
  int run = 0;
  std::uint64_t seed = 0;
  /// Wall clock of this single run.
  std::uint64_t wall_ns = 0;
  const metrics::RunRecord* record = nullptr;
};

/// Observer of a streaming sweep. The engine serializes every callback
/// under one lock (calls arrive on worker threads, but never two at
/// once), so implementations need no locking of their own; they must
/// only avoid blocking for long, since they stall the pool's result
/// path.
class RunSink {
 public:
  virtual ~RunSink() = default;

  /// Once, before the first run. `total_runs` is the number of runs
  /// this process will execute (after shard selection).
  virtual void on_campaign_begin(const SweepConfig& config,
                                 std::uint64_t total_runs);
  /// Once per completed run.
  virtual void on_run(const RunEvent& event) = 0;
  /// Once, after the last run.
  virtual void on_campaign_end(const CampaignSummary& summary);
};

/// Streams every run's full trace to its own JSONL file under a
/// directory, plus a manifest.jsonl indexing the files with their
/// fingerprints. Wire it via SweepConfig::trace_sink (NOT the regular
/// `sink` chain - run_sweep drives its callbacks itself, after the
/// regular sink's): the engine calls open_run on the worker thread
/// before each run and installs the returned writer as the run's
/// ExperimentConfig::trace_writer; on_run then closes the file and
/// appends the manifest line. Totals are atomics so a ProgressSink can
/// report the trace backlog live from another thread.
class TraceSink final : public RunSink {
 public:
  /// Creates `directory` (and parents) if needed; throws
  /// std::runtime_error when it cannot be created or written.
  explicit TraceSink(std::string directory);

  /// Stable per-run file name, e.g. "trace_FRODO-3party_l06_r007.jsonl".
  static std::string run_file_name(SystemModel model,
                                   std::size_t lambda_index, int run);

  /// Opens the run's trace file and returns the writer to install as the
  /// run's trace_writer. Thread-safe; the writer stays valid until the
  /// matching on_run. Throws std::runtime_error when the file cannot be
  /// opened.
  [[nodiscard]] sim::TraceWriter* open_run(SystemModel model,
                                           std::size_t lambda_index, int run);

  void on_campaign_begin(const SweepConfig& config,
                         std::uint64_t total_runs) override;
  void on_run(const RunEvent& event) override;
  void on_campaign_end(const CampaignSummary& summary) override;

  [[nodiscard]] const std::string& directory() const noexcept {
    return directory_;
  }
  /// Trace records streamed to disk so far (all finished runs).
  [[nodiscard]] std::uint64_t records_written() const noexcept {
    return records_.load(std::memory_order_relaxed);
  }
  /// Bytes flushed to finished trace files so far.
  [[nodiscard]] std::uint64_t bytes_flushed() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  struct OpenRun {
    std::ofstream out;
    obs::JsonlTraceWriter writer;
    std::string file;

    explicit OpenRun(const std::string& path)
        : out(path, std::ios::trunc), writer(out) {}
  };
  using RunKey = std::tuple<SystemModel, std::size_t, int>;

  std::string directory_;
  std::ofstream manifest_;
  std::mutex mutex_;  // guards open_ and manifest_
  std::map<RunKey, std::unique_ptr<OpenRun>> open_;
  std::atomic<std::uint64_t> records_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

/// Runs the consistency oracle over every run of a campaign. Wire it
/// via SweepConfig::check_sink (NOT the regular `sink` chain - like
/// TraceSink the engine drives it itself): the engine calls open_run on
/// the worker thread before each run and installs the returned oracle
/// as the run's ExperimentConfig::oracle; on_run then finishes the
/// oracle and folds its report into the campaign verdict. Convergence
/// is never required for UPnP runs (the model legitimately strands
/// users whose subscription lapsed mid-outage).
class CheckSink final : public RunSink {
 public:
  /// One oracle violation, tagged with the run it came from.
  struct CampaignViolation {
    SystemModel model{};
    double lambda = 0.0;
    int run = 0;
    std::uint64_t seed = 0;
    check::Violation violation;
  };

  explicit CheckSink(check::OracleConfig base = {});

  /// Creates the run's oracle and returns it for installation as the
  /// run's ExperimentConfig::oracle. Thread-safe; the oracle stays
  /// valid until the matching on_run.
  [[nodiscard]] check::ConsistencyOracle* open_run(SystemModel model,
                                                   std::size_t lambda_index,
                                                   int run);

  void on_run(const RunEvent& event) override;

  [[nodiscard]] std::uint64_t runs_checked() const noexcept {
    return runs_checked_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t violation_total() const noexcept {
    return violation_total_.load(std::memory_order_relaxed);
  }
  /// Stored violations (each run caps its own; see OracleConfig). Only
  /// read after run_sweep returns.
  [[nodiscard]] const std::vector<CampaignViolation>& violations()
      const noexcept {
    return violations_;
  }
  /// Human-readable campaign verdict, one line per stored violation.
  void write_report(std::ostream& out) const;

 private:
  using RunKey = std::tuple<SystemModel, std::size_t, int>;

  check::OracleConfig base_;
  mutable std::mutex mutex_;  // guards open_ and violations_
  std::map<RunKey, std::unique_ptr<check::ConsistencyOracle>> open_;
  std::vector<CampaignViolation> violations_;
  std::atomic<std::uint64_t> runs_checked_{0};
  std::atomic<std::uint64_t> violation_total_{0};
};

/// Aggregates every run's wall-clock profile (obs::Profiler) into a
/// per-model CampaignProfile. Wire it via SweepConfig::profile_sink
/// (NOT the regular `sink` chain - like TraceSink the engine drives it
/// itself): the engine calls open_run on the worker thread before each
/// run and installs the returned profiler as the run's
/// ExperimentConfig::profiler; on_run - the engine calls it after every
/// other sink so the engine-side phases are already recorded - then
/// snapshots and folds the run into the campaign aggregate. Read
/// campaign() only after run_sweep returns.
class ProfileSink final : public RunSink {
 public:
  ProfileSink() = default;

  /// Creates the run's profiler and returns it for installation as the
  /// run's ExperimentConfig::profiler. Thread-safe; the profiler stays
  /// valid until the matching on_run.
  [[nodiscard]] obs::Profiler* open_run(SystemModel model,
                                        std::size_t lambda_index, int run);

  void on_run(const RunEvent& event) override;

  [[nodiscard]] std::uint64_t runs_profiled() const noexcept {
    return runs_profiled_.load(std::memory_order_relaxed);
  }
  /// The campaign aggregate; only read after run_sweep returns.
  [[nodiscard]] const CampaignProfile& campaign() const noexcept {
    return campaign_;
  }

 private:
  using RunKey = std::tuple<SystemModel, std::size_t, int>;

  std::mutex mutex_;  // guards open_
  std::map<RunKey, std::unique_ptr<obs::Profiler>> open_;
  CampaignProfile campaign_;  // mutated only under the engine's lock
  std::atomic<std::uint64_t> runs_profiled_{0};
};

/// Live progress on a stream (stderr in sdcm_sweep): done/total,
/// runs/sec and ETA, redrawn in place at most every `min_interval`.
class ProgressSink final : public RunSink {
 public:
  explicit ProgressSink(
      std::ostream& out,
      std::chrono::milliseconds min_interval = std::chrono::milliseconds(200));

  /// Also report `sink`'s live backlog (records / bytes streamed to
  /// disk) on every redraw. Non-owning; may be null to detach.
  void watch_trace_sink(const TraceSink* sink) noexcept {
    trace_sink_ = sink;
  }

  void on_campaign_begin(const SweepConfig& config,
                         std::uint64_t total_runs) override;
  void on_run(const RunEvent& event) override;
  void on_campaign_end(const CampaignSummary& summary) override;

 private:
  void draw(bool final_line);

  std::ostream& out_;
  std::chrono::milliseconds min_interval_;
  std::chrono::steady_clock::time_point start_{};
  std::chrono::steady_clock::time_point last_draw_{};
  std::uint64_t done_ = 0;
  std::uint64_t total_ = 0;
  const TraceSink* trace_sink_ = nullptr;
};

/// The machine-readable campaign log: one JSON object per line. The
/// first line is a campaign header (format version, every campaign
/// identity field of for_each_identity_field, shard); every following
/// line is one run with its full RunRecord.
/// Numbers round-trip exactly (%.17g doubles, decimal uint64s), which
/// is what lets shard logs merge into the bit-identical unsharded
/// result.
class JsonlSink final : public RunSink {
 public:
  explicit JsonlSink(std::ostream& out);

  void on_campaign_begin(const SweepConfig& config,
                         std::uint64_t total_runs) override;
  void on_run(const RunEvent& event) override;

 private:
  std::ostream& out_;
};

/// Fans every callback out to a list of child sinks, in order.
class MultiSink final : public RunSink {
 public:
  MultiSink() = default;

  /// Registers a child (non-owning; ignored when null).
  void add(RunSink* sink);

  void on_campaign_begin(const SweepConfig& config,
                         std::uint64_t total_runs) override;
  void on_run(const RunEvent& event) override;
  void on_campaign_end(const CampaignSummary& summary) override;

 private:
  std::vector<RunSink*> sinks_;
};

/// One parsed run line of a JSONL log (owning copy of the record).
struct CampaignRun {
  std::size_t point_index = 0;
  SystemModel model{};
  double lambda = 0.0;
  std::size_t lambda_index = 0;
  int run = 0;
  std::uint64_t seed = 0;
  std::uint64_t wall_ns = 0;
  metrics::RunRecord record;
};

/// Parses the first line of a JSONL log back into the campaign's
/// SweepConfig: every for_each_identity_field key plus the shard, the
/// result checked by SweepConfig::validate(). Returns std::nullopt with a
/// message on `error` when the line is not a valid campaign header of
/// format version 4 (older versions are rejected, never merged: version
/// 1 logs come from another multicast RNG stream, version 2 logs carry
/// no ablation or workload parameters, version 3 logs no consistency
/// mode, SRN1 toggle or FRODO lease parameters).
std::optional<SweepConfig> parse_jsonl_header(std::string_view line,
                                              std::string& error);

/// Parses one run line of a JSONL log.
std::optional<CampaignRun> parse_jsonl_run(std::string_view line,
                                           std::string& error);

/// Merges shard logs (each produced by JsonlSink over the same campaign
/// config) back into the full sweep: headers must agree on every
/// campaign identity field, every (point, run) must appear exactly
/// once across the inputs, and the rebuilt summaries are bit-identical
/// to the unsharded run_sweep result. On failure returns std::nullopt
/// with a message on `error`.
std::optional<SweepResult> merge_jsonl(std::span<std::istream* const> shards,
                                       std::string& error);

/// Convenience overload reading each path (use "-" for stdin).
std::optional<SweepResult> merge_jsonl_files(
    std::span<const std::string> paths, std::string& error);

}  // namespace sdcm::experiment
