#include "sdcm/experiment/sink.hpp"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "json_util.hpp"
#include "sdcm/experiment/protocol_registry.hpp"

namespace sdcm::experiment {

void RunSink::on_campaign_begin(const SweepConfig&, std::uint64_t) {}
void RunSink::on_campaign_end(const CampaignSummary&) {}

// ---------------------------------------------------------------------
// ProgressSink
// ---------------------------------------------------------------------

ProgressSink::ProgressSink(std::ostream& out,
                           std::chrono::milliseconds min_interval)
    : out_(out), min_interval_(min_interval) {}

void ProgressSink::on_campaign_begin(const SweepConfig&,
                                     std::uint64_t total_runs) {
  total_ = total_runs;
  done_ = 0;
  start_ = std::chrono::steady_clock::now();
  last_draw_ = start_ - min_interval_;
}

void ProgressSink::on_run(const RunEvent&) {
  ++done_;
  const auto now = std::chrono::steady_clock::now();
  if (done_ == total_ || now - last_draw_ >= min_interval_) {
    last_draw_ = now;
    draw(false);
  }
}

void ProgressSink::on_campaign_end(const CampaignSummary&) { draw(true); }

void ProgressSink::draw(bool final_line) {
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
  const double rate =
      elapsed > 0.0 ? static_cast<double>(done_) / elapsed : 0.0;
  char buf[192];
  if (rate > 0.0 && done_ < total_) {
    const double eta = static_cast<double>(total_ - done_) / rate;
    std::snprintf(buf, sizeof(buf),
                  "\rsweep: %" PRIu64 "/%" PRIu64 " runs  %.1f runs/s  "
                  "ETA %.0f s   ",
                  done_, total_, rate, eta);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "\rsweep: %" PRIu64 "/%" PRIu64 " runs  %.1f runs/s       ",
                  done_, total_, rate);
  }
  out_ << buf;
  if (trace_sink_ != nullptr) {
    std::snprintf(buf, sizeof(buf), "traces: %" PRIu64 " rec / %.1f MB   ",
                  trace_sink_->records_written(),
                  static_cast<double>(trace_sink_->bytes_flushed()) / 1e6);
    out_ << buf;
  }
  if (final_line) out_ << '\n';
  out_.flush();
}

// ---------------------------------------------------------------------
// Campaign-log JSON, written and read through the shared helpers in
// json_util.hpp. Hand-rolled so the number formats are exact: doubles
// as %.17g (shortest lossless round-trip is not needed, 17 significant
// digits always reparse to the same bits) and 64-bit integers in full.
// ---------------------------------------------------------------------

namespace {

using jsonu::append_double;
using jsonu::append_i64;
using obs::append_json_string;
using jsonu::append_u64;
using jsonu::JsonParser;
using jsonu::JsonValue;

/// The "sdcm_campaign" format version. Version 3 is the first whose
/// header carries the whole campaign identity (for_each_identity_field);
/// version 4 adds the consistency mode, the SRN1 toggle and the FRODO
/// lease fields. Every other version is rejected on read.
constexpr std::uint64_t kCampaignLogVersion = 4;

// One emitter and one reader per field type of the campaign log, so the
// header, the run lines and the merge all read and write a field the
// same way. Readers return false on a wrong type or an out-of-range
// value; they never narrow.

void append_json(std::string& out, int v) { append_i64(out, v); }
void append_json(std::string& out, std::int64_t v) { append_i64(out, v); }
void append_json(std::string& out, std::uint64_t v) { append_u64(out, v); }
void append_json(std::string& out, double v) { append_double(out, v); }
void append_json(std::string& out, bool v) { out += v ? "true" : "false"; }
void append_json(std::string& out, std::string_view v) {
  append_json_string(out, v);
}
void append_json(std::string& out, SystemModel v) {
  append_json_string(out, to_string(v));
}
void append_json(std::string& out, WorkloadKind v) {
  append_json_string(out, to_string(v));
}
void append_json(std::string& out, net::FailurePlacement v) {
  append_json_string(out, net::to_string(v));
}
void append_json(std::string& out, ConsistencyMode v) {
  append_json_string(out, to_string(v));
}
/// null or the value.
template <class T>
void append_json(std::string& out, const std::optional<T>& value) {
  if (value.has_value()) {
    append_json(out, *value);
  } else {
    out += "null";
  }
}
template <class T>
void append_json(std::string& out, const std::vector<T>& items) {
  out += '[';
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    append_json(out, items[i]);
  }
  out += ']';
}

/// Appends `"key":value` after `separator` ('{' opens the object).
template <class T>
void append_field(std::string& out, char separator, const char* key,
                  const T& value) {
  out += separator;
  out += '"';
  out += key;
  out += "\":";
  append_json(out, value);
}

bool read_json(const JsonValue& v, int& out) {
  std::int64_t wide = 0;
  if (!v.as_i64(wide) || wide < std::numeric_limits<int>::min() ||
      wide > std::numeric_limits<int>::max()) {
    return false;
  }
  out = static_cast<int>(wide);
  return true;
}
bool read_json(const JsonValue& v, std::int64_t& out) { return v.as_i64(out); }
bool read_json(const JsonValue& v, std::uint64_t& out) {
  return v.as_u64(out);
}
bool read_json(const JsonValue& v, double& out) { return v.as_double(out); }
bool read_json(const JsonValue& v, bool& out) {
  if (v.type != JsonValue::Type::kBool) return false;
  out = v.boolean;
  return true;
}
/// A name that `lookup` resolves to a T.
template <class T, class Lookup>
bool read_name(const JsonValue& v, T& out, Lookup lookup) {
  if (v.type != JsonValue::Type::kString) return false;
  const std::optional<T> found = lookup(v.text);
  if (found) out = *found;
  return found.has_value();
}
bool read_json(const JsonValue& v, SystemModel& out) {
  return read_name(v, out, model_from_name);
}
bool read_json(const JsonValue& v, WorkloadKind& out) {
  return read_name(v, out, workload_from_name);
}
bool read_json(const JsonValue& v, net::FailurePlacement& out) {
  return read_name(v, out, net::placement_from_name);
}
bool read_json(const JsonValue& v, ConsistencyMode& out) {
  return read_name(v, out, consistency_from_name);
}
/// null or a T.
template <class T>
bool read_json(const JsonValue& v, std::optional<T>& out) {
  out.reset();
  if (v.type == JsonValue::Type::kNull) return true;
  return read_json(v, out.emplace());
}
template <class T>
bool read_json(const JsonValue& v, std::vector<T>& out) {
  if (v.type != JsonValue::Type::kArray) return false;
  out.assign(v.items.size(), T{});
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!read_json(v.items[i], out[i])) return false;
  }
  return true;
}

template <class T>
bool get_field(const JsonValue& obj, const char* key, T& out,
               std::string& error) {
  const JsonValue* value = obj.find(key);
  if (value == nullptr || !read_json(*value, out)) {
    error = std::string("missing or invalid field '") + key + "'";
    return false;
  }
  return true;
}

/// The campaign identity as (key, JSON value) pairs in header order,
/// serialised as JsonlSink writes it: what merge_jsonl compares across
/// shards.
std::vector<std::pair<const char*, std::string>> identity_json(
    const SweepConfig& config) {
  std::vector<std::pair<const char*, std::string>> fields;
  for_each_identity_field(config, [&fields](const char* key,
                                            const auto& value) {
    append_json(fields.emplace_back(key, std::string()).second, value);
  });
  return fields;
}

}  // namespace

JsonlSink::JsonlSink(std::ostream& out) : out_(out) {}

void JsonlSink::on_campaign_begin(const SweepConfig& config, std::uint64_t) {
  std::string line;
  append_field(line, '{', "sdcm_campaign", kCampaignLogVersion);
  for_each_identity_field(config, [&line](const char* key, const auto& value) {
    append_field(line, ',', key, value);
  });
  append_field(line, ',', "shard_index", std::uint64_t{config.shard.index});
  append_field(line, ',', "shard_count", std::uint64_t{config.shard.count});
  line += "}\n";
  out_ << line;
}

void JsonlSink::on_run(const RunEvent& event) {
  const metrics::RunRecord& r = *event.record;
  std::string line;
  append_field(line, '{', "point", std::uint64_t{event.point_index});
  append_field(line, ',', "model", event.model);
  append_field(line, ',', "lambda", event.lambda);
  append_field(line, ',', "lambda_index", std::uint64_t{event.lambda_index});
  append_field(line, ',', "run", event.run);
  append_field(line, ',', "seed", event.seed);
  append_field(line, ',', "wall_ns", event.wall_ns);
  line += ",\"record\":";
  append_field(line, '{', "change_time", r.change_time);
  append_field(line, ',', "deadline", r.deadline);
  append_field(line, ',', "user_reach_times", r.user_reach_times);
  append_field(line, ',', "update_messages", r.update_messages);
  append_field(line, ',', "window_messages", r.window_messages);
  append_field(line, ',', "trace_fingerprint", r.trace_fingerprint);
  line += ",\"kernel\":";
  char separator = '{';
  for (const sim::KernelCounter& counter : sim::kKernelCounters) {
    append_field(line, separator, counter.key, r.kernel.*counter.member);
    separator = ',';
  }
  line += "}}}\n";
  out_ << line;
}

// ---------------------------------------------------------------------
// CheckSink
// ---------------------------------------------------------------------

CheckSink::CheckSink(check::OracleConfig base) : base_(base) {}

check::ConsistencyOracle* CheckSink::open_run(SystemModel model,
                                              std::size_t lambda_index,
                                              int run) {
  check::OracleConfig config = base_;
  // The registry's behaviour sheet says whether this protocol promises
  // eventual consistency; only then may the oracle demand convergence.
  if (!protocol_descriptor(model).spec.guarantees_convergence) {
    config.require_convergence = false;
  }
  auto oracle = std::make_unique<check::ConsistencyOracle>(config);
  check::ConsistencyOracle* out = oracle.get();
  const std::lock_guard<std::mutex> lock(mutex_);
  open_[RunKey{model, lambda_index, run}] = std::move(oracle);
  return out;
}

void CheckSink::on_run(const RunEvent& event) {
  std::unique_ptr<check::ConsistencyOracle> oracle;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it =
        open_.find(RunKey{event.model, event.lambda_index, event.run});
    if (it == open_.end()) return;  // run executed without open_run
    oracle = std::move(it->second);
    open_.erase(it);
  }
  check::OracleReport report = oracle->finish();
  runs_checked_.fetch_add(1, std::memory_order_relaxed);
  violation_total_.fetch_add(report.violation_total,
                             std::memory_order_relaxed);
  if (report.violations.empty()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (check::Violation& violation : report.violations) {
    violations_.push_back(CampaignViolation{event.model, event.lambda,
                                            event.run, event.seed,
                                            std::move(violation)});
  }
}

void CheckSink::write_report(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  out << "check: " << runs_checked() << " runs checked, "
      << violation_total() << " violation(s)\n";
  for (const CampaignViolation& v : violations_) {
    out << "  " << to_string(v.model) << " lambda=" << v.lambda << " run="
        << v.run << " seed=" << v.seed << "  " << v.violation.describe()
        << '\n';
  }
}

// ---------------------------------------------------------------------
// ProfileSink
// ---------------------------------------------------------------------

obs::Profiler* ProfileSink::open_run(SystemModel model,
                                     std::size_t lambda_index, int run) {
  auto profiler = std::make_unique<obs::Profiler>();
  obs::Profiler* out = profiler.get();
  const std::lock_guard<std::mutex> lock(mutex_);
  open_[RunKey{model, lambda_index, run}] = std::move(profiler);
  return out;
}

void ProfileSink::on_run(const RunEvent& event) {
  std::unique_ptr<obs::Profiler> profiler;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it =
        open_.find(RunKey{event.model, event.lambda_index, event.run});
    if (it == open_.end()) return;  // run executed without open_run
    profiler = std::move(it->second);
    open_.erase(it);
  }
  // The engine serializes on_run callbacks, so campaign_ needs no lock.
  campaign_.add(to_string(event.model), profiler->snapshot());
  runs_profiled_.fetch_add(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// TraceSink
// ---------------------------------------------------------------------

TraceSink::TraceSink(std::string directory)
    : directory_(std::move(directory)) {
  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
  if (ec) {
    throw std::runtime_error("TraceSink: cannot create directory " +
                             directory_ + ": " + ec.message());
  }
  const std::string manifest_path = directory_ + "/manifest.jsonl";
  manifest_.open(manifest_path, std::ios::trunc);
  if (!manifest_) {
    throw std::runtime_error("TraceSink: cannot write " + manifest_path);
  }
}

std::string TraceSink::run_file_name(SystemModel model,
                                     std::size_t lambda_index, int run) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "_l%02zu_r%03d.jsonl", lambda_index, run);
  return "trace_" + std::string(to_string(model)) + buf;
}

sim::TraceWriter* TraceSink::open_run(SystemModel model,
                                      std::size_t lambda_index, int run) {
  const std::string file = run_file_name(model, lambda_index, run);
  auto opened = std::make_unique<OpenRun>(directory_ + "/" + file);
  opened->file = file;
  if (!opened->out) {
    throw std::runtime_error("TraceSink: cannot write " + directory_ + "/" +
                             file);
  }
  sim::TraceWriter* writer = &opened->writer;
  const std::lock_guard<std::mutex> lock(mutex_);
  open_[RunKey{model, lambda_index, run}] = std::move(opened);
  return writer;
}

void TraceSink::on_campaign_begin(const SweepConfig&, std::uint64_t) {}

void TraceSink::on_run(const RunEvent& event) {
  std::unique_ptr<OpenRun> done;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it =
        open_.find(RunKey{event.model, event.lambda_index, event.run});
    if (it == open_.end()) return;  // run executed without open_run
    done = std::move(it->second);
    open_.erase(it);
  }
  done->out.flush();
  records_.fetch_add(done->writer.records_written(),
                     std::memory_order_relaxed);
  bytes_.fetch_add(done->writer.bytes_written(), std::memory_order_relaxed);

  std::string line;
  append_field(line, '{', "file", std::string_view(done->file));
  append_field(line, ',', "model", event.model);
  append_field(line, ',', "lambda", event.lambda);
  append_field(line, ',', "lambda_index", std::uint64_t{event.lambda_index});
  append_field(line, ',', "run", event.run);
  append_field(line, ',', "seed", event.seed);
  append_field(line, ',', "records", done->writer.records_written());
  append_field(line, ',', "bytes", done->writer.bytes_written());
  append_field(line, ',', "trace_fingerprint",
               event.record->trace_fingerprint);
  line += "}\n";
  const std::lock_guard<std::mutex> lock(mutex_);
  manifest_ << line;
}

void TraceSink::on_campaign_end(const CampaignSummary&) {
  const std::lock_guard<std::mutex> lock(mutex_);
  manifest_.flush();
}

// ---------------------------------------------------------------------
// MultiSink
// ---------------------------------------------------------------------

void MultiSink::add(RunSink* sink) {
  if (sink != nullptr) sinks_.push_back(sink);
}

void MultiSink::on_campaign_begin(const SweepConfig& config,
                                  std::uint64_t total_runs) {
  for (RunSink* sink : sinks_) sink->on_campaign_begin(config, total_runs);
}

void MultiSink::on_run(const RunEvent& event) {
  for (RunSink* sink : sinks_) sink->on_run(event);
}

void MultiSink::on_campaign_end(const CampaignSummary& summary) {
  for (RunSink* sink : sinks_) sink->on_campaign_end(summary);
}

// ---------------------------------------------------------------------
// JSONL parsing and shard merge
// ---------------------------------------------------------------------

std::optional<SweepConfig> parse_jsonl_header(std::string_view line,
                                              std::string& error) {
  JsonValue root;
  if (!JsonParser(line).parse(root, error)) return std::nullopt;
  if (root.type != JsonValue::Type::kObject) {
    error = "header line is not a JSON object";
    return std::nullopt;
  }
  std::uint64_t version = 0;
  if (!get_field(root, "sdcm_campaign", version, error)) return std::nullopt;
  if (version != kCampaignLogVersion) {
    error = "unsupported campaign log version " + std::to_string(version) +
            " (expected " + std::to_string(kCampaignLogVersion);
    if (version == 1) {
      error += "; version 1 logs were written under another multicast RNG "
               "stream and must be regenerated";
    } else if (version == 2) {
      error += "; version 2 logs carry no ablation or workload parameters "
               "and must be regenerated";
    } else if (version == 3) {
      error += "; version 3 logs carry no consistency mode, SRN1 toggle or "
               "FRODO lease parameters and must be regenerated";
    }
    error += ")";
    return std::nullopt;
  }

  SweepConfig config;
  bool ok = true;
  for_each_identity_field(config, [&](const char* key, auto& field) {
    ok = ok && get_field(root, key, field, error);
  });
  std::uint64_t shard_index = 0;
  std::uint64_t shard_count = 0;
  if (!ok || !get_field(root, "shard_index", shard_index, error) ||
      !get_field(root, "shard_count", shard_count, error)) {
    return std::nullopt;
  }
  config.shard = {static_cast<std::size_t>(shard_index),
                  static_cast<std::size_t>(shard_count)};
  if (const auto problem = config.validate()) {
    error = "invalid campaign header: " + *problem;
    return std::nullopt;
  }
  return config;
}

std::optional<CampaignRun> parse_jsonl_run(std::string_view line,
                                           std::string& error) {
  JsonValue root;
  if (!JsonParser(line).parse(root, error)) return std::nullopt;
  if (root.type != JsonValue::Type::kObject) {
    error = "run line is not a JSON object";
    return std::nullopt;
  }

  CampaignRun out;
  std::uint64_t point = 0;
  std::uint64_t lambda_index = 0;
  if (!get_field(root, "point", point, error) ||
      !get_field(root, "model", out.model, error) ||
      !get_field(root, "lambda", out.lambda, error) ||
      !get_field(root, "lambda_index", lambda_index, error) ||
      !get_field(root, "run", out.run, error) ||
      !get_field(root, "seed", out.seed, error) ||
      !get_field(root, "wall_ns", out.wall_ns, error)) {
    return std::nullopt;
  }
  out.point_index = static_cast<std::size_t>(point);
  out.lambda_index = static_cast<std::size_t>(lambda_index);

  const JsonValue* record = root.find("record");
  if (record == nullptr || record->type != JsonValue::Type::kObject) {
    error = "missing or invalid field 'record'";
    return std::nullopt;
  }
  metrics::RunRecord& r = out.record;
  if (!get_field(*record, "change_time", r.change_time, error) ||
      !get_field(*record, "deadline", r.deadline, error) ||
      !get_field(*record, "user_reach_times", r.user_reach_times, error) ||
      !get_field(*record, "update_messages", r.update_messages, error) ||
      !get_field(*record, "window_messages", r.window_messages, error) ||
      !get_field(*record, "trace_fingerprint", r.trace_fingerprint, error)) {
    return std::nullopt;
  }
  const JsonValue* kernel = record->find("kernel");
  if (kernel == nullptr || kernel->type != JsonValue::Type::kObject) {
    error = "missing or invalid field 'kernel'";
    return std::nullopt;
  }
  for (const sim::KernelCounter& counter : sim::kKernelCounters) {
    if (!get_field(*kernel, counter.key, r.kernel.*counter.member, error)) {
      return std::nullopt;
    }
  }
  return out;
}

std::optional<SweepResult> merge_jsonl(std::span<std::istream* const> shards,
                                       std::string& error) {
  if (shards.empty()) {
    error = "no shard logs to merge";
    return std::nullopt;
  }

  std::optional<SweepConfig> campaign;
  // The first shard's identity; every later header must match it.
  std::vector<std::pair<const char*, std::string>> identity;
  SweepResult result;
  std::vector<metrics::StreamingSummary> summaries;
  // point * runs + run of every run line so far, against duplicates.
  // Sized by the lines actually read, never by the header's `runs`: a
  // huge but valid header must not allocate points x runs up front.
  std::unordered_set<std::uint64_t> seen;
  std::uint64_t expected_runs = 0;

  for (std::size_t s = 0; s < shards.size(); ++s) {
    std::istream& in = *shards[s];
    const std::string where = "shard " + std::to_string(s);
    std::string line;
    if (!std::getline(in, line)) {
      error = where + ": empty log";
      return std::nullopt;
    }
    auto header = parse_jsonl_header(line, error);
    if (!header) {
      error = where + ": " + error;
      return std::nullopt;
    }
    if (!campaign) {
      campaign = std::move(header);
      identity = identity_json(*campaign);
      result.points.reserve(campaign->models.size() *
                            campaign->lambdas.size());
      for (const SystemModel model : campaign->models) {
        for (std::size_t li = 0; li < campaign->lambdas.size(); ++li) {
          SweepPoint point;
          point.model = model;
          point.lambda = campaign->lambdas[li];
          point.lambda_index = li;
          result.points.push_back(std::move(point));
          summaries.emplace_back(
              /*expected_runs=*/0,
              metrics::update_metrics::kPaperGlobalMinimumMessages,
              minimum_update_messages(model, campaign->topology.users,
                                      campaign->topology.registries));
        }
      }
      expected_runs = result.points.size() *
                      static_cast<std::uint64_t>(campaign->runs);
    } else {
      const auto fields = identity_json(*header);
      for (std::size_t f = 0; f < fields.size(); ++f) {
        if (fields[f].second != identity[f].second) {
          error = where + ": header field '" + fields[f].first + "' is " +
                  fields[f].second + " but the first shard's campaign has " +
                  identity[f].second;
          return std::nullopt;
        }
      }
    }

    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const auto run = parse_jsonl_run(line, error);
      if (!run) {
        error = where + ": " + error;
        return std::nullopt;
      }
      if (run->point_index >= result.points.size() || run->run < 0 ||
          run->run >= campaign->runs) {
        error = where + ": run outside the campaign grid";
        return std::nullopt;
      }
      const SweepPoint& point = result.points[run->point_index];
      if (point.model != run->model || point.lambda_index != run->lambda_index) {
        error = where + ": run's (model, lambda) disagrees with its point "
                "index";
        return std::nullopt;
      }
      const std::uint64_t key =
          run->point_index * static_cast<std::uint64_t>(campaign->runs) +
          static_cast<std::uint64_t>(run->run);
      if (!seen.insert(key).second) {
        error = where + ": duplicate run (point " +
                std::to_string(run->point_index) + ", run " +
                std::to_string(run->run) + ")";
        return std::nullopt;
      }

      summaries[run->point_index].add(run->run, run->record);
      ++result.summary.runs_completed;
      result.summary.run_wall_ns_total += run->wall_ns;
      result.summary.sim_seconds_total += sim::to_seconds(run->record.deadline);
      sim::accumulate(result.summary.kernel, run->record.kernel);
    }
  }

  if (seen.size() != expected_runs) {
    error = "merged shards cover only " + std::to_string(seen.size()) +
            " of " + std::to_string(expected_runs) +
            " runs (missing a shard?)";
    return std::nullopt;
  }

  for (std::size_t p = 0; p < result.points.size(); ++p) {
    result.points[p].metrics = summaries[p].finalize();
    result.points[p].runs = summaries[p].runs_added();
  }
  result.summary.points = result.points.size();
  // No single wall clock spans machines; report the summed run time.
  result.summary.wall_ns = result.summary.run_wall_ns_total;
  return result;
}

std::optional<SweepResult> merge_jsonl_files(
    std::span<const std::string> paths, std::string& error) {
  std::vector<std::ifstream> files;
  std::vector<std::istream*> streams;
  files.reserve(paths.size());
  for (const std::string& path : paths) {
    if (path == "-") {
      streams.push_back(&std::cin);
      continue;
    }
    files.emplace_back(path);
    if (!files.back()) {
      error = "cannot read " + path;
      return std::nullopt;
    }
    streams.push_back(&files.back());
  }
  return merge_jsonl(streams, error);
}

}  // namespace sdcm::experiment
