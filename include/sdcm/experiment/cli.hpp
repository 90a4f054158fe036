#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sdcm/experiment/sweep.hpp"

namespace sdcm::experiment::cli {

/// Parsed command line of the `sdcm_sweep` tool. The ablation toggles
/// live in `sweep.ablation` (the typed AblationSpec the engine applies).
struct Options {
  SweepConfig sweep;
  /// Where to write the CSV ("-" = stdout only).
  std::string output = "-";
  /// Machine-readable campaign log, one JSON object per run (JsonlSink);
  /// empty = off, "-" = stdout.
  std::string jsonl;
  /// Where to write the campaign summary JSON; empty = stderr only.
  std::string summary;
  /// Directory for per-run trace JSONL files + manifest (TraceSink);
  /// empty = off.
  std::string traces;
  /// Shard logs to merge instead of running a sweep (--merge=a,b,...).
  std::vector<std::string> merge_inputs;
  /// Run the consistency oracle on every run (CheckSink); the process
  /// exits 1 when any invariant is violated.
  bool check = false;
  /// Profile every run's wall clock (ProfileSink) and write the
  /// campaign profile JSONL. Default path (when `profile_path` is
  /// empty): "<jsonl>.profile.jsonl" next to the campaign log, or
  /// "profile.jsonl" when no --jsonl was given.
  bool profile = false;
  std::string profile_path;
  /// "paper": run every paper campaign (claims.hpp) at `sweep.runs` and
  /// `sweep.threads` and print the claims report instead of one sweep.
  std::string report;
  /// Live progress on stderr (--no-progress disables).
  bool progress = true;
  bool help = false;
};

/// Parses argv. Returns std::nullopt (with a message on `error`) when the
/// arguments are malformed. Accepted flags:
///   --models=UPnP,Jini-1R,Jini-2R,FRODO-3party,FRODO-2party
///   --lambdas=0.0:0.9:0.05  (min:max:step)  or  --lambdas=0.1,0.5
///   --runs=N  --users=N  --managers=N  --registries=N
///   --threads=N  --seed=N
///   --output=FILE  --jsonl=FILE  --summary=FILE  --traces=DIR
///   --shard=i/N    deterministic 1-of-N campaign slice
///   --merge=A,B    merge shard JSONL logs instead of sweeping
///   --no-frodo-pr1 --no-frodo-srn1 --no-frodo-srn2 --no-frodo-pr3
///   --no-frodo-pr4 --no-frodo-pr5 --no-upnp-pr4 --no-upnp-pr5
///   --placement=fit|truncated  --episodes=N  --loss=P
///   --check        run the consistency oracle on every run
///   --profile[=FILE]  profile every run; write the campaign profile JSONL
///   --report=paper    run the paper campaigns, print the claims report
///   --no-progress
///   --help
std::optional<Options> parse(int argc, const char* const* argv,
                             std::string& error);

/// Usage text for --help / errors.
std::string usage();

/// Resolves a model name ("UPnP", "Jini-1R", ...) case-sensitively.
std::optional<SystemModel> model_from_name(std::string_view name);

/// Parses "i/N" into a ShardSpec (i in [0, N), N >= 1).
std::optional<ShardSpec> parse_shard(std::string_view text);

}  // namespace sdcm::experiment::cli
