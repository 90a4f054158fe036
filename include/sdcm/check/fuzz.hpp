#pragma once

#include <cstdint>
#include <iosfwd>
#include <iterator>
#include <string>
#include <vector>

#include "sdcm/check/oracle.hpp"
#include "sdcm/experiment/scenario.hpp"

namespace sdcm::check {

/// One randomized fault plan, as drawn by the fuzzer. Everything the
/// oracle's invariants are sensitive to is here: the interface-outage
/// shape (rate, episode count, placement) and the independent
/// per-message loss rate of the companion communication-failure model.
struct FuzzPlan {
  double lambda = 0.3;
  int episodes = 1;
  net::FailurePlacement placement = net::FailurePlacement::kFitInside;
  double message_loss_rate = 0.0;
  /// Shapes the run so eventual consistency is guaranteed by
  /// construction - no message loss, all outages end by mid-run, quiet
  /// second half - which lets the oracle require convergence (except
  /// for UPnP, which legitimately strands users).
  bool converge_shape = false;
  /// Synthetic workload layered on the run (default spec of the kind;
  /// kStatic = none). Drawn last, so enabling workload fuzzing never
  /// re-rolls the fault-plan fields of an existing (model, seed) case.
  experiment::WorkloadKind workload = experiment::WorkloadKind::kStatic;
};

std::string to_string(const FuzzPlan& plan);

/// A fully determined fuzz input: (model, seed, plan) reproduces the
/// run bit-for-bit.
struct FuzzCase {
  experiment::SystemModel model{};
  std::uint64_t seed = 1;
  FuzzPlan plan;
};

std::string to_string(const FuzzCase& fuzz_case);

struct FuzzConfig {
  std::vector<experiment::SystemModel> models{
      std::begin(experiment::kAllModels), std::end(experiment::kAllModels)};
  /// Seeds swept per model: [seed_begin, seed_end).
  std::uint64_t seed_begin = 1;
  std::uint64_t seed_end = 9;
  /// Choice grids the deterministic plan generator draws from.
  std::vector<double> lambdas{0.15, 0.3, 0.6, 0.9};
  std::vector<int> episode_choices{1, 2, 3};
  std::vector<double> loss_rates{0.0, 0.05, 0.2};
  /// Workload kinds the plan generator draws from; empty (the default)
  /// keeps every plan kStatic. The converge-shaped fuzz lanes include
  /// churn deliberately: a rejoining node must re-converge too.
  std::vector<experiment::WorkloadKind> workload_choices{};
  int users = 5;
  /// Base oracle settings; require_convergence is managed per-case from
  /// the plan's converge_shape and the flag below.
  OracleConfig oracle;
  /// Opt-in: require convergence on converge-shaped plans (non-UPnP).
  /// Off by default because the reproduced protocols do not guarantee
  /// bounded-time convergence - e.g. FRODO's registry abandons a push
  /// after its retransmission budget, so a user whose receiver is down
  /// for the whole retry window legitimately stays stale forever
  /// (FRODO-3party seed 238 demonstrates this). Turning this on makes
  /// the fuzzer hunt exactly such delivery-abandonment cases.
  bool require_convergence = false;
  /// Greedily shrink each failing case to a minimal failing case.
  bool shrink = true;
  /// Per-shrink-session run budget.
  int max_shrink_runs = 64;
  /// When set, each finding's minimized case is re-run traced and
  /// dumped under this directory: trace JSONL, propagation tree,
  /// repro instructions.
  std::string dump_dir;
  /// Progress/finding log (e.g. &std::cerr); null = silent.
  std::ostream* log = nullptr;
};

struct FuzzFinding {
  FuzzCase original;
  FuzzCase minimized;
  /// The minimized case's oracle report.
  OracleReport report;
  int shrink_runs = 0;
  /// Directory the repro artifacts were written to (empty = no dump).
  std::string dump_path;
};

struct FuzzResult {
  std::vector<FuzzFinding> findings;
  std::uint64_t cases_run = 0;

  [[nodiscard]] bool ok() const noexcept { return findings.empty(); }
};

/// The deterministic plan for (model, seed): same inputs, same plan,
/// independent of every other case.
FuzzPlan draw_fuzz_plan(experiment::SystemModel model, std::uint64_t seed,
                        const FuzzConfig& config);

/// Translates a case into the run's ExperimentConfig (oracle not set;
/// the caller attaches one).
experiment::ExperimentConfig fuzz_experiment_config(const FuzzCase& fuzz_case,
                                                    const FuzzConfig& config);

/// Oracle settings for a case: config.oracle with require_convergence
/// derived from the plan shape and the model.
OracleConfig fuzz_oracle_config(const FuzzCase& fuzz_case,
                                const FuzzConfig& config);

/// Runs one case under the oracle and returns its report.
OracleReport run_fuzz_case(const FuzzCase& fuzz_case,
                           const FuzzConfig& config);

/// Greedy shrink: repeatedly tries simplifications (drop loss, drop the
/// convergence shaping, fewer episodes, fit-inside placement, smaller
/// lambda) and keeps those that still violate, to a fixpoint or the run
/// budget. `runs_used` counts the extra runs spent.
FuzzCase shrink_fuzz_case(const FuzzCase& failing, const FuzzConfig& config,
                          int& runs_used);

/// The sweep: every model x seed, oracle on each run, shrink + dump on
/// violation.
FuzzResult run_fuzz(const FuzzConfig& config);

}  // namespace sdcm::check
