#include "sdcm/check/fuzz.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <utility>

#include "sdcm/experiment/protocol_registry.hpp"
#include "sdcm/obs/registry.hpp"
#include "sdcm/obs/span_tree.hpp"
#include "sdcm/obs/trace_jsonl.hpp"
#include "sdcm/sim/random.hpp"

namespace sdcm::check {

namespace {

std::string format_double(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

/// File-system friendly identity of a case (model names use '-', which
/// is fine in file names).
std::string case_slug(const FuzzCase& fuzz_case) {
  return std::string(experiment::to_string(fuzz_case.model)) + "_seed" +
         std::to_string(fuzz_case.seed);
}

}  // namespace

std::string to_string(const FuzzPlan& plan) {
  std::string out = "lambda=" + format_double(plan.lambda);
  out += " episodes=" + std::to_string(plan.episodes);
  out += " placement=";
  out += plan.placement == net::FailurePlacement::kFitInside ? "fit"
                                                             : "truncated";
  out += " loss=" + format_double(plan.message_loss_rate);
  if (plan.converge_shape) out += " converge";
  if (plan.workload != experiment::WorkloadKind::kStatic) {
    out += " workload=";
    out += experiment::to_string(plan.workload);
  }
  return out;
}

std::string to_string(const FuzzCase& fuzz_case) {
  std::string out = "model=";
  out += experiment::to_string(fuzz_case.model);
  out += " seed=" + std::to_string(fuzz_case.seed);
  out += ' ';
  out += to_string(fuzz_case.plan);
  return out;
}

FuzzPlan draw_fuzz_plan(experiment::SystemModel model, std::uint64_t seed,
                        const FuzzConfig& config) {
  // Decorrelate (model, seed) pairs; the draw depends on nothing else,
  // so a case reproduces regardless of which sweep found it.
  std::uint64_t state = seed ^ sim::fnv1a64(experiment::to_string(model));
  sim::Random rng(sim::splitmix64(state));

  FuzzPlan plan;
  if (!config.lambdas.empty()) {
    plan.lambda = config.lambdas[rng.index(config.lambdas.size())];
  }
  if (!config.episode_choices.empty()) {
    plan.episodes = config.episode_choices[rng.index(
        config.episode_choices.size())];
  }
  plan.placement = rng.bernoulli(0.25) ? net::FailurePlacement::kTruncated
                                       : net::FailurePlacement::kFitInside;
  plan.converge_shape = rng.bernoulli(0.25);
  if (plan.converge_shape || config.loss_rates.empty()) {
    plan.message_loss_rate = 0.0;
  } else {
    plan.message_loss_rate =
        config.loss_rates[rng.index(config.loss_rates.size())];
  }
  // Drawn last (see FuzzPlan::workload): pre-workload plans reproduce.
  if (!config.workload_choices.empty()) {
    plan.workload =
        config.workload_choices[rng.index(config.workload_choices.size())];
  }
  return plan;
}

experiment::ExperimentConfig fuzz_experiment_config(
    const FuzzCase& fuzz_case, const FuzzConfig& config) {
  experiment::ExperimentConfig out;
  out.model = fuzz_case.model;
  out.seed = fuzz_case.seed;
  out.topology.users = config.users;
  out.lambda = fuzz_case.plan.lambda;
  out.failure_placement = fuzz_case.plan.placement;
  out.failure_episodes = fuzz_case.plan.episodes;
  out.message_loss_rate = fuzz_case.plan.message_loss_rate;
  out.workload.kind = fuzz_case.plan.workload;
  if (fuzz_case.plan.converge_shape) {
    // Outages drawn over the first half, quiet second half: recovery
    // has a failure-free window at least as long as the paper's whole
    // run, so every model that promises eventual consistency converges.
    out.failure_horizon = out.duration;
    out.duration = 2 * out.duration;
  }
  return out;
}

OracleConfig fuzz_oracle_config(const FuzzCase& fuzz_case,
                                const FuzzConfig& config) {
  OracleConfig out = config.oracle;
  // Convergence may only be demanded of protocols whose registry
  // descriptor guarantees it (UPnP's invalidation-only notifications do
  // not; the decentralized mDNS model and the rest do).
  out.require_convergence =
      config.require_convergence && fuzz_case.plan.converge_shape &&
      experiment::protocol_descriptor(fuzz_case.model)
          .spec.guarantees_convergence;
  return out;
}

OracleReport run_fuzz_case(const FuzzCase& fuzz_case,
                           const FuzzConfig& config) {
  ConsistencyOracle oracle(fuzz_oracle_config(fuzz_case, config));
  experiment::ExperimentConfig run_config =
      fuzz_experiment_config(fuzz_case, config);
  run_config.oracle = &oracle;
  experiment::run_experiment(run_config);
  return oracle.finish();
}

FuzzCase shrink_fuzz_case(const FuzzCase& failing, const FuzzConfig& config,
                          int& runs_used) {
  FuzzCase best = failing;
  bool progress = true;
  while (progress && runs_used < config.max_shrink_runs) {
    progress = false;
    // Candidate simplifications, most drastic first; the pass restarts
    // after every accepted step, so the ladder reaches a fixpoint.
    std::vector<FuzzCase> candidates;
    if (best.plan.workload != experiment::WorkloadKind::kStatic) {
      FuzzCase candidate = best;
      candidate.plan.workload = experiment::WorkloadKind::kStatic;
      candidates.push_back(candidate);
    }
    if (best.plan.message_loss_rate > 0.0) {
      FuzzCase candidate = best;
      candidate.plan.message_loss_rate = 0.0;
      candidates.push_back(candidate);
    }
    if (best.plan.converge_shape) {
      FuzzCase candidate = best;
      candidate.plan.converge_shape = false;
      candidates.push_back(candidate);
    }
    if (best.plan.episodes > 1) {
      FuzzCase candidate = best;
      candidate.plan.episodes = 1;
      candidates.push_back(candidate);
      if (best.plan.episodes > 2) {
        candidate = best;
        candidate.plan.episodes = best.plan.episodes / 2;
        candidates.push_back(candidate);
      }
    }
    if (best.plan.placement == net::FailurePlacement::kTruncated) {
      FuzzCase candidate = best;
      candidate.plan.placement = net::FailurePlacement::kFitInside;
      candidates.push_back(candidate);
    }
    for (const double lambda : config.lambdas) {  // grid is ascending
      if (lambda >= best.plan.lambda) continue;
      FuzzCase candidate = best;
      candidate.plan.lambda = lambda;
      candidates.push_back(candidate);
    }

    for (const FuzzCase& candidate : candidates) {
      if (runs_used >= config.max_shrink_runs) break;
      ++runs_used;
      if (!run_fuzz_case(candidate, config).ok()) {
        best = candidate;
        progress = true;
        break;
      }
    }
  }
  return best;
}

namespace {

/// Re-runs the minimized case traced and writes the repro bundle:
/// trace.jsonl, the propagation tree, the run's metrics registry
/// (registry.txt, the per-mechanism recovery counters among it, in the
/// `sdcm_logs --histograms` format), and a repro.txt describing the
/// case and its violations. Returns the directory, or "" on I/O error.
std::string dump_finding(const FuzzFinding& finding,
                         const FuzzConfig& config) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(config.dump_dir) / case_slug(finding.minimized);
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return {};

  const experiment::TracedExperiment traced = experiment::run_experiment_traced(
      fuzz_experiment_config(finding.minimized, config));
  {
    std::ofstream out(dir / "trace.jsonl");
    if (!out) return {};
    obs::JsonlTraceWriter writer(out);
    for (const sim::TraceRecord& record : traced.trace.records()) {
      writer.on_record(record);
    }
  }
  {
    std::ofstream out(dir / "tree.txt");
    const obs::SpanForest forest =
        obs::build_span_forest(traced.trace.records());
    obs::print_span_forest(out, forest);
  }
  {
    std::ofstream out(dir / "registry.txt");
    obs::write_registry_text(out, traced.obs);
  }
  {
    std::ofstream out(dir / "repro.txt");
    out << "minimized: " << to_string(finding.minimized) << '\n';
    out << "original:  " << to_string(finding.original) << '\n';
    out << "users: " << config.users << '\n';
    out << finding.report.violation_total << " violation(s):\n";
    for (const Violation& violation : finding.report.violations) {
      out << "  " << violation.describe() << '\n';
    }
  }
  return dir.string();
}

}  // namespace

FuzzResult run_fuzz(const FuzzConfig& config) {
  FuzzResult result;
  for (const experiment::SystemModel model : config.models) {
    for (std::uint64_t seed = config.seed_begin; seed < config.seed_end;
         ++seed) {
      FuzzCase fuzz_case;
      fuzz_case.model = model;
      fuzz_case.seed = seed;
      fuzz_case.plan = draw_fuzz_plan(model, seed, config);

      const OracleReport report = run_fuzz_case(fuzz_case, config);
      ++result.cases_run;
      if (report.ok()) {
        if (config.log != nullptr) {
          *config.log << "fuzz: " << to_string(fuzz_case) << "  ok\n";
        }
        continue;
      }

      FuzzFinding finding;
      finding.original = fuzz_case;
      finding.minimized = fuzz_case;
      finding.report = report;
      if (config.shrink) {
        finding.minimized =
            shrink_fuzz_case(fuzz_case, config, finding.shrink_runs);
        result.cases_run += static_cast<std::uint64_t>(finding.shrink_runs);
        if (finding.shrink_runs > 0) {
          ++result.cases_run;
          finding.report = run_fuzz_case(finding.minimized, config);
        }
      }
      if (!config.dump_dir.empty()) {
        finding.dump_path = dump_finding(finding, config);
      }
      if (config.log != nullptr) {
        *config.log << "fuzz: " << to_string(fuzz_case) << "  VIOLATION ("
                    << finding.report.violation_total << "), minimized to "
                    << to_string(finding.minimized.plan) << " in "
                    << finding.shrink_runs << " shrink runs\n";
        for (const Violation& violation : finding.report.violations) {
          *config.log << "  " << violation.describe() << '\n';
        }
        if (!finding.dump_path.empty()) {
          *config.log << "  repro dumped to " << finding.dump_path << '\n';
        }
      }
      result.findings.push_back(std::move(finding));
    }
  }
  return result;
}

}  // namespace sdcm::check
