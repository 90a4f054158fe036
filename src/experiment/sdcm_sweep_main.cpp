// sdcm_sweep: command-line driver for the paper's experiment. Runs any
// subset of the five systems over any failure-rate grid, with the
// ablation toggles exposed, and emits the metric tables, a CSV, an
// optional per-run JSONL campaign log, and the campaign summary JSON.
//
//   $ sdcm_sweep --models=FRODO-2party,UPnP --lambdas=0.0:0.9:0.1
//                --runs=50 --output=results.csv
//   $ sdcm_sweep --no-frodo-pr1     # Figure 7's control, full grid
//   $ sdcm_sweep --report=paper     # every paper campaign and claim
//
// A campaign can split across machines and recombine exactly:
//
//   $ sdcm_sweep --shard=0/2 --jsonl=s0.jsonl --no-progress
//   $ sdcm_sweep --shard=1/2 --jsonl=s1.jsonl --no-progress
//   $ sdcm_sweep --merge=s0.jsonl,s1.jsonl --output=merged.csv

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>

#include "sdcm/experiment/claims.hpp"
#include "sdcm/experiment/cli.hpp"
#include "sdcm/experiment/report.hpp"
#include "sdcm/experiment/sink.hpp"

namespace {

using namespace sdcm::experiment;

void report(const SweepResult& result, const cli::Options& options) {
  for (const Metric metric :
       {Metric::kResponsiveness, Metric::kEffectiveness,
        Metric::kDegradation}) {
    std::cout << "\n" << to_string(metric) << ":\n";
    write_series_table(std::cout, result, metric);
  }
  std::cout << "\nAverages across the grid (Table 5 form):\n";
  write_averages_table(std::cout, result);

  if (options.output == "-") {
    std::cout << "\nCSV:\n";
    write_csv(std::cout, result);
  } else {
    std::ofstream file(options.output);
    if (!file) {
      std::cerr << "error: cannot write " << options.output << '\n';
      std::exit(1);
    }
    write_csv(file, result);
    std::cerr << "wrote " << options.output << '\n';
  }

  const CampaignSummary& s = result.summary;
  std::fprintf(stderr,
               "campaign: %llu runs, %.2f s wall, %.1f runs/s, "
               "%.3g events/s, %.0fx real time\n",
               static_cast<unsigned long long>(s.runs_completed),
               s.wall_seconds(), s.runs_per_second(), s.events_per_second(),
               s.sim_speedup());
  if (!options.summary.empty()) {
    std::ofstream file(options.summary);
    if (!file) {
      std::cerr << "error: cannot write " << options.summary << '\n';
      std::exit(1);
    }
    write_campaign_summary_json(file, s);
    std::cerr << "wrote " << options.summary << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const auto options = cli::parse(argc, argv, error);
  if (!options) {
    std::cerr << "error: " << error << "\n\n" << cli::usage();
    return 2;
  }
  if (options->help) {
    std::cout << cli::usage();
    return 0;
  }

  if (!options->report.empty()) {
    write_paper_report(std::cout,
                       run_paper_campaigns(options->sweep.runs,
                                           options->sweep.threads));
    return 0;
  }

  if (!options->merge_inputs.empty()) {
    const auto merged = merge_jsonl_files(options->merge_inputs, error);
    if (!merged) {
      std::cerr << "error: " << error << '\n';
      return 1;
    }
    std::fprintf(stderr, "merged %zu shard logs: %llu runs\n",
                 options->merge_inputs.size(),
                 static_cast<unsigned long long>(
                     merged->summary.runs_completed));
    report(*merged, *options);
    return 0;
  }

  SweepConfig config = options->sweep;

  MultiSink sinks;
  std::optional<ProgressSink> progress;
  if (options->progress) {
    progress.emplace(std::cerr);
    sinks.add(&*progress);
  }
  std::ofstream jsonl_file;
  std::optional<JsonlSink> jsonl;
  if (!options->jsonl.empty()) {
    if (options->jsonl == "-") {
      jsonl.emplace(std::cout);
    } else {
      jsonl_file.open(options->jsonl);
      if (!jsonl_file) {
        std::cerr << "error: cannot write " << options->jsonl << '\n';
        return 1;
      }
      jsonl.emplace(jsonl_file);
    }
    sinks.add(&*jsonl);
  }
  std::optional<TraceSink> traces;
  if (!options->traces.empty()) {
    try {
      traces.emplace(options->traces);
    } catch (const std::runtime_error& e) {
      std::cerr << "error: " << e.what() << '\n';
      return 1;
    }
    config.trace_sink = &*traces;
    if (progress) progress->watch_trace_sink(&*traces);
  }
  std::optional<CheckSink> checks;
  if (options->check) {
    checks.emplace();
    config.check_sink = &*checks;
  }
  std::optional<ProfileSink> profiles;
  if (options->profile) {
    profiles.emplace();
    config.profile_sink = &*profiles;
#if !SDCM_PROFILE_ENABLED
    std::cerr << "note: per-event attribution is compiled out; the profile "
                 "will carry phase timers only (rebuild with "
                 "-DSDCM_PROFILE=ON)\n";
#endif
  }
  config.sink = &sinks;

  if (config.shard.is_sharded()) {
    std::fprintf(stderr,
                 "sweep: %zu systems x %zu rates x %d runs (shard %zu/%zu)\n",
                 config.models.size(), config.lambdas.size(), config.runs,
                 config.shard.index, config.shard.count);
  } else {
    std::fprintf(stderr, "sweep: %zu systems x %zu rates x %d runs...\n",
                 config.models.size(), config.lambdas.size(), config.runs);
  }

  SweepResult result;
  try {
    result = run_sweep(config);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n\n" << cli::usage();
    return 2;
  }
  if (!options->jsonl.empty() && options->jsonl != "-") {
    std::cerr << "wrote " << options->jsonl << '\n';
  }
  if (traces) {
    std::fprintf(stderr,
                 "wrote %s: %llu trace records, %.1f MB + manifest.jsonl\n",
                 traces->directory().c_str(),
                 static_cast<unsigned long long>(traces->records_written()),
                 static_cast<double>(traces->bytes_flushed()) / 1e6);
  }
  if (profiles) {
    std::string path = options->profile_path;
    if (path.empty()) {
      path = (!options->jsonl.empty() && options->jsonl != "-")
                 ? options->jsonl + ".profile.jsonl"
                 : "profile.jsonl";
    }
    std::ofstream file(path, std::ios::trunc);
    if (!file) {
      std::cerr << "error: cannot write " << path << '\n';
      return 1;
    }
    write_profile_jsonl(file, profiles->campaign());
    std::fprintf(stderr, "wrote %s: wall-clock profile of %llu runs\n",
                 path.c_str(),
                 static_cast<unsigned long long>(profiles->runs_profiled()));
  }
  report(result, *options);
  if (checks) {
    checks->write_report(std::cerr);
    if (checks->violation_total() > 0) return 1;
  }
  return 0;
}
