#pragma once

// The paper's results as data. paper_campaigns() names every campaign
// the reproduction runs; paper_claims() holds every claim made about
// them - the shape checks of §6.1 regions (i)-(iv), Table 5's published
// averages, and the extension studies - each as one typed predicate with
// its pinned verdict. The `paper` ctest runs the campaigns once and
// fails on any verdict that flips; `sdcm_sweep --report=paper` renders
// the same table and runs into the EXPERIMENTS.md block.

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sdcm/experiment/report.hpp"
#include "sdcm/experiment/sweep.hpp"

namespace sdcm::experiment {

/// One named campaign: a SweepConfig at the defaults (30 runs per point,
/// master seed 20060425) apart from the variation the claims read.
struct PaperCampaign {
  std::string id;
  std::string title;
  SweepConfig config;
};

/// Every campaign the claims read, in report order ("paper" first).
const std::vector<PaperCampaign>& paper_campaigns();

/// One side of a claim: a constant, a metric at one (campaign, model, λ)
/// point, or a metric's average over the campaign's λ grid. An empty
/// `campaign`, an unset `model` or a NaN `lambda` is bound in turn to
/// each entry of the claim's matching quantifier list.
struct Operand {
  enum class Kind : std::uint8_t { kConstant, kAt, kAverage };
  Kind kind = Kind::kConstant;
  /// kConstant: the value.
  double constant = 0.0;
  std::string campaign;
  std::optional<SystemModel> model;
  double lambda = 0.0;
  Metric metric = Metric::kEffectiveness;
};

/// kWithin: |lhs - rhs| <= tolerance.
enum class Comparison : std::uint8_t { kLess, kLessEqual, kGreater,
                                       kGreaterEqual, kWithin };

enum class Verdict : std::uint8_t { kPass, kDiff };

std::string_view to_string(Verdict verdict) noexcept;

/// One row of the claims table: `lhs op rhs + tolerance` must hold for
/// every binding of models x lambdas x campaigns (an empty list binds
/// nothing). `pinned` is the verdict the default campaigns produce; a
/// DIFF is a documented deviation from the paper, not a failure.
struct Claim {
  std::string id;
  /// Where the paper makes the claim (figure, table or section).
  std::string source;
  std::string text;
  /// The paper's published value, where it gives one.
  std::optional<double> paper;
  Operand lhs;
  Comparison op = Comparison::kGreaterEqual;
  Operand rhs;
  double tolerance = 0.0;
  std::vector<SystemModel> models;
  std::vector<double> lambdas;
  std::vector<std::string> campaigns;
  Verdict pinned = Verdict::kPass;
};

const std::vector<Claim>& paper_claims();

/// The results of every paper campaign, aligned with paper_campaigns().
struct PaperResults {
  std::vector<SweepResult> results;

  /// Throws std::out_of_range for an unknown campaign id.
  [[nodiscard]] const SweepResult& of(std::string_view campaign) const;
};

/// Runs every paper campaign once, `runs` per point on `threads`
/// workers (0 = hardware concurrency).
PaperResults run_paper_campaigns(int runs, std::size_t threads);

struct ClaimOutcome {
  Verdict verdict = Verdict::kPass;
  /// The first failing binding with both sides' values; empty on PASS.
  std::string witness;
};

/// Evaluates one claim. Throws std::out_of_range when an operand reads
/// a point its campaign does not run.
ClaimOutcome evaluate(const Claim& claim, const PaperResults& results);

/// sim::fnv1a64 over the campaign's write_csv bytes.
std::uint64_t csv_digest(const SweepResult& result);

/// `sdcm_sweep --report=paper`: the campaigns with their CSV digests,
/// the paper grid's series tables, Table 5 next to the paper's values,
/// every campaign's averages and every claim's verdict.
void write_paper_report(std::ostream& os, const PaperResults& results);

}  // namespace sdcm::experiment
