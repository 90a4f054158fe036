#include "sdcm/experiment/claims.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <iterator>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "sdcm/sim/random.hpp"

namespace sdcm::experiment {

namespace {

constexpr SystemModel kUpnp = SystemModel::kUpnp;
constexpr SystemModel kJini1 = SystemModel::kJiniOneRegistry;
constexpr SystemModel kJini2 = SystemModel::kJiniTwoRegistries;
constexpr SystemModel kFrodo3 = SystemModel::kFrodoThreeParty;
constexpr SystemModel kFrodo2 = SystemModel::kFrodoTwoParty;
constexpr Metric kR = Metric::kResponsiveness;
constexpr Metric kF = Metric::kEffectiveness;
constexpr Metric kE = Metric::kEfficiency;
constexpr Metric kG = Metric::kDegradation;
constexpr Comparison kLt = Comparison::kLess;
constexpr Comparison kLe = Comparison::kLessEqual;
constexpr Comparison kGt = Comparison::kGreater;
constexpr Comparison kGe = Comparison::kGreaterEqual;
constexpr Verdict kPass = Verdict::kPass;
constexpr Verdict kDiff = Verdict::kDiff;

/// Placeholders an operand leaves to the claim's quantifiers.
constexpr std::optional<SystemModel> kEachModel = std::nullopt;
constexpr double kEachLambda = std::numeric_limits<double>::quiet_NaN();
const char* const kEachCampaign = "";

const std::vector<SystemModel> kFrodoModels = {kFrodo3, kFrodo2};
constexpr double kLossRates[] = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5};

Operand constant(double value) {
  return {Operand::Kind::kConstant, value, "", std::nullopt, 0.0, kF};
}

Operand at(std::string campaign, std::optional<SystemModel> model,
           double lambda, Metric metric) {
  return {Operand::Kind::kAt, 0.0, std::move(campaign), model, lambda, metric};
}

Operand average(std::string campaign, std::optional<SystemModel> model,
                Metric metric) {
  return {Operand::Kind::kAverage, 0.0, std::move(campaign), model, 0.0,
          metric};
}

std::vector<PaperCampaign> build_campaigns() {
  std::vector<PaperCampaign> out;
  const auto add = [&out](std::string id, std::string title,
                          const auto& vary) {
    SweepConfig config;
    vary(config);
    out.push_back({std::move(id), std::move(title), std::move(config)});
  };
  add("paper", "Figures 4-7 and Table 5: every model, lambda 0..0.90",
      [](SweepConfig&) {});
  const struct {
    const char* id;
    const char* technique;
    bool AblationSpec::*toggle;
  } removals[] = {{"no-srn2", "SRN2", &AblationSpec::frodo_srn2},
                  {"no-pr1", "PR1", &AblationSpec::frodo_pr1},
                  {"no-pr3", "PR3", &AblationSpec::frodo_pr3},
                  {"no-pr4", "PR4", &AblationSpec::frodo_pr4},
                  {"no-pr5", "PR5", &AblationSpec::frodo_pr5}};
  for (const auto& removal : removals) {
    add(removal.id, std::string("FRODO without ") + removal.technique,
        [&removal](SweepConfig& c) {
          c.models = kFrodoModels;
          c.ablation.*removal.toggle = false;
        });
  }
  for (const ConsistencyMode mode :
       {ConsistencyMode::kCm2, ConsistencyMode::kCm1Cm2}) {
    const bool notify = mode == ConsistencyMode::kCm1Cm2;
    add(std::string(to_string(mode)),
        std::string("UPnP and FRODO-3party polling every 600 s") +
            (notify ? " on top of notification" : " instead of notification"),
        [mode](SweepConfig& c) {
          c.models = {kUpnp, kFrodo3};
          c.ablation.consistency = mode;
        });
  }
  for (const long lease_s : {900L, 3600L}) {
    add("lease-" + std::to_string(lease_s),
        "FRODO-2party, " + std::to_string(lease_s) + " s subscription lease",
        [lease_s](SweepConfig& c) {
          c.models = {kFrodo2};
          c.ablation.frodo_subscription_lease = sim::seconds(lease_s);
        });
  }
  for (const char* fraction : {"0.25", "0.8"}) {
    add(std::string("renew-") + fraction,
        std::string("FRODO-2party renewing at ") + fraction + " of the lease",
        [fraction](SweepConfig& c) {
          c.models = {kFrodo2};
          c.ablation.frodo_renew_fraction = std::strtod(fraction, nullptr);
        });
  }
  for (const bool srn1 : {true, false}) {
    for (const double rate : kLossRates) {
      char id[32];
      char title[96];
      std::snprintf(id, sizeof(id), "loss-%.1f%s", rate,
                    srn1 ? "" : "-no-srn1");
      std::snprintf(title, sizeof(title),
                    "%.0f %% message loss, no interface failures%s",
                    rate * 100.0, srn1 ? "" : ", FRODO without SRN1");
      add(id, title, [rate, srn1](SweepConfig& c) {
        c.models = {kUpnp, kJini1, kFrodo3, kFrodo2};
        c.lambdas = {0.0};
        c.ablation.message_loss_rate = rate;
        c.ablation.frodo_srn1 = srn1;
      });
    }
  }
  return out;
}

/// Table 5: the paper's averages over lambda = 0..0.90, as
/// {metric, {UPnP, Jini-1R, Jini-2R, FRODO-3party, FRODO-2party}}.
const struct {
  Metric metric;
  double values[5];
} kTable5[] = {
    {kR, {0.553, 0.474, 0.476, 0.580, 0.666}},
    {kF, {0.922, 0.802, 0.825, 0.878, 0.861}},
    {kG, {0.385, 0.311, 0.361, 0.428, 0.429}},
};

/// How close a measured Table 5 average must come to the published one.
/// Absolute levels are approximate by construction (DESIGN.md decisions
/// 1-8 reconstruct the NIST baselines); the orderings are the target.
constexpr double kTable5Tolerance = 0.05;

/// Builds one claims-table row: the predicate first, the quantifiers,
/// tolerance and pinned verdict after it.
class Row {
 public:
  Row(std::string id, std::string source, std::string text, Operand lhs,
      Comparison op, Operand rhs) {
    claim_.id = std::move(id);
    claim_.source = std::move(source);
    claim_.text = std::move(text);
    claim_.lhs = std::move(lhs);
    claim_.op = op;
    claim_.rhs = std::move(rhs);
  }
  Row& tolerance(double tolerance) {
    claim_.tolerance = tolerance;
    return *this;
  }
  Row& models(std::vector<SystemModel> models) {
    claim_.models = std::move(models);
    return *this;
  }
  Row& lambdas(std::vector<double> lambdas) {
    claim_.lambdas = std::move(lambdas);
    return *this;
  }
  Row& campaigns(std::vector<std::string> campaigns) {
    claim_.campaigns = std::move(campaigns);
    return *this;
  }
  Row& pinned(Verdict verdict) {
    claim_.pinned = verdict;
    return *this;
  }
  // NOLINTNEXTLINE(google-explicit-constructor)
  operator Claim() const { return claim_; }

 private:
  Claim claim_;
};

const std::vector<SystemModel> kEveryModel(std::begin(kAllModels),
                                           std::end(kAllModels));

std::vector<Claim> build_claims() {
  std::vector<Claim> claims = {
      Row("fig4.i", "Fig. 4, §6.1 (i)",
          "FRODO-2party (SRN2) is the most effective system below 30% "
          "failure (vs UPnP, Jini-1R)",
          at("paper", kFrodo2, kEachLambda, kF), kGe,
          at("paper", kEachModel, kEachLambda, kF))
          .tolerance(-0.02)
          .models({kUpnp, kJini1})
          .lambdas({0.05, 0.10, 0.15, 0.20, 0.25}),
      Row("fig4.jini1r-least", "Fig. 4, §6.1",
          "Jini with 1 Registry is among the least effective systems "
          "(DESIGN.md decision 1)",
          average("paper", kJini1, kF), kLe, average("paper", kEachModel, kF))
          .tolerance(0.02)
          .models({kJini2, kFrodo3, kFrodo2})
          .pinned(kDiff),
      Row("fig4.declines", "Fig. 4",
          "effectiveness degrades with failure rate for all",
          at("paper", kEachModel, 0.9, kF), kLt,
          at("paper", kEachModel, 0.0, kF))
          .models(kEveryModel),
      Row("fig5.iii", "Fig. 5, §6.1 (iii); Table 5, §7",
          "FRODO-2party is the most responsive system overall (UDP + direct "
          "notification + SRN2/PR1/PR4)",
          average("paper", kFrodo2, kR), kGe, average("paper", kEachModel, kR))
          .models({kUpnp, kJini1, kJini2, kFrodo3}),
      Row("fig5.jini1r-lowest", "Fig. 5, §6.1",
          "Jini with 1 Registry has the lowest responsiveness",
          average("paper", kJini1, kR), kLe, average("paper", kEachModel, kR))
          .models({kUpnp, kFrodo3, kFrodo2}),
      Row("fig5.collapse", "Fig. 5",
          "responsiveness collapses toward 0 at 90% failure for all systems",
          at("paper", kEachModel, 0.9, kR), kLt, constant(0.2))
          .models(kEveryModel),
      Row("fig6.g0", "Fig. 6", "G(0) = 1 for every system (y(0) = m')",
          at("paper", kEachModel, 0.0, kG), kGt, constant(0.99))
          .models(kEveryModel),
      Row("fig6.frodo-best", "Fig. 6, §6.1; Table 5, §7",
          "FRODO (2-party) shows the least efficiency degradation (vs Jini, "
          "even with 2 Registries, and UPnP)",
          average("paper", kFrodo2, kG), kGe, average("paper", kEachModel, kG))
          .models({kUpnp, kJini1, kJini2}),
      Row("fig6.e0-frodo", "§4.5, Fig. 6",
          "E(0): FRODO owns the global minimum m = 7 (E = 1.0)",
          at("paper", kFrodo2, 0.0, kE), kGt, constant(0.99)),
      Row("fig6.e0-upnp", "§4.5, Fig. 6",
          "E(0): UPnP's invalidation costs 15 messages (E = 7/15)",
          at("paper", kUpnp, 0.0, kE), kLt, constant(0.5)),
      Row("fig7.pr1", "Fig. 7, §6.2",
          "PR1 improves (or preserves) the effectiveness of both FRODO "
          "subscription modes",
          average("paper", kEachModel, kF), kGe,
          average("no-pr1", kEachModel, kF))
          .models(kFrodoModels),
      Row("table5.high-f", "Table 5, §7",
          "FRODO maintains a high degree of effectiveness (> 0.8)",
          average("paper", kEachModel, kF), kGt, constant(0.8))
          .models(kFrodoModels),
  };

  // Table 5's published averages, each within kTable5Tolerance.
  const Verdict table5_pinned[3][5] = {
      {kPass, kPass, kPass, kPass, kDiff},
      {kDiff, kDiff, kDiff, kPass, kPass},
      {kPass, kDiff, kPass, kPass, kPass},
  };
  for (std::size_t row = 0; row < std::size(kTable5); ++row) {
    const Metric metric = kTable5[row].metric;
    const std::string_view name = to_string(metric);
    const std::string symbol(name.substr(name.size() - 1));
    for (std::size_t col = 0; col < 5; ++col) {
      const SystemModel model = kAllModels[col];
      const double paper = kTable5[row].values[col];
      char text[128];
      std::snprintf(text, sizeof(text),
                    "%s average of %s within %.2f of the published %.3f",
                    symbol.c_str(), std::string(to_string(model)).c_str(),
                    kTable5Tolerance, paper);
      claims.push_back(
          Row("table5." + symbol + "." + std::string(to_string(model)),
              "Table 5", text, average("paper", model, metric),
              Comparison::kWithin, constant(paper))
              .tolerance(kTable5Tolerance)
              .pinned(table5_pinned[row][col]));
      claims.back().paper = paper;
    }
  }

  const std::vector<Claim> extensions = {
      Row("cm2.slower", "§4.2 (Dabrowski & Mills)",
          "polling is slower than notification (R drops)",
          average("cm2", kEachModel, kR), kLt, average("paper", kEachModel, kR))
          .models({kUpnp, kFrodo3}),
      Row("cm2.no-harm", "§4.2 (Dabrowski & Mills)",
          "adding persistent polling does not hurt - and typically raises - "
          "effectiveness",
          average("cm1+cm2", kEachModel, kF), kGe,
          average("paper", kEachModel, kF))
          .models({kUpnp, kFrodo3}),
      Row("loss.srn1-robust", "§6.2, companion study [25]",
          "FRODO's protocol-level acks keep effectiveness high under 50% "
          "message loss",
          at("loss-0.5", kFrodo2, 0.0, kF), kGt, constant(0.9)),
      Row("loss.srn1-ablation", "§6.2, companion study [25]",
          "SRN1 retransmissions are what provide that robustness",
          at("loss-0.5", kFrodo2, 0.0, kF), kGt,
          at("loss-0.5-no-srn1", kFrodo2, 0.0, kF)),
      Row("loss.latency-0", "§6.2, companion study [25]",
          "FRODO maintains shorter latency than the TCP systems (at 0% loss, "
          "where every system reads 1.000)",
          at("loss-0.0", kFrodo2, 0.0, kR), kGe,
          at("loss-0.0", kJini1, 0.0, kR)),
      Row("loss.latency-50", "§6.2, companion study [25]",
          "FRODO-2party stays more responsive than Jini-1R under 50% message "
          "loss",
          at("loss-0.5", kFrodo2, 0.0, kR), kGt,
          at("loss-0.5", kJini1, 0.0, kR)),
      Row("ablation.pr1-largest", "§6.2",
          "PR1 is the largest single factor for both FRODO modes",
          average("no-pr1", kEachModel, kF), kLe,
          average(kEachCampaign, kEachModel, kF))
          .models(kFrodoModels)
          .campaigns({"no-srn2", "no-pr3", "no-pr4", "no-pr5"}),
      Row("ablation.each-costs", "§6.2",
          "each technique's removal costs effectiveness (not for "
          "FRODO-3party's SRN2 and PR4)",
          average(kEachCampaign, kEachModel, kF), kLt,
          average("paper", kEachModel, kF))
          .models(kFrodoModels)
          .campaigns({"no-srn2", "no-pr1", "no-pr3", "no-pr4", "no-pr5"})
          .pinned(kDiff),
      Row("lease.r-rises-900", "§6.2 (SRN2's lease dependency)",
          "R rises as the lease shrinks: R(900 s) > R(1800 s)",
          average("lease-900", kFrodo2, kR), kGt,
          average("paper", kFrodo2, kR))
          .pinned(kDiff),
      Row("lease.r-rises-1800", "§6.2 (SRN2's lease dependency)",
          "R rises as the lease shrinks: R(1800 s) > R(3600 s)",
          average("paper", kFrodo2, kR), kGt,
          average("lease-3600", kFrodo2, kR))
          .pinned(kDiff),
      Row("lease.f-rises-900", "§6.2 (SRN2's lease dependency)",
          "F rises as the lease shrinks: F(900 s) > F(1800 s)",
          average("lease-900", kFrodo2, kF), kGt,
          average("paper", kFrodo2, kF)),
      Row("lease.f-rises-1800", "§6.2 (SRN2's lease dependency)",
          "F rises as the lease shrinks: F(1800 s) > F(3600 s)",
          average("paper", kFrodo2, kF), kGt,
          average("lease-3600", kFrodo2, kF)),
      Row("renew.insensitive-f", "DESIGN.md decision 3",
          "F is insensitive to the renewal point: within 0.03 of the 50% "
          "default at 25% and 80%",
          average(kEachCampaign, kFrodo2, kF), Comparison::kWithin,
          average("paper", kFrodo2, kF))
          .tolerance(0.03)
          .campaigns({"renew-0.25", "renew-0.8"}),
      Row("renew.insensitive-r", "DESIGN.md decision 3",
          "R is insensitive to the renewal point: within 0.03 of the 50% "
          "default at 25% and 80%",
          average(kEachCampaign, kFrodo2, kR), Comparison::kWithin,
          average("paper", kFrodo2, kR))
          .tolerance(0.03)
          .campaigns({"renew-0.25", "renew-0.8"}),
  };
  claims.insert(claims.end(), extensions.begin(), extensions.end());
  return claims;
}

struct Binding {
  std::optional<SystemModel> model;
  std::optional<double> lambda;
  const std::string* campaign = nullptr;
};

double value(const Operand& o, const Binding& b, const PaperResults& r) {
  if (o.kind == Operand::Kind::kConstant) return o.constant;
  const std::optional<SystemModel> model = o.model ? o.model : b.model;
  const std::string* campaign = o.campaign.empty() ? b.campaign : &o.campaign;
  const std::optional<double> lambda =
      std::isnan(o.lambda) ? b.lambda : std::optional<double>(o.lambda);
  if (!model || campaign == nullptr ||
      (o.kind == Operand::Kind::kAt && !lambda)) {
    throw std::logic_error("claim operand left unbound by its quantifiers");
  }
  double sum = 0.0;
  int count = 0;
  for (const SweepPoint& p : r.of(*campaign)) {
    if (p.model != *model) continue;
    if (o.kind == Operand::Kind::kAt && std::abs(p.lambda - *lambda) > 1e-9) {
      continue;
    }
    sum += value_of(p.metrics, o.metric);
    ++count;
  }
  if (count == 0) {
    throw std::out_of_range("campaign '" + *campaign + "' has no " +
                            std::string(to_string(*model)) + " point");
  }
  return sum / count;
}

bool holds(Comparison op, double lhs, double rhs, double tolerance) {
  switch (op) {
    case Comparison::kLess: return lhs < rhs + tolerance;
    case Comparison::kLessEqual: return lhs <= rhs + tolerance;
    case Comparison::kGreater: return lhs > rhs + tolerance;
    case Comparison::kGreaterEqual: return lhs >= rhs + tolerance;
    case Comparison::kWithin: return std::abs(lhs - rhs) <= tolerance;
  }
  return false;
}

std::string witness(const Binding& b, double lhs, double rhs) {
  std::string text = "fails";
  if (b.model) text.append(" at ").append(to_string(*b.model));
  if (b.lambda) text.append(" lambda=").append(std::to_string(*b.lambda), 0, 4);
  if (b.campaign != nullptr) text.append(" in ").append(*b.campaign);
  char values[64];
  std::snprintf(values, sizeof(values), ": lhs %.3f, rhs %.3f", lhs, rhs);
  return text + values;
}

/// One left-aligned table cell, `width` wide.
std::string cell(std::string_view text, std::size_t width = 14) {
  std::string out(text);
  out.resize(std::max(width, out.size()), ' ');
  return out;
}

std::string cell(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  return cell(buf);
}

}  // namespace

std::string_view to_string(Verdict verdict) noexcept {
  return verdict == Verdict::kPass ? "PASS" : "DIFF";
}

const std::vector<PaperCampaign>& paper_campaigns() {
  static const std::vector<PaperCampaign> campaigns = build_campaigns();
  return campaigns;
}

const std::vector<Claim>& paper_claims() {
  static const std::vector<Claim> claims = build_claims();
  return claims;
}

const SweepResult& PaperResults::of(std::string_view campaign) const {
  const auto& campaigns = paper_campaigns();
  for (std::size_t i = 0; i < campaigns.size() && i < results.size(); ++i) {
    if (campaigns[i].id == campaign) return results[i];
  }
  throw std::out_of_range("unknown paper campaign '" + std::string(campaign) +
                          "'");
}

PaperResults run_paper_campaigns(int runs, std::size_t threads) {
  PaperResults out;
  for (const PaperCampaign& campaign : paper_campaigns()) {
    SweepConfig config = campaign.config;
    config.runs = runs;
    config.threads = threads;
    out.results.push_back(run_sweep(config));
  }
  return out;
}

ClaimOutcome evaluate(const Claim& claim, const PaperResults& results) {
  const auto extent = [](const auto& list) {
    return list.empty() ? std::size_t{1} : list.size();
  };
  for (std::size_t m = 0; m < extent(claim.models); ++m) {
    for (std::size_t l = 0; l < extent(claim.lambdas); ++l) {
      for (std::size_t c = 0; c < extent(claim.campaigns); ++c) {
        Binding b;
        if (!claim.models.empty()) b.model = claim.models[m];
        if (!claim.lambdas.empty()) b.lambda = claim.lambdas[l];
        if (!claim.campaigns.empty()) b.campaign = &claim.campaigns[c];
        const double lhs = value(claim.lhs, b, results);
        const double rhs = value(claim.rhs, b, results);
        if (!holds(claim.op, lhs, rhs, claim.tolerance)) {
          return {Verdict::kDiff, witness(b, lhs, rhs)};
        }
      }
    }
  }
  return {};
}

std::uint64_t csv_digest(const SweepResult& result) {
  std::ostringstream csv;
  write_csv(csv, result);
  return sim::fnv1a64(csv.str());
}

void write_paper_report(std::ostream& os, const PaperResults& results) {
  const auto& campaigns = paper_campaigns();
  std::ostringstream out;
  out << "Paper claims: " << campaigns.size() << " campaigns, "
      << results.of("paper").points.front().runs
      << " runs per point, master seed "
      << SweepConfig{}.master_seed << "\n\n";
  char line[160];
  std::snprintf(line, sizeof(line), "%-18s %6s  %-16s  %s\n", "campaign",
                "runs", "csv fnv1a64", "variation");
  out << line;
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    std::snprintf(line, sizeof(line), "%-18s %6llu  %016llx  %s\n",
                  campaigns[i].id.c_str(),
                  static_cast<unsigned long long>(
                      results.results[i].summary.runs_completed),
                  static_cast<unsigned long long>(
                      csv_digest(results.results[i])),
                  campaigns[i].title.c_str());
    out << line;
  }

  const SweepResult& grid = results.of("paper");
  for (const Metric metric : {kR, kF, kE, kG}) {
    out << "\npaper: " << to_string(metric) << "\n";
    write_series_table(out, grid, metric);
  }

  out << "\nTable 5, average over lambda: measured, then the paper's\n";
  write_averages_table(out, grid);
  for (const auto& row : kTable5) {
    const std::string_view name = to_string(row.metric);
    out << cell("paper " + std::string(name.substr(name.size() - 1)), 30);
    for (const double paper : row.values) out << cell(paper);
    out << '\n';
  }

  for (const Metric metric : {kF, kR}) {
    out << "\nEvery campaign, average over lambda: " << to_string(metric)
        << "\n";
    out << cell("campaign", 18);
    for (const SystemModel model : kAllModels) out << cell(to_string(model));
    out << '\n';
    for (const PaperCampaign& campaign : campaigns) {
      out << cell(campaign.id, 18);
      const auto& ran = campaign.config.models;
      for (const SystemModel model : kAllModels) {
        out << (std::find(ran.begin(), ran.end(), model) == ran.end()
                    ? cell("-")
                    : cell(value(average(campaign.id, model, metric), {},
                                 results)));
      }
      out << '\n';
    }
  }

  std::size_t pass = 0;
  out << "\nClaims\n";
  for (const Claim& claim : paper_claims()) {
    const ClaimOutcome outcome = evaluate(claim, results);
    if (outcome.verdict == Verdict::kPass) ++pass;
    out << to_string(outcome.verdict);
    if (outcome.verdict != claim.pinned) {
      out << " (pinned " << to_string(claim.pinned) << ")";
    }
    out << "  " << claim.id << " [" << claim.source << "] " << claim.text
        << '\n';
    if (!outcome.witness.empty()) out << "      " << outcome.witness << '\n';
  }
  out << pass << " PASS, " << paper_claims().size() - pass << " DIFF\n";
  // Trailing blanks of the padded columns would not survive an editor.
  std::istringstream lines(out.str());
  for (std::string text; std::getline(lines, text);) {
    os << text.substr(0, text.find_last_not_of(' ') + 1) << '\n';
  }
}

}  // namespace sdcm::experiment
