// The paper's results as a test: runs every campaign of claims.hpp once
// at the defaults (30 runs per point, master seed 20060425) and pins, in
// this order, every claim's verdict, every campaign's CSV digest, the
// paper grid's thread-count independence, and the EXPERIMENTS.md block
// that `sdcm_sweep --report=paper` renders. Label `paper`: run it alone
// with `ctest -L paper`.

#include "sdcm/experiment/claims.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

namespace sdcm::experiment {
namespace {

/// sim::fnv1a64 of each campaign's write_csv output at the defaults.
const std::map<std::string, std::uint64_t> kPinnedDigests = {
    {"paper", 0xe24a28cdfd3f30acULL},
    {"no-srn2", 0x0aaddeaf40731d87ULL},
    {"no-pr1", 0x27d4414467124696ULL},
    {"no-pr3", 0xb2bde9be3f524300ULL},
    {"no-pr4", 0x48d75c2010e4af95ULL},
    {"no-pr5", 0x366ed153022ce26cULL},
    {"cm2", 0xc16f6f556c65fa48ULL},
    {"cm1+cm2", 0xd9700be734c2ffacULL},
    {"lease-900", 0x69ddbc51460f5e20ULL},
    {"lease-3600", 0xeb5ca39038a514ffULL},
    {"renew-0.25", 0x25b848c683f77902ULL},
    {"renew-0.8", 0xdc7a11dfb2bc9bfdULL},
    {"loss-0.0", 0x09cfe926712a51ebULL},
    {"loss-0.1", 0x7a48b091f17c9bd1ULL},
    {"loss-0.2", 0x3741974a792b2aaaULL},
    {"loss-0.3", 0xb24041a315561815ULL},
    {"loss-0.4", 0x79e7514e234f4a24ULL},
    {"loss-0.5", 0xb90b74d942dfbae8ULL},
    {"loss-0.0-no-srn1", 0x09cfe926712a51ebULL},
    {"loss-0.1-no-srn1", 0x445ed6f7c5fbe27fULL},
    {"loss-0.2-no-srn1", 0x30e8193bca7125c7ULL},
    {"loss-0.3-no-srn1", 0xbbc019ec43c21750ULL},
    {"loss-0.4-no-srn1", 0xa6d4f7ea8ded0fa4ULL},
    {"loss-0.5-no-srn1", 0x9d8a2ab06e7aaa18ULL},
};

/// The lines between EXPERIMENTS.md's paper-report markers.
std::string experiments_block() {
  std::ifstream file(SDCM_EXPERIMENTS_MD);
  std::string line;
  std::string block;
  bool inside = false;
  while (std::getline(file, line)) {
    if (line.rfind("<!-- paper-report:end", 0) == 0) return block;
    if (inside) block += line + '\n';
    if (line.rfind("<!-- paper-report:begin", 0) == 0) inside = true;
  }
  return "(no paper-report markers in " SDCM_EXPERIMENTS_MD ")";
}

TEST(PaperClaims, VerdictsDigestsAndReportArePinned) {
  const PaperResults results = run_paper_campaigns(30, 4);

  std::set<std::string> ids;
  for (const Claim& claim : paper_claims()) {
    EXPECT_TRUE(ids.insert(claim.id).second) << "duplicate id " << claim.id;
    const ClaimOutcome outcome = evaluate(claim, results);
    EXPECT_EQ(outcome.verdict, claim.pinned)
        << claim.id << " [" << claim.source << "] " << claim.text
        << ": measured " << to_string(outcome.verdict) << ", pinned "
        << to_string(claim.pinned)
        << (outcome.witness.empty() ? "" : "; " + outcome.witness);
  }

  const auto& campaigns = paper_campaigns();
  ASSERT_EQ(campaigns.size(), kPinnedDigests.size());
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    const auto pinned = kPinnedDigests.find(campaigns[i].id);
    ASSERT_NE(pinned, kPinnedDigests.end()) << campaigns[i].id;
    EXPECT_EQ(csv_digest(results.results[i]), pinned->second)
        << "campaign " << campaigns[i].id << " CSV changed";
  }

  // The paper grid on one thread equals the grid on four.
  SweepConfig serial = campaigns.front().config;
  serial.threads = 1;
  EXPECT_EQ(csv_digest(run_sweep(serial)), csv_digest(results.of("paper")));

  // The first line where the EXPERIMENTS.md block and a fresh rendering
  // part, rather than both whole blocks.
  std::ostringstream report;
  write_paper_report(report, results);
  std::istringstream want("```text\n" + report.str() + "```\n");
  std::istringstream have(experiments_block());
  std::string expected;
  std::string actual;
  int line = 1;
  for (; std::getline(want, expected); ++line) {
    actual.clear();
    std::getline(have, actual);
    if (actual != expected) {
      ADD_FAILURE() << "EXPERIMENTS.md report line " << line << " is '"
                    << actual << "', the rendering says '" << expected
                    << "'; regenerate it with sdcm_sweep --report=paper";
      return;
    }
  }
  EXPECT_FALSE(std::getline(have, actual))
      << "EXPERIMENTS.md report block runs past line " << line;
}

}  // namespace
}  // namespace sdcm::experiment
