#pragma once

#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "sdcm/net/network.hpp"
#include "sdcm/sim/random.hpp"

namespace sdcm::net {

/// Which side(s) of a node's interface fail during its episode.
/// Transmitter-only and receiver-only episodes model one-way
/// communication failure ("a node may send messages, but is not able to
/// receive messages, or vice-versa"); both-down models node failure.
enum class FailureMode : std::uint8_t {
  kNone = 0,
  kTransmitter,
  kReceiver,
  kBoth,
};

std::string_view to_string(FailureMode m) noexcept;

/// One contiguous outage of one node, as the paper injects them
/// (Section 5 Step 2): a single episode per node per run, lasting
/// lambda * 5400 s.
struct FailureEpisode {
  NodeId node = sim::kNoNode;
  FailureMode mode = FailureMode::kNone;
  sim::SimTime start = 0;
  sim::SimDuration duration = 0;

  [[nodiscard]] sim::SimTime end() const noexcept { return start + duration; }
  [[nodiscard]] bool covers(sim::SimTime t) const noexcept {
    return t >= start && t < end();
  }
};

/// Where episode start times are drawn from. Section 5 Step 2 says
/// "interface failure occurs at a random time, from 100 s to 5400 s";
/// taken literally (kTruncated) late episodes extend past the horizon.
/// The paper's measured curves, however, are only mutually consistent
/// with episodes that both cover the change and end inside the run
/// (responsiveness near 0 at 90% failure requires nearly every user to be
/// cut off at change time): kFitInside draws the start from
/// [min_start, horizon - duration]. kFitInside is the default used by
/// the experiment harness; see DESIGN.md decision 1.
enum class FailurePlacement : std::uint8_t {
  kFitInside,
  kTruncated,
};

/// "fit" / "truncated": the sdcm_sweep --placement values and the
/// campaign-log names.
std::string_view to_string(FailurePlacement placement) noexcept;
std::optional<FailurePlacement> placement_from_name(
    std::string_view name) noexcept;

/// Parameters of the paper's failure injection.
struct FailurePlanConfig {
  double lambda = 0.0;                      // failure rate, 0..1
  sim::SimTime horizon = sim::seconds(5400);  // full run duration
  sim::SimTime min_start = sim::seconds(100); // no failures before 100 s
  FailurePlacement placement = FailurePlacement::kFitInside;
  /// Number of outage episodes per node. The total down time is always
  /// lambda * horizon ("the proportion of time that a node is unable to
  /// communicate", Section 4.5); with episodes > 1 it is split into
  /// equal episodes, one placed uniformly inside each equal slice of
  /// [min_start, horizon]. Each episode independently redraws its mode.
  /// Only meaningful with kFitInside.
  int episodes = 1;
};

/// Draws one failure episode per node: mode uniform over
/// {transmitter, receiver, both}, duration lambda * horizon, start uniform
/// in [min_start, horizon - duration] so the full episode fits in the run
/// (DESIGN.md interpretation decision 1; validated against the paper's
/// Section 6.2 example trace where lambda = 0.15 gives 810 s outages).
/// lambda == 0 yields an empty plan.
///
/// Under kFitInside the per-episode duration is capped at the episode's
/// window, so episodes of one node never overlap; the cap only binds
/// when lambda > 1 - min_start/horizon (~0.98 at the paper's defaults),
/// where the requested downtime physically cannot fit after min_start
/// and the plan saturates at episodes * window instead.
std::vector<FailureEpisode> plan_failures(std::span<const NodeId> nodes,
                                          const FailurePlanConfig& config,
                                          sim::Random& rng);

/// Schedules the interface down/up transitions for a plan on the
/// simulator, with trace records in the kFailure category (the paper's
/// log excerpts, e.g. "Manager Tx down at 381, up at 1191", correspond to
/// these records). Overlapping episodes on one node (possible under
/// kTruncated placement, or in hand-built plans) nest: the depth is
/// tracked per node per direction, and an interface comes back up only
/// when every episode covering it has ended.
void apply_failures(sim::Simulator& simulator, Network& network,
                    std::span<const FailureEpisode> plan);

}  // namespace sdcm::net
