#pragma once

// The protocol registry: one descriptor per SystemModel binding the
// module's declarative ProtocolSpec (sdcm/discovery/protocol.hpp) to the
// experiment-harness facts about it - display name, zero-failure m'
// formula, registry-node count, topology builder, and which ablation
// toggles apply. Everything that used to `switch (SystemModel)` across
// scenario.cpp, cli.cpp, sink.cpp, fuzz.cpp and sdcm_logs_main.cpp is a
// lookup here, so adding a protocol is: implement the nodes, publish a
// spec, append one descriptor row (see DESIGN.md's "how to add a
// protocol" walkthrough; src/mdns is the worked example).

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sdcm/discovery/node.hpp"
#include "sdcm/discovery/protocol.hpp"
#include "sdcm/experiment/scenario.hpp"

namespace sdcm::experiment {

/// Node-id layout shared by every topology builder (and by the log
/// tools that label nodes): registries 1..R, Manager 10, Users
/// 11..10+N. Attach order is registries, then Managers, then Users -
/// the failure plan assigns episodes in attach order, so builders must
/// not deviate.
inline constexpr sim::NodeId kRegistryId = 1;
inline constexpr sim::NodeId kSecondRegistryId = 2;  // Jini-2R / FRODO Backup
inline constexpr sim::NodeId kManagerId = 10;
inline constexpr sim::NodeId kFirstUserId = 11;

/// The resolved node-id plan for one TopologySpec: registries occupy
/// 1..R, Managers start at max(kManagerId, R+1) (so the paper layout
/// keeps Manager=10 while R>9 packs densely), Users follow the
/// Managers. Every builder and log tool derives ids from here; at the
/// default spec the ids are bit-identical to the historical constants.
struct TopologyLayout {
  int registries = 0;  ///< Resolved count - never -1.
  int managers = 1;
  int users = 0;

  [[nodiscard]] sim::NodeId registry_id(int r) const noexcept {
    return kRegistryId + static_cast<sim::NodeId>(r);
  }
  [[nodiscard]] sim::NodeId manager_base() const noexcept {
    const auto after_registries =
        kRegistryId + static_cast<sim::NodeId>(registries);
    return after_registries > kManagerId ? after_registries : kManagerId;
  }
  [[nodiscard]] sim::NodeId manager_id(int j) const noexcept {
    return manager_base() + static_cast<sim::NodeId>(j);
  }
  [[nodiscard]] sim::NodeId user_base() const noexcept {
    return manager_base() + static_cast<sim::NodeId>(managers);
  }
  [[nodiscard]] sim::NodeId user_id(int i) const noexcept {
    return user_base() + static_cast<sim::NodeId>(i);
  }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return static_cast<std::size_t>(registries) +
           static_cast<std::size_t>(managers) +
           static_cast<std::size_t>(users);
  }
  /// One past the largest id handed out - the Network::reserve_nodes
  /// argument for allocation-free attach.
  [[nodiscard]] sim::NodeId id_bound() const noexcept {
    return user_base() + static_cast<sim::NodeId>(users);
  }
};

/// Resolves a TopologySpec against the model's registry: `registries`
/// of -1 becomes the paper count; registry-less models (UPnP, mDNS)
/// always resolve to 0 registries; a registry-backed model is clamped
/// to at least one (something must serve as the Central/lookup
/// service); `managers` is clamped to at least one (Manager 0 owns the
/// monitored service and its change hook).
[[nodiscard]] TopologyLayout resolve_topology(SystemModel model,
                                              const TopologySpec& spec) noexcept;

/// Everything one topology instantiation needs to keep alive plus the
/// hook to trigger the monitored change.
struct Topology {
  std::vector<std::unique_ptr<discovery::Node>> nodes;
  std::function<void()> change_service;
};

/// The ablation switches SweepConfig::AblationSpec can flip, as
/// registry-visible values so validate() can reject a sweep that
/// disables a technique none of its selected models implements.
enum class AblationToggle : std::uint8_t {
  kFrodoPr1,
  kFrodoSrn1,
  kFrodoSrn2,
  kFrodoPr3,
  kFrodoPr4,
  kFrodoPr5,
  kUpnpPr4,
  kUpnpPr5,
};

std::string_view to_string(AblationToggle toggle) noexcept;

[[nodiscard]] constexpr std::uint32_t toggle_bit(AblationToggle t) noexcept {
  return 1U << static_cast<unsigned>(t);
}

struct ProtocolDescriptor {
  SystemModel model;
  /// Canonical display/CLI name ("UPnP", "Jini-1R", ..., "mDNS"). Also
  /// hashed into sweep shard seeds - renaming a protocol reshuffles its
  /// per-seed draws, so names are append-only facts.
  std::string_view name;
  /// The module's declarative behaviour sheet.
  discovery::ProtocolSpec spec;
  /// Zero-failure update-message count m' for `users` Users (Table 2)
  /// with `registries` partitioned registries (always resolved - never
  /// -1; Jini's m' is R*(users+2), the others ignore it).
  std::uint64_t (*minimum_update_messages)(int users, int registries);
  /// Dedicated registry nodes in the paper topology (0 for the
  /// decentralized models, 1 for Jini-1R/FRODO-3party, 2 for
  /// Jini-2R/FRODO-2party).
  int registry_nodes;
  /// Bitmask of the AblationToggles this protocol consumes.
  std::uint32_t ablation_mask;
  /// Instantiates the paper topology for this model: constructs nodes in
  /// the canonical attach order and wires the change hook.
  Topology (*build)(const ExperimentConfig& config, sim::Simulator& simulator,
                    net::Network& network,
                    discovery::ConsistencyObserver& observer);

  [[nodiscard]] bool consumes(AblationToggle t) const noexcept {
    return (ablation_mask & toggle_bit(t)) != 0;
  }
};

/// All registered protocols, in kAllModels order.
[[nodiscard]] std::span<const ProtocolDescriptor> all_protocols() noexcept;

/// The descriptor for `model` (every SystemModel value is registered).
[[nodiscard]] const ProtocolDescriptor& protocol_descriptor(
    SystemModel model) noexcept;

/// Case-sensitive name -> model lookup against the registry (the single
/// source of truth for CLI parsing in sdcm_sweep, sdcm_logs and the
/// check sink).
[[nodiscard]] std::optional<SystemModel> model_from_name(
    std::string_view name) noexcept;

/// The node ids of the topology for `model` under `spec`, in attach
/// (= failure-plan) order.
[[nodiscard]] std::vector<sim::NodeId> topology_node_ids(
    SystemModel model, const TopologySpec& spec);

/// Paper-spec convenience: `users` Users, one Manager, the model's
/// default registries.
[[nodiscard]] std::vector<sim::NodeId> topology_node_ids(SystemModel model,
                                                         int users);

/// Space-separated list of every registered protocol name, for usage
/// strings.
[[nodiscard]] std::string model_name_list(char separator = ' ');

}  // namespace sdcm::experiment
