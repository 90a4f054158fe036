#include "sdcm/experiment/protocol_registry.hpp"

#include <cassert>
#include <cstddef>
#include <iterator>
#include <utility>

#include "sdcm/frodo/manager.hpp"
#include "sdcm/frodo/protocol.hpp"
#include "sdcm/frodo/registry_node.hpp"
#include "sdcm/frodo/user.hpp"
#include "sdcm/jini/manager.hpp"
#include "sdcm/jini/protocol.hpp"
#include "sdcm/jini/registry.hpp"
#include "sdcm/jini/user.hpp"
#include "sdcm/mdns/mdns.hpp"
#include "sdcm/upnp/manager.hpp"
#include "sdcm/upnp/protocol.hpp"
#include "sdcm/upnp/user.hpp"

namespace sdcm::experiment {

using discovery::ServiceDescription;

std::string_view to_string(AblationToggle toggle) noexcept {
  switch (toggle) {
    case AblationToggle::kFrodoPr1: return "frodo-pr1";
    case AblationToggle::kFrodoSrn1: return "frodo-srn1";
    case AblationToggle::kFrodoSrn2: return "frodo-srn2";
    case AblationToggle::kFrodoPr3: return "frodo-pr3";
    case AblationToggle::kFrodoPr4: return "frodo-pr4";
    case AblationToggle::kFrodoPr5: return "frodo-pr5";
    case AblationToggle::kUpnpPr4: return "upnp-pr4";
    case AblationToggle::kUpnpPr5: return "upnp-pr5";
  }
  return "?";
}

namespace {

/// The single monitored service of Section 5's experiment design.
ServiceDescription monitored_service() {
  ServiceDescription sd;
  sd.id = 1;
  sd.device_type = "Printer";
  sd.service_type = "ColorPrinter";
  sd.attributes = {{"PaperSize", "A4"}, {"Location", "Study"}};
  return sd;
}

/// Background service published by Manager `index` (index >= 1; Manager
/// 0 keeps the monitored service). A distinct service_type keeps the
/// Users' interest templates from matching it, so extra Managers load
/// the registries and the multicast medium without joining the
/// consistency window - the monitored change's m' is unchanged.
ServiceDescription background_service(int index) {
  ServiceDescription sd = monitored_service();
  sd.id = 1 + static_cast<discovery::ServiceId>(index);
  sd.service_type += '-';
  sd.service_type += std::to_string(index + 1);
  return sd;
}

/// Capability ladder for FRODO registry candidates: the paper's
/// Central/Backup pair is 100/90; further candidates descend 89, 88, ...
/// (floored at 1) so the election ranking stays strict and stable.
frodo::Capability frodo_capability(int index) {
  if (index == 0) return 100;
  const int capability = 91 - index;
  return static_cast<frodo::Capability>(capability > 1 ? capability : 1);
}

// Per-model m' formulas (Table 2 / Figure 6 legend). `registries` is
// the resolved partitioned-registry count.
std::uint64_t min_messages_upnp(int users, int /*registries*/) {
  return 3 * static_cast<std::uint64_t>(users);  // invalidation: 3 per User
}
std::uint64_t min_messages_jini(int users, int registries) {
  // Each partitioned registry costs update + ack and renotifies every
  // User: R*(users+2). R=1 and R=2 are the Figure 6 legend's 7 and 14.
  return static_cast<std::uint64_t>(registries) *
         (static_cast<std::uint64_t>(users) + 2);
}
std::uint64_t min_messages_frodo(int users, int /*registries*/) {
  return static_cast<std::uint64_t>(users) + 2;
}
std::uint64_t min_messages_mdns(int /*users*/, int /*registries*/) {
  // The change burst is update_repeats multicasts, independent of the
  // user population (MdnsConfig::update_repeats default).
  return 2;
}

// Topology builders. Attach order is the failure-plan assignment order:
// registries, then the Managers, then the Users - do not reorder.

/// Shared Manager construction: Manager 0 owns the monitored service
/// and the change hook; Managers 1..M-1 publish background services.
template <typename Manager, typename... Args>
void add_manager(Topology& topo, const TopologyLayout& layout, int index,
                 const ServiceDescription& sd, sim::Simulator& simulator,
                 net::Network& network, Args&&... args) {
  auto manager = std::make_unique<Manager>(simulator, network,
                                           layout.manager_id(index),
                                           std::forward<Args>(args)...);
  if (index == 0) {
    manager->add_service(sd);
    topo.change_service = [m = manager.get()] { m->change_service(1); };
  } else {
    manager->add_service(background_service(index));
  }
  topo.nodes.push_back(std::move(manager));
}

Topology build_upnp(const ExperimentConfig& config, sim::Simulator& simulator,
                    net::Network& network,
                    discovery::ConsistencyObserver& observer) {
  const TopologyLayout layout = resolve_topology(config.model, config.topology);
  Topology topo;
  const auto sd = monitored_service();
  for (int j = 0; j < layout.managers; ++j) {
    add_manager<upnp::UpnpManager>(topo, layout, j, sd, simulator, network,
                                   config.upnp, &observer);
  }
  for (int i = 0; i < layout.users; ++i) {
    topo.nodes.push_back(std::make_unique<upnp::UpnpUser>(
        simulator, network, layout.user_id(i),
        upnp::Requirement{sd.device_type, sd.service_type}, config.upnp,
        &observer));
  }
  return topo;
}

Topology build_jini(const ExperimentConfig& config, sim::Simulator& simulator,
                    net::Network& network,
                    discovery::ConsistencyObserver& observer) {
  const TopologyLayout layout = resolve_topology(config.model, config.topology);
  Topology topo;
  const auto sd = monitored_service();
  for (int r = 0; r < layout.registries; ++r) {
    topo.nodes.push_back(std::make_unique<jini::JiniRegistry>(
        simulator, network, layout.registry_id(r), config.jini, &observer));
  }
  for (int j = 0; j < layout.managers; ++j) {
    add_manager<jini::JiniManager>(topo, layout, j, sd, simulator, network,
                                   config.jini, &observer);
  }
  for (int i = 0; i < layout.users; ++i) {
    topo.nodes.push_back(std::make_unique<jini::JiniUser>(
        simulator, network, layout.user_id(i),
        jini::Template{sd.device_type, sd.service_type}, config.jini,
        &observer));
  }
  return topo;
}

Topology build_frodo(const ExperimentConfig& config, sim::Simulator& simulator,
                     net::Network& network,
                     discovery::ConsistencyObserver& observer) {
  const TopologyLayout layout = resolve_topology(config.model, config.topology);
  Topology topo;
  const auto sd = monitored_service();
  const bool two_party = config.model == SystemModel::kFrodoTwoParty;
  // Topology (a) is the lone Central; topology (b) adds a 300D Backup
  // (8 nodes, all 300D). Extra registries are further standby
  // candidates down the capability ladder.
  for (int r = 0; r < layout.registries; ++r) {
    topo.nodes.push_back(std::make_unique<frodo::FrodoRegistryNode>(
        simulator, network, layout.registry_id(r), frodo_capability(r),
        config.frodo, &observer));
  }
  const auto device_class =
      two_party ? frodo::DeviceClass::k300D : frodo::DeviceClass::k3D;
  for (int j = 0; j < layout.managers; ++j) {
    add_manager<frodo::FrodoManager>(topo, layout, j, sd, simulator, network,
                                     device_class, config.frodo, &observer);
  }
  for (int i = 0; i < layout.users; ++i) {
    topo.nodes.push_back(std::make_unique<frodo::FrodoUser>(
        simulator, network, layout.user_id(i), device_class,
        frodo::Matching{sd.device_type, sd.service_type}, config.frodo,
        &observer));
  }
  return topo;
}

Topology build_mdns(const ExperimentConfig& config, sim::Simulator& simulator,
                    net::Network& network,
                    discovery::ConsistencyObserver& observer) {
  const TopologyLayout layout = resolve_topology(config.model, config.topology);
  Topology topo;
  const auto sd = monitored_service();
  for (int j = 0; j < layout.managers; ++j) {
    add_manager<mdns::MdnsResponder>(topo, layout, j, sd, simulator, network,
                                     config.mdns, &observer);
  }
  for (int i = 0; i < layout.users; ++i) {
    topo.nodes.push_back(std::make_unique<mdns::MdnsListener>(
        simulator, network, layout.user_id(i),
        mdns::Interest{sd.device_type, sd.service_type}, config.mdns,
        &observer));
  }
  return topo;
}

constexpr std::uint32_t kFrodoAblations =
    toggle_bit(AblationToggle::kFrodoPr1) |
    toggle_bit(AblationToggle::kFrodoSrn1) |
    toggle_bit(AblationToggle::kFrodoSrn2) |
    toggle_bit(AblationToggle::kFrodoPr3) |
    toggle_bit(AblationToggle::kFrodoPr4) |
    toggle_bit(AblationToggle::kFrodoPr5);
constexpr std::uint32_t kUpnpAblations = toggle_bit(AblationToggle::kUpnpPr4) |
                                         toggle_bit(AblationToggle::kUpnpPr5);

/// The registry itself, in kAllModels (enum) order so descriptor lookup
/// is an index. Adding a protocol: append the enum value, the kAllModels
/// entry and one row here; the guard test in
/// tests/experiment/test_protocol_registry.cpp enforces they stay in
/// sync.
const ProtocolDescriptor kProtocols[] = {
    {SystemModel::kUpnp, "UPnP", upnp::protocol_spec(), &min_messages_upnp,
     /*registry_nodes=*/0, kUpnpAblations, &build_upnp},
    {SystemModel::kJiniOneRegistry, "Jini-1R", jini::protocol_spec(),
     &min_messages_jini, /*registry_nodes=*/1, /*ablation_mask=*/0,
     &build_jini},
    {SystemModel::kJiniTwoRegistries, "Jini-2R", jini::protocol_spec(),
     &min_messages_jini, /*registry_nodes=*/2, /*ablation_mask=*/0,
     &build_jini},
    {SystemModel::kFrodoThreeParty, "FRODO-3party",
     frodo::protocol_spec(/*two_party=*/false), &min_messages_frodo,
     /*registry_nodes=*/1, kFrodoAblations, &build_frodo},
    {SystemModel::kFrodoTwoParty, "FRODO-2party",
     frodo::protocol_spec(/*two_party=*/true), &min_messages_frodo,
     /*registry_nodes=*/2, kFrodoAblations, &build_frodo},
    {SystemModel::kMdns, "mDNS", mdns::protocol_spec(), &min_messages_mdns,
     /*registry_nodes=*/0, /*ablation_mask=*/0, &build_mdns},
};

static_assert(std::size(kProtocols) == std::size(kAllModels),
              "every SystemModel needs a ProtocolDescriptor row");

}  // namespace

std::span<const ProtocolDescriptor> all_protocols() noexcept {
  return kProtocols;
}

const ProtocolDescriptor& protocol_descriptor(SystemModel model) noexcept {
  const auto index = static_cast<std::size_t>(model);
  assert(index < std::size(kProtocols));
  assert(kProtocols[index].model == model);
  return kProtocols[index];
}

std::optional<SystemModel> model_from_name(std::string_view name) noexcept {
  for (const auto& descriptor : kProtocols) {
    if (descriptor.name == name) return descriptor.model;
  }
  return std::nullopt;
}

TopologyLayout resolve_topology(SystemModel model,
                                const TopologySpec& spec) noexcept {
  const auto& descriptor = protocol_descriptor(model);
  TopologyLayout layout;
  if (descriptor.registry_nodes == 0) {
    layout.registries = 0;  // no registry node class to instantiate
  } else if (spec.registries < 0) {
    layout.registries = descriptor.registry_nodes;
  } else {
    layout.registries = spec.registries > 1 ? spec.registries : 1;
  }
  layout.managers = spec.managers > 1 ? spec.managers : 1;
  layout.users = spec.users > 0 ? spec.users : 0;
  return layout;
}

std::vector<sim::NodeId> topology_node_ids(SystemModel model,
                                           const TopologySpec& spec) {
  const TopologyLayout layout = resolve_topology(model, spec);
  std::vector<sim::NodeId> ids;
  ids.reserve(layout.node_count());
  for (int r = 0; r < layout.registries; ++r) {
    ids.push_back(layout.registry_id(r));
  }
  for (int j = 0; j < layout.managers; ++j) {
    ids.push_back(layout.manager_id(j));
  }
  for (int i = 0; i < layout.users; ++i) {
    ids.push_back(layout.user_id(i));
  }
  return ids;
}

std::vector<sim::NodeId> topology_node_ids(SystemModel model, int users) {
  TopologySpec spec;
  spec.users = users;
  return topology_node_ids(model, spec);
}

std::string model_name_list(char separator) {
  std::string out;
  for (const auto& descriptor : kProtocols) {
    if (!out.empty()) out += separator;
    out += descriptor.name;
  }
  return out;
}

std::string_view to_string(SystemModel model) noexcept {
  return protocol_descriptor(model).name;
}

std::uint64_t minimum_update_messages(SystemModel model, int users,
                                      int registries) noexcept {
  const auto& descriptor = protocol_descriptor(model);
  const int resolved =
      registries < 0 ? descriptor.registry_nodes : registries;
  return descriptor.minimum_update_messages(users, resolved);
}

}  // namespace sdcm::experiment
