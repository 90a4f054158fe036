#pragma once

#include <map>
#include <string_view>

#include "sdcm/discovery/lease_table.hpp"
#include "sdcm/discovery/node.hpp"
#include "sdcm/discovery/node_map.hpp"
#include "sdcm/discovery/recovery.hpp"
#include "sdcm/frodo/acked_channel.hpp"
#include "sdcm/frodo/config.hpp"
#include "sdcm/frodo/messages.hpp"

namespace sdcm::discovery {
class ConsistencyObserver;
}

namespace sdcm::frodo {

/// A 300D node with an active Registry component: participates in leader
/// election, and serves as the Central (the elected Registry), the Backup
/// (stores the synced configuration and takes over automatically when the
/// Central goes silent), or a standby candidate.
///
/// Central duties (Sections 3-4): hold leased service registrations,
/// 3-party subscriptions and notification interests; acknowledge and
/// propagate ServiceUpdates (SRN1/SRC1); notify interests on new AND
/// existing registrations (FRODO's PR1, fixing Jini's future-only
/// anomaly); request resubscription from Users it has purged (PR3); tell
/// subscribers when it purges a Manager (feeding PR5); answer unicast
/// service searches; respond to node announcements so joining nodes find
/// it fast; appoint and sync the Backup.
class FrodoRegistryNode : public discovery::Node {
 public:
  enum class Role : std::uint8_t { kElecting, kCentral, kBackup, kStandby };

  /// `observer` (optional, non-owning) receives lease and notification
  /// hooks for the consistency oracle.
  FrodoRegistryNode(sim::Simulator& simulator, net::Network& network,
                    NodeId id, Capability capability, FrodoConfig config = {},
                    discovery::ConsistencyObserver* observer = nullptr);

  /// FRODO's technique set (Table 2). PR5 is listed as
  /// application-dependent and lives in FrodoUser; SRN2 in the 2-party
  /// FrodoManager.
  static discovery::TechniqueSet techniques() {
    using discovery::RecoveryTechnique;
    return {RecoveryTechnique::kSRN1, RecoveryTechnique::kSRN2,
            RecoveryTechnique::kSRC1, RecoveryTechnique::kSRC2,
            RecoveryTechnique::kPR1,  RecoveryTechnique::kPR3,
            RecoveryTechnique::kPR4,  RecoveryTechnique::kPR5};
  }

  void start() override;

  [[nodiscard]] Role role() const noexcept { return role_; }
  [[nodiscard]] bool is_central() const noexcept {
    return role_ == Role::kCentral;
  }
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] NodeId backup() const noexcept { return backup_; }
  [[nodiscard]] Capability capability() const noexcept { return capability_; }

  [[nodiscard]] bool has_registration(ServiceId service) const {
    return registrations_.contains(service);
  }
  [[nodiscard]] std::size_t registration_count() const noexcept {
    return registrations_.size();
  }
  [[nodiscard]] std::size_t subscription_count(ServiceId service) const;
  [[nodiscard]] std::size_t interest_count() const noexcept {
    return interests_.size();
  }

 private:
  void on_message(const net::Message& msg) override;
  [[nodiscard]] std::optional<std::vector<net::MessageType>>
  multicast_interests() const override;

  // --- election / role management ---
  void conclude_election();
  void become_central(std::uint64_t epoch);
  void become_standby();
  void announce_central();
  void appoint_backup();
  void monitor_tick();
  void handle_central_announce(const net::Message& msg);
  void handle_node_announce(const net::Message& msg);
  void handle_backup_assign(const net::Message& msg);
  void handle_backup_sync(const net::Message& msg);

  // --- central duties ---
  void handle_register(const net::Message& msg);
  void handle_renew_registration(const net::Message& msg);
  void handle_service_update(const net::Message& msg);
  void handle_service_search(const net::Message& msg);
  void handle_subscription_request(const net::Message& msg);
  void handle_subscription_renew(const net::Message& msg);
  void handle_notification_request(const net::Message& msg);
  void handle_update_request(const net::Message& msg);
  void purge_registration(ServiceId service);
  void purge_subscription(ServiceId service, NodeId user);
  void propagate_update(ServiceId service);
  void notify_interests(ServiceId service);
  void notify_interest(NodeId user, ServiceId service);
  void sync_backup();
  void arm_registration_expiry(ServiceId service);
  void arm_subscription_expiry(ServiceId service, NodeId user);

  struct Registration : discovery::LeaseEntry {
    discovery::ServiceDescription sd;
    DeviceClass manager_class = DeviceClass::k3D;
    bool critical = false;
    /// SRC2: retained history of changed descriptions, by version.
    std::map<ServiceVersion, discovery::ServiceDescription> history;
  };
  struct Subscription : discovery::LeaseEntry {};
  /// A User's PR1 interest and the version it reported holding; the
  /// Central never notifies it of that version or an older one.
  struct Interest {
    Matching matching;
    ServiceVersion known_version = 0;
  };

  FrodoConfig config_;
  discovery::ConsistencyObserver* observer_ = nullptr;
  Capability capability_;
  AckedChannel channel_;

  Role role_ = Role::kElecting;
  std::uint64_t epoch_ = 0;
  discovery::NodeMap<NodeId, Capability> candidates_;
  sim::EventId election_timer_ = sim::kInvalidEventId;
  sim::PeriodicTimer announce_timer_;
  sim::PeriodicTimer monitor_timer_;
  NodeId known_central_ = sim::kNoNode;
  std::uint64_t known_epoch_ = 0;
  sim::SimTime last_central_heard_ = 0;
  NodeId backup_ = sim::kNoNode;

  std::map<ServiceId, Registration> registrations_;
  /// Per-service 3-party subscribers and per-User notification interests:
  /// the N-scaling session tables, held in dense NodeMap slabs.
  std::map<ServiceId, discovery::NodeMap<NodeId, Subscription>>
      subscriptions_;
  discovery::NodeMap<NodeId, Interest> interests_;
  /// Snapshot held while serving as Backup; installed on takeover.
  BackupSync synced_;
};

std::string_view to_string(FrodoRegistryNode::Role role) noexcept;

}  // namespace sdcm::frodo
