#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sdcm/net/message_type.hpp"
#include "sdcm/discovery/service.hpp"
#include "sdcm/frodo/device.hpp"
#include "sdcm/sim/time.hpp"

/// Message payloads of the FRODO model. All transport is UDP (Table 3);
/// reliability is protocol-level: *selected* messages carry a token and
/// are acknowledged and retransmitted (SRN1/SRC1).
namespace sdcm::frodo {

using discovery::NodeId;
using discovery::ServiceId;
using discovery::ServiceVersion;

/// Correlates an acknowledged message with its ack. 0 = no ack expected.
using Token = std::uint64_t;

namespace msg {
// Discovery & election
inline const net::MessageType kNodeAnnounce = net::MessageType::intern("frodo.node_announce");
inline const net::MessageType kCentralAnnounce = net::MessageType::intern("frodo.central_announce");
inline const net::MessageType kRegistryHere = net::MessageType::intern("frodo.registry_here");
inline const net::MessageType kBackupAssign = net::MessageType::intern("frodo.backup_assign");
inline const net::MessageType kBackupSync = net::MessageType::intern("frodo.backup_sync");
// Registration (Manager <-> Central)
inline const net::MessageType kRegister = net::MessageType::intern("frodo.register");
inline const net::MessageType kRegisterAck = net::MessageType::intern("frodo.register_ack");
inline const net::MessageType kRenewRegistration = net::MessageType::intern("frodo.renew_registration");
inline const net::MessageType kReregisterRequest = net::MessageType::intern("frodo.reregister_request");
// Search (User -> Central / Manager)
inline const net::MessageType kServiceSearch = net::MessageType::intern("frodo.service_search");
inline const net::MessageType kMulticastSearch = net::MessageType::intern("frodo.multicast_search");
inline const net::MessageType kServiceFound = net::MessageType::intern("frodo.service_found");
// Subscription (User <-> Central or 300D Manager)
inline const net::MessageType kSubscriptionRequest = net::MessageType::intern("frodo.subscription_request");
inline const net::MessageType kSubscribeAck = net::MessageType::intern("frodo.subscribe_ack");
inline const net::MessageType kSubscriptionRenew = net::MessageType::intern("frodo.subscription_renew");
inline const net::MessageType kResubscribeRequest = net::MessageType::intern("frodo.resubscribe_request");
// Updates
inline const net::MessageType kServiceUpdate = net::MessageType::intern("frodo.service_update");
inline const net::MessageType kUpdateAck = net::MessageType::intern("frodo.update_ack");
inline const net::MessageType kClientUpdateAck = net::MessageType::intern("frodo.client_update_ack");
inline const net::MessageType kServicePurged = net::MessageType::intern("frodo.service_purged");
// PR1 interest notification
inline const net::MessageType kNotificationRequest = net::MessageType::intern("frodo.notification_request");
inline const net::MessageType kServiceNotification = net::MessageType::intern("frodo.service_notification");
inline const net::MessageType kNotificationAck = net::MessageType::intern("frodo.notification_ack");
// SRC2 history recovery (critical updates)
inline const net::MessageType kUpdateRequest = net::MessageType::intern("frodo.update_request");
inline const net::MessageType kUpdateHistory = net::MessageType::intern("frodo.update_history");
// Generic control-plane ack
inline const net::MessageType kAck = net::MessageType::intern("frodo.ack");
}  // namespace msg

struct Matching {
  std::string device_type;
  std::string service_type;

  [[nodiscard]] bool matches(const discovery::ServiceDescription& sd) const {
    return device_type == sd.device_type && service_type == sd.service_type;
  }
};

struct NodeAnnounce {
  NodeId node = sim::kNoNode;
  DeviceClass device_class = DeviceClass::k3D;
  Capability capability = 0;
  bool registry_capable = false;
};

struct CentralAnnounce {
  NodeId central = sim::kNoNode;
  Capability capability = 0;
  /// Bumped on every takeover; clients and rival Centrals follow the
  /// highest epoch (ties broken by capability then id).
  std::uint64_t epoch = 0;
};

struct RegistryHere {
  NodeId central = sim::kNoNode;
  std::uint64_t epoch = 0;
};

struct BackupAssign {
  Token token = 0;
  NodeId central = sim::kNoNode;
  std::uint64_t epoch = 0;
};

/// Full-state snapshot pushed to the Backup on every mutation; the Backup
/// takes over with this state (Section 3: "a Backup is appointed by the
/// Central to store configuration information").
struct BackupSync {
  struct RegistrationRecord {
    discovery::ServiceDescription sd;
    DeviceClass manager_class = DeviceClass::k3D;
    bool critical = false;
  };
  struct SubscriptionRecord {
    ServiceId service = 0;
    NodeId user = sim::kNoNode;
  };
  struct InterestRecord {
    NodeId user = sim::kNoNode;
    Matching matching;
    ServiceVersion known_version = 0;
  };
  std::vector<RegistrationRecord> registrations;
  std::vector<SubscriptionRecord> subscriptions;
  std::vector<InterestRecord> interests;
};

struct Register {
  Token token = 0;
  NodeId manager = sim::kNoNode;
  DeviceClass manager_class = DeviceClass::k3D;
  discovery::ServiceDescription sd;
  bool critical = false;
};

struct RegisterAck {
  Token token = 0;
  ServiceId service = 0;
  sim::SimDuration lease = 0;
};

struct RenewRegistration {
  Token token = 0;
  NodeId manager = sim::kNoNode;
  ServiceId service = 0;
};

struct ReregisterRequest {
  Token token = 0;  ///< settles the renewal this replaces
  ServiceId service = 0;
};

struct ServiceSearch {
  NodeId user = sim::kNoNode;
  Matching matching;
};

struct MulticastSearch {
  NodeId user = sim::kNoNode;
  Matching matching;
};

struct ServiceFound {
  bool found = false;
  discovery::ServiceDescription sd;
  DeviceClass manager_class = DeviceClass::k3D;
};

struct SubscriptionRequest {
  Token token = 0;
  NodeId user = sim::kNoNode;
  ServiceId service = 0;
  /// Version the User already holds; the (re)subscription ack carries the
  /// current description when it is newer - the PR3/PR4 recovery payload.
  ServiceVersion known_version = 0;
};

struct SubscribeAck {
  Token token = 0;
  ServiceId service = 0;
  sim::SimDuration lease = 0;
  /// Present iff the lessor's version is newer than known_version.
  std::optional<discovery::ServiceDescription> sd;
};

struct SubscriptionRenew {
  /// Always fire-and-forget (Figure 1 shows no ack); the token is kept in
  /// the payload so a ResubscribeRequest can reference the renewal it
  /// answers, but is 0 in normal operation.
  Token token = 0;
  NodeId user = sim::kNoNode;
  ServiceId service = 0;
};

struct ResubscribeRequest {
  Token token = 0;  ///< settles the renewal this replaces (may be 0)
  ServiceId service = 0;
};

struct ServiceUpdate {
  Token token = 0;
  /// Invalidation mode: only id / manager / version are meaningful - the
  /// User must fetch the body (UpdateRequest -> UpdateHistory).
  discovery::ServiceDescription sd;
  bool critical = false;
  bool invalidation = false;
};

struct Ack {
  Token token = 0;
};

struct ServicePurged {
  ServiceId service = 0;
};

struct NotificationRequest {
  NodeId user = sim::kNoNode;
  Matching matching;
  /// Immediate notification only when the Registry holds something newer
  /// (FRODO notifies on *existing* registrations, fixing Jini's anomaly,
  /// without duplicating what the User already has).
  ServiceVersion known_version = 0;
};

struct ServiceNotification {
  Token token = 0;
  discovery::ServiceDescription sd;
  DeviceClass manager_class = DeviceClass::k3D;
};

struct UpdateRequest {
  NodeId user = sim::kNoNode;
  ServiceId service = 0;
  /// First missed version (SRC2: the receiver monitors sequence numbers
  /// and requests the gap).
  ServiceVersion from_version = 0;
};

struct UpdateHistory {
  ServiceId service = 0;
  /// Missed descriptions in version order.
  std::vector<discovery::ServiceDescription> versions;
};

}  // namespace sdcm::frodo
