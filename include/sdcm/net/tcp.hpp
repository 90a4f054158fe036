#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "sdcm/net/network.hpp"

namespace sdcm::net {

/// Behavioural TCP model, exactly as the paper parameterises it in
/// Table 3 (UPnP and Jini use it for all unicast; FRODO never does):
///
///  - Connection setup: an initial SYN plus 4 retransmission attempts
///    spaced 6 s, 24 s, 24 s, 24 s apart; if none completes a
///    SYN / SYN-ACK exchange, a Remote Exception (REX) is raised to the
///    service discovery layer ~78 s after the first attempt.
///  - Data transfer: retransmit until success, first timeout is the
///    round-trip time, each retry increases the timeout by 25 %.
///
/// This is a model, not a byte-stream implementation: we simulate the
/// segment exchanges (so their cost appears in the message counters and
/// their latency in the clock) and both connection endpoints live inside
/// one object. Application messages arrive at the peer's normal Network
/// handler with `Message::conn` set, so request/response protocols can
/// reply on the same connection.
struct TcpConfig {
  /// Gaps between successive connection-setup attempts (one
  /// retransmission after each). REX fires after the last gap elapses
  /// without a completed handshake. A fixed-size array keeps the config
  /// trivially copyable: every connection copies it.
  std::array<sim::SimDuration, 4> setup_retry_delays{
      sim::seconds(6), sim::seconds(24), sim::seconds(24), sim::seconds(24)};
  /// First data-retransmission timeout. Table 3 says "round trip time";
  /// with one-way delays <= 100 us the worst-case RTT is 200 us, so the
  /// default 400 us guarantees no spurious retransmission on a healthy
  /// network (which keeps the lambda = 0 message counts exact).
  sim::SimDuration initial_rto = sim::microseconds(400);
  double rto_backoff = 1.25;
};
static_assert(std::is_trivially_copyable_v<TcpConfig>);

/// One connection costs one allocation: the object and its shared_ptr
/// control block together, with the first kInlineTransfers transfers
/// (a request and its response) stored inline. Segment outcomes come
/// back from the Network as typed SegmentCompletions, and timers
/// capture {self, index} - nothing in the exchange boxes a closure.
class TcpConnection : public std::enable_shared_from_this<TcpConnection> {
  /// Constructor key: lets std::make_shared reach the constructor while
  /// keeping construction private to open().
  struct Key {
    explicit Key() = default;
  };

 public:
  using Config = TcpConfig;

  using OpenCallback = std::function<void(std::shared_ptr<TcpConnection>)>;
  using RexCallback = std::function<void()>;
  using AckCallback = std::function<void()>;

  /// Starts a connection attempt from `initiator` to `responder`.
  /// Exactly one of on_open / on_rex will eventually fire (unless the run
  /// ends first). The connection keeps itself alive through its pending
  /// events; callers keep the shared_ptr only if they want to send later.
  /// `span` is the causal span the connection works on behalf of (its
  /// segments, REX record and callbacks parent there); kNoSpan adopts the
  /// ambient span at the call site.
  static void open(Network& network, NodeId initiator, NodeId responder,
                   OpenCallback on_open, RexCallback on_rex,
                   TcpConfig config = {}, sim::SpanId span = sim::kNoSpan);

  /// Convenience: open a connection and, once open, send one message;
  /// on_rex fires if the handshake fails. Mirrors the one-shot
  /// notify/renew exchanges UPnP and Jini perform.
  static void open_and_send(Network& network, Message msg, AckCallback on_acked,
                            RexCallback on_rex, TcpConfig config = {});

  TcpConnection(Key, Network& network, NodeId initiator, NodeId responder,
                const Config& config, sim::SpanId span);
  ~TcpConnection() = default;
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Sends an application message between the endpoints (msg.src must be
  /// one of them, msg.dst the other). Retransmits until delivered and
  /// acknowledged; `on_acked` fires at the sender when the ack arrives.
  /// Requires the connection to be open and not closed.
  void send(Message msg, AckCallback on_acked = {});

  /// Tears the connection down; pending retransmissions stop and no
  /// further callbacks fire.
  void close();

  [[nodiscard]] bool is_open() const noexcept { return opened_ && !closed_; }
  [[nodiscard]] NodeId initiator() const noexcept { return initiator_; }
  [[nodiscard]] NodeId responder() const noexcept { return responder_; }
  [[nodiscard]] NodeId peer_of(NodeId n) const noexcept {
    return n == initiator_ ? responder_ : initiator_;
  }

 private:
  friend class Network;  // reports segment outcomes via on_segment

  struct Transfer {
    Message msg;
    AckCallback on_acked;
    sim::SimDuration rto = 0;
    bool counted_as_app = false;   // first wire copy carries the app class
    bool delivered_to_app = false; // receiver-side duplicate suppression
    bool acked = false;
    sim::EventId retransmit_timer = sim::kInvalidEventId;
  };
  static constexpr std::uint32_t kInlineTransfers = 2;

  /// Schedules the REX deadline and sends the first SYN.
  void start();
  void attempt_handshake(std::size_t attempt);
  void handshake_succeeded();

  /// Appends a transfer (span and first timeout resolved now) and
  /// returns its index; does not put anything on the wire.
  std::uint32_t add_transfer(Message msg, AckCallback on_acked);
  [[nodiscard]] Transfer& transfer(std::uint32_t index);
  void transfer_attempt(std::uint32_t index);

  /// The Network's report of one segment's outcome.
  void on_segment(Segment kind, std::uint32_t index, bool delivered);
  void data_arrived(std::uint32_t index);
  void ack_arrived(std::uint32_t index);

  Network& net_;
  NodeId initiator_;
  NodeId responder_;
  Config config_;
  /// Causal span the connection's transport activity belongs to; all
  /// SYN/SYN-ACK segments, the REX record, and timer-driven work parent
  /// here (set once at open, from the argument or the ambient span).
  sim::SpanId span_ = sim::kNoSpan;
  OpenCallback on_open_;
  RexCallback on_rex_;
  bool opened_ = false;
  bool rexed_ = false;
  bool closed_ = false;
  /// Set by open_and_send: transfer 0 is queued and starts at open.
  bool send_on_open_ = false;
  sim::EventId next_attempt_timer_ = sim::kInvalidEventId;
  sim::EventId rex_timer_ = sim::kInvalidEventId;
  std::uint32_t transfer_count_ = 0;
  std::array<Transfer, kInlineTransfers> inline_transfers_;
  /// Transfers past the inline ones (long-lived connections only).
  /// Indices stay valid for the connection's lifetime (late duplicates
  /// look them up), so entries are never reused: a connection used for
  /// many send()s grows by one Transfer per send. An acknowledged
  /// transfer drops its payload and callback, so what is kept is the
  /// fixed-size bookkeeping only.
  std::vector<Transfer> more_transfers_;
};

}  // namespace sdcm::net
