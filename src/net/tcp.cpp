#include "sdcm/net/tcp.hpp"

#include <atomic>
#include <cassert>
#include <string>
#include <utility>

#include "sdcm/obs/profile_site.hpp"

namespace sdcm::net {

namespace {

const MessageType kSyn = MessageType::intern("tcp.syn");
const MessageType kSynAck = MessageType::intern("tcp.synack");
const MessageType kAck = MessageType::intern("tcp.ack");

Message transport_segment(NodeId src, NodeId dst, MessageType type) {
  Message seg;
  seg.src = src;
  seg.dst = dst;
  seg.type = type;
  seg.klass = MessageClass::kTransport;
  return seg;
}

/// The ".retx" variant of an app message type. Every retransmitted
/// segment asks, so each atom's sibling is interned once and cached in a
/// per-atom slot (0 = not yet resolved; no ".retx" atom is ever id 0):
/// later retransmissions take no lock and build no string. Threads that
/// race on a cold slot intern the same spelling and store the same id.
MessageType retx_type(MessageType app) {
  static std::atomic<MessageType::Id> retx[MessageType::kMaxAtoms];
  std::atomic<MessageType::Id>& slot = retx[app.id()];
  MessageType::Id id = slot.load(std::memory_order_acquire);
  if (id == 0) {
    id = MessageType::intern(std::string(app.str()) + ".retx").id();
    slot.store(id, std::memory_order_release);
  }
  return MessageType::at(id);
}

}  // namespace

TcpConnection::TcpConnection(Key, Network& network, NodeId initiator,
                             NodeId responder, const Config& config,
                             sim::SpanId span)
    : net_(network),
      initiator_(initiator),
      responder_(responder),
      config_(config),
      span_(span != sim::kNoSpan ? span
                                 : network.simulator().trace().ambient()) {}

void TcpConnection::open(Network& network, NodeId initiator, NodeId responder,
                         OpenCallback on_open, RexCallback on_rex,
                         Config config, sim::SpanId span) {
  const auto conn = std::make_shared<TcpConnection>(
      Key{}, network, initiator, responder, config, span);
  conn->on_open_ = std::move(on_open);
  conn->on_rex_ = std::move(on_rex);
  conn->start();
}

void TcpConnection::open_and_send(Network& network, Message msg,
                                  AckCallback on_acked, RexCallback on_rex,
                                  Config config) {
  if (msg.span == sim::kNoSpan) {
    msg.span = network.simulator().trace().ambient();
  }
  const auto conn = std::make_shared<TcpConnection>(
      Key{}, network, msg.src, msg.dst, config, msg.span);
  conn->on_rex_ = std::move(on_rex);
  conn->add_transfer(std::move(msg), std::move(on_acked));
  conn->send_on_open_ = true;
  conn->start();
}

void TcpConnection::start() {
  // The initial SYN goes out now; one retransmission follows each
  // configured gap (Table 3: initial + 4 retransmissions at 6/24/24/24 s).
  // REX is concluded when the last retransmission has also gone one full
  // final gap without an answer.
  sim::SimDuration rex_after = config_.setup_retry_delays.back();
  for (const auto gap : config_.setup_retry_delays) rex_after += gap;
  rex_timer_ = net_.simulator().schedule_in(
      rex_after, [self = shared_from_this()]() {
        SDCM_PROFILE_SITE(self->net_.simulator(), "timer.tcp.setup_rex");
        self->rex_timer_ = sim::kInvalidEventId;
        if (self->opened_ || self->closed_) return;
        self->rexed_ = true;
        sim::Simulator& simulator = self->net_.simulator();
        if (self->next_attempt_timer_ != sim::kInvalidEventId) {
          simulator.cancel(self->next_attempt_timer_);
          self->next_attempt_timer_ = sim::kInvalidEventId;
        }
        simulator.trace().record_child(self->span_, simulator.now(),
                                       self->initiator_,
                                       sim::TraceCategory::kTransport,
                                       "tcp.rex", "to=", self->responder_);
        if (obs::Registry* metrics = simulator.metrics()) {
          metrics->counter("tcp.rex").inc();
        }
        if (self->on_rex_) {
          sim::SpanScope scope(simulator.trace(), self->span_);
          self->on_rex_();
        }
      });

  attempt_handshake(0);
}

void TcpConnection::attempt_handshake(std::size_t attempt) {
  if (opened_ || rexed_ || closed_) return;
  auto self = shared_from_this();

  Message syn = transport_segment(initiator_, responder_, kSyn);
  syn.span = span_;
  net_.transmit(std::move(syn), /*deliver=*/false, {self, Segment::kSyn});

  if (attempt < config_.setup_retry_delays.size()) {
    next_attempt_timer_ = net_.simulator().schedule_in(
        config_.setup_retry_delays[attempt], [self, attempt]() {
          SDCM_PROFILE_SITE(self->net_.simulator(), "timer.tcp.syn_retry");
          self->next_attempt_timer_ = sim::kInvalidEventId;
          self->attempt_handshake(attempt + 1);
        });
  }
}

void TcpConnection::handshake_succeeded() {
  opened_ = true;
  auto& simulator = net_.simulator();
  if (next_attempt_timer_ != sim::kInvalidEventId) {
    simulator.cancel(next_attempt_timer_);
    next_attempt_timer_ = sim::kInvalidEventId;
  }
  if (rex_timer_ != sim::kInvalidEventId) {
    simulator.cancel(rex_timer_);
    rex_timer_ = sim::kInvalidEventId;
  }
  if (on_open_) on_open_(shared_from_this());
  if (send_on_open_) transfer_attempt(0);
}

void TcpConnection::on_segment(Segment kind, std::uint32_t index,
                               bool delivered) {
  if (!delivered) return;
  switch (kind) {
    case Segment::kSyn: {
      if (opened_ || rexed_ || closed_) return;
      Message synack = transport_segment(responder_, initiator_, kSynAck);
      synack.span = span_;
      net_.transmit(std::move(synack), /*deliver=*/false,
                    {shared_from_this(), Segment::kSynAck});
      return;
    }
    case Segment::kSynAck:
      if (opened_ || rexed_ || closed_) return;
      handshake_succeeded();
      return;
    case Segment::kData:
      data_arrived(index);
      return;
    case Segment::kAck:
      ack_arrived(index);
      return;
  }
}

std::uint32_t TcpConnection::add_transfer(Message msg, AckCallback on_acked) {
  const std::uint32_t index = transfer_count_++;
  if (index >= kInlineTransfers) more_transfers_.emplace_back();
  Transfer& t = transfer(index);
  t.msg = std::move(msg);
  if (t.msg.span == sim::kNoSpan) {
    // Capture the caller's causal context now: retransmissions fire from
    // timer context, where the ambient span is gone.
    const sim::SpanId ambient = net_.simulator().trace().ambient();
    t.msg.span = ambient != sim::kNoSpan ? ambient : span_;
  }
  t.on_acked = std::move(on_acked);
  t.rto = config_.initial_rto;
  return index;
}

TcpConnection::Transfer& TcpConnection::transfer(std::uint32_t index) {
  assert(index < transfer_count_);
  return index < kInlineTransfers ? inline_transfers_[index]
                                  : more_transfers_[index - kInlineTransfers];
}

void TcpConnection::send(Message msg, AckCallback on_acked) {
  assert(is_open());
  assert((msg.src == initiator_ && msg.dst == responder_) ||
         (msg.src == responder_ && msg.dst == initiator_));
  transfer_attempt(add_transfer(std::move(msg), std::move(on_acked)));
}

void TcpConnection::transfer_attempt(std::uint32_t index) {
  Transfer& t = transfer(index);
  if (closed_ || t.acked) return;
  auto self = shared_from_this();

  Message segment = t.msg;
  segment.conn = nullptr;  // the wire copy carries no connection handle
  if (t.counted_as_app) {
    // Retransmissions are transport overhead; only the first wire copy is
    // accounted as the application message (Figure 6's discovery-layer
    // message counts must not inflate with TCP retries).
    segment.klass = MessageClass::kTransport;
    segment.type = retx_type(t.msg.type);
    if (obs::Registry* metrics = net_.simulator().metrics()) {
      metrics->counter("tcp.retransmissions").inc();
    }
  }

  const bool left_source = net_.transmit(std::move(segment), /*deliver=*/false,
                                         {self, Segment::kData, index});
  if (left_source) t.counted_as_app = true;

  // Retransmit until success (Table 3): timeout grows 25 % per retry.
  t.retransmit_timer = net_.simulator().schedule_in(t.rto, [self, index]() {
    SDCM_PROFILE_SITE(self->net_.simulator(), "timer.tcp.retransmit");
    Transfer& due = self->transfer(index);
    due.retransmit_timer = sim::kInvalidEventId;
    due.rto = static_cast<sim::SimDuration>(static_cast<double>(due.rto) *
                                            self->config_.rto_backoff);
    self->transfer_attempt(index);
  });
}

void TcpConnection::data_arrived(std::uint32_t index) {
  Transfer& t = transfer(index);
  if (closed_ || t.acked) return;
  if (!t.delivered_to_app) {
    t.delivered_to_app = true;
    Message app = t.msg;
    app.conn = shared_from_this();
    net_.deliver_local(app);
  }
  // Pure transport-level acknowledgement back to the sender. The handler
  // may have added transfers (a reply), so look this one up again.
  const Message& data = transfer(index).msg;
  Message ack = transport_segment(data.dst, data.src, kAck);
  ack.span = data.span;
  net_.transmit(std::move(ack), /*deliver=*/false,
                {shared_from_this(), Segment::kAck, index});
}

void TcpConnection::ack_arrived(std::uint32_t index) {
  Transfer& t = transfer(index);
  if (closed_ || t.acked) return;
  t.acked = true;
  if (t.retransmit_timer != sim::kInvalidEventId) {
    net_.simulator().cancel(t.retransmit_timer);
    t.retransmit_timer = sim::kInvalidEventId;
  }
  // Nothing reads an acknowledged transfer's message again (late
  // duplicates stop at `acked`), so its payload goes now. Take the
  // callback out first: it may send on this connection, and a new
  // overflow transfer would move the one being acknowledged.
  t.msg.payload = {};
  const AckCallback on_acked = std::move(t.on_acked);
  if (on_acked) on_acked();
}

void TcpConnection::close() {
  if (closed_) return;
  closed_ = true;
  auto& simulator = net_.simulator();
  if (next_attempt_timer_ != sim::kInvalidEventId) {
    simulator.cancel(next_attempt_timer_);
    next_attempt_timer_ = sim::kInvalidEventId;
  }
  if (rex_timer_ != sim::kInvalidEventId) {
    simulator.cancel(rex_timer_);
    rex_timer_ = sim::kInvalidEventId;
  }
}

}  // namespace sdcm::net
