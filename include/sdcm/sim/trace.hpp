#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sdcm/sim/kernel_stats.hpp"
#include "sdcm/sim/time.hpp"

namespace sdcm::sim {

/// Node identifier used throughout the stack. 0 is reserved (broadcast /
/// unknown); real nodes are numbered from 1 in scenario order.
using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = 0;

/// Causal span identifier. Every recorded TraceRecord is assigned the
/// next monotonic span id; 0 means "no span" (an unparented root).
/// Because ids are handed out in record order, a parent id is always
/// strictly smaller than every id in its subtree - which is what makes
/// the span graph of any run a forest by construction.
using SpanId = std::uint64_t;
inline constexpr SpanId kNoSpan = 0;

/// Category of a trace record. The paper's methodology analyses "event
/// logs" per run; these categories let tests and the analysis tooling
/// filter the same way.
enum class TraceCategory : std::uint8_t {
  kFailure,       // interface down / up
  kTransport,     // TCP setup, retransmission, REX
  kDiscovery,     // announcements, queries, registration
  kSubscription,  // subscribe / renew / purge
  kUpdate,        // service change, notifications, acks
  kElection,      // FRODO leader election / backup takeover
  kLease,         // lease grants and expiries
  kInfo,          // everything else
};

std::string_view to_string(TraceCategory c) noexcept;

/// Inverse of to_string; std::nullopt for unknown names (used by the
/// JSONL trace parser, which must reject rather than guess).
std::optional<TraceCategory> category_from_string(std::string_view s) noexcept;

struct TraceRecord {
  SimTime at = 0;
  NodeId node = kNoNode;
  TraceCategory category = TraceCategory::kInfo;
  /// This record's own span id (monotonic per log, 1-based).
  SpanId span = kNoSpan;
  /// Causal parent span; kNoSpan marks a root (timer fire, scenario
  /// driver, startup). Always < `span` when set.
  SpanId parent = kNoSpan;
  std::string event;   // short machine-matchable tag, e.g. "ServiceUpdate.tx"
  std::string detail;  // free-form context, e.g. "to=3 version=2 try=1"
};

/// Appends one trace-detail piece to `out`, spelled exactly as the
/// string concatenations it replaces: integers in decimal
/// (std::to_string), string-like pieces verbatim, and anything with a
/// str() spelling - interned net::MessageType atoms - by that spelling.
template <typename Piece>
void append_detail(std::string& out, const Piece& piece) {
  if constexpr (std::is_convertible_v<const Piece&, std::string_view>) {
    out += std::string_view(piece);
  } else if constexpr (std::is_integral_v<Piece>) {
    static_assert(!std::is_same_v<Piece, bool> && !std::is_same_v<Piece, char>,
                  "spell bools and chars as string pieces");
    out += std::to_string(piece);
  } else {
    out += piece.str();
  }
}

/// A time detail piece, spelled by format_time only when recorded.
struct TimeDetail {
  SimTime at;
  [[nodiscard]] std::string str() const { return format_time(at); }
};

/// Streaming consumer of trace records (see obs::JsonlTraceWriter).
/// on_record is called synchronously from TraceLog::record, in record
/// order, for every record - including when in-memory storage is off.
class TraceWriter {
 public:
  virtual ~TraceWriter() = default;
  virtual void on_record(const TraceRecord& record) = 0;
};

/// In-memory structured event log for one simulation run.
///
/// Recording can be disabled wholesale (metric sweeps run thousands of
/// simulations and only need counters), in which case `record` is a cheap
/// early-out; counting stays on either way because the Update Efficiency
/// metrics are derived from counters, not records.
///
/// The fingerprint is maintained incrementally as records are appended,
/// so it is O(1) to read and stays correct when storage is off and
/// records only stream to a TraceWriter.
class TraceLog {
 public:
  TraceLog() = default;
  /// Moving a log (into experiment::TracedExperiment) takes the records
  /// and hash state; the counter binding deliberately resets to the
  /// destination's private block, since the source's block usually lives
  /// in a Simulator that is about to be destroyed.
  TraceLog(TraceLog&& other) noexcept;
  TraceLog& operator=(TraceLog&& other) noexcept;

  void set_recording(bool on) noexcept { recording_ = on; }
  [[nodiscard]] bool recording() const noexcept { return recording_; }

  /// Whether records are kept in memory (default). With storage off and
  /// a writer bound, records stream out and the log retains only the
  /// running fingerprint and count - the million-run campaign mode.
  void set_store(bool on) noexcept { store_ = on; }
  [[nodiscard]] bool store() const noexcept { return store_; }

  /// Streams every appended record to `writer` (non-owning; nullptr
  /// detaches). The writer must outlive the log or be detached first.
  void set_writer(TraceWriter* writer) noexcept { writer_ = writer; }

  /// Points the appended-record counter at a shared stats block (the
  /// Simulator's); unbound logs count into a private block.
  void bind_stats(KernelStats* stats) noexcept { stats_ = stats; }

  /// Appends a record parented to the current ambient span (see
  /// SpanScope) and returns its span id; kNoSpan when not recording.
  /// The detail is given as pieces - e.g. ("user=", user, " reason=",
  /// reason) - that are concatenated (append_detail) only when
  /// recording, so an untraced run builds no detail strings at all.
  template <typename... Pieces>
  SpanId record(SimTime at, NodeId node, TraceCategory category,
                std::string_view event, const Pieces&... detail) {
    return record_child(ambient_, at, node, category, event, detail...);
  }

  /// Appends a record with an explicit causal parent.
  template <typename... Pieces>
  SpanId record_child(SpanId parent, SimTime at, NodeId node,
                      TraceCategory category, std::string_view event,
                      const Pieces&... detail) {
    if (!recording_) return kNoSpan;
    std::string text;
    (append_detail(text, detail), ...);
    return append(parent, at, node, category, event, std::move(text));
  }

  /// The ambient parent span applied to `record` calls; managed by
  /// SpanScope around message-delivery handlers.
  [[nodiscard]] SpanId ambient() const noexcept { return ambient_; }
  SpanId exchange_ambient(SpanId span) noexcept {
    const SpanId previous = ambient_;
    ambient_ = span;
    return previous;
  }

  [[nodiscard]] const std::vector<TraceRecord>& records() const noexcept {
    return records_;
  }
  /// Records appended since the last clear() - independent of storage,
  /// so streamed-only logs still know their length.
  [[nodiscard]] std::uint64_t appended() const noexcept { return appended_; }

  void clear() noexcept;

  /// All records whose event tag equals `event` (exact match). Returns
  /// copies; prefer for_each_event when only counting or inspecting.
  [[nodiscard]] std::vector<TraceRecord> with_event(
      std::string_view event) const;

  /// Non-allocating visit of every stored record whose event tag equals
  /// `event` (exact match), in record order.
  template <typename Fn>
  void for_each_event(std::string_view event, Fn&& fn) const {
    for (const TraceRecord& r : records_) {
      if (r.event == event) fn(r);
    }
  }

  /// Number of stored records with event tag `event`.
  [[nodiscard]] std::size_t count_event(std::string_view event) const {
    std::size_t n = 0;
    for_each_event(event, [&n](const TraceRecord&) { ++n; });
    return n;
  }

  /// Number of records matching a predicate.
  [[nodiscard]] std::size_t count_if(
      const std::function<bool(const TraceRecord&)>& pred) const;

  /// Human-readable dump, one line per record (quickstart example output).
  void print(std::ostream& os) const;

  /// Order-sensitive FNV-1a hash over every *behavioural* field of every
  /// record (time, node, category, event, detail), finalized by mixing in
  /// the record count so a truncated log can never collide with its own
  /// prefix. Span ids are deliberately excluded: they are derived
  /// observability metadata, and the golden fingerprints pin simulated
  /// behaviour, not the causality annotation. Two runs with equal
  /// fingerprints replayed the same event log; the determinism tests pin
  /// golden values per (model, seed).
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;

 private:
  SpanId append(SpanId parent, SimTime at, NodeId node,
                TraceCategory category, std::string_view event,
                std::string detail);
  void mix(const void* data, std::size_t n) noexcept;

  bool recording_ = true;
  bool store_ = true;
  std::vector<TraceRecord> records_;
  SpanId next_span_ = kNoSpan;
  SpanId ambient_ = kNoSpan;
  std::uint64_t hash_ = 14695981039346656037ull;  // FNV-1a offset basis
  std::uint64_t appended_ = 0;
  TraceWriter* writer_ = nullptr;
  KernelStats local_stats_;
  KernelStats* stats_ = &local_stats_;
};

/// RAII ambient-parent scope: while alive, records appended without an
/// explicit parent are parented to `span`. The Network installs one
/// around every message-delivery handler (carrying Message::span), which
/// is how causality crosses the wire without threading a context through
/// every protocol signature.
class SpanScope {
 public:
  SpanScope(TraceLog& log, SpanId span) noexcept
      : log_(log), previous_(log.exchange_ambient(span)) {}
  ~SpanScope() { log_.exchange_ambient(previous_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  TraceLog& log_;
  SpanId previous_;
};

}  // namespace sdcm::sim
