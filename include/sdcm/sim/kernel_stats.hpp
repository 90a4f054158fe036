#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>

namespace sdcm::sim {

/// Hot-path counters for one simulation run. One block lives in the
/// Simulator and is shared by the event queue (scheduling volume), the
/// network (wire traffic per transport) and the trace log (records
/// appended), so a run's entire kernel-level activity can be read - and
/// archived by the benchmarks - from a single struct.
///
/// Counting is always on: every field is a plain increment on a path
/// that already touches the adjacent cache line, so there is no toggle.
/// kKernelCounters below lists every field with its log key and how it
/// folds across runs; a new counter goes in both places.
struct KernelStats {
  // Event queue.
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_cancelled = 0;
  std::uint64_t events_fired = 0;
  /// High-water mark of pending events (live heap size).
  std::uint64_t peak_heap_size = 0;
  /// Callbacks too large for InlineCallback's inline buffer; the
  /// lease-renewal churn should keep this near zero.
  std::uint64_t callback_heap_allocs = 0;

  // Network, per transport. "Sent" counts copies that reached the wire
  // (transmitter up, once per redundant multicast copy). UDP drops are
  // split by unit so rates stay comparable across failure directions:
  //  - udp_copies_dropped_tx counts *wire copies* killed before leaving
  //    the source (dead transmitter, or the capacity model's full
  //    queue) - one increment per copy, regardless of how many
  //    receivers it would have reached;
  //  - udp_deliveries_dropped_rx counts *per-destination deliveries*
  //    lost in flight or at a dead receiver - one increment per
  //    destination that missed the copy.
  std::uint64_t udp_sent = 0;
  std::uint64_t udp_copies_dropped_tx = 0;
  std::uint64_t udp_deliveries_dropped_rx = 0;
  std::uint64_t tcp_sent = 0;
  std::uint64_t tcp_dropped = 0;

  /// Multicast deliveries the interest-scoped fan-out never performed
  /// because the destination declared no interest in the message type
  /// (DESIGN.md section 14): no event, no RNG draw, no dispatch.
  std::uint64_t udp_deliveries_skipped = 0;

  // Link-capacity model (workload saturation): copies dropped at a full
  // token-bucket queue (also counted in udp_copies_dropped_tx or
  // tcp_dropped), copies that queued and were delayed, and the deepest
  // queue any source reached. All zero unless Network::set_link_capacity
  // enabled the model.
  std::uint64_t capacity_dropped = 0;
  std::uint64_t capacity_delayed = 0;
  std::uint64_t capacity_queue_peak = 0;

  // Trace log records actually appended (recording enabled).
  std::uint64_t trace_records = 0;

  [[nodiscard]] std::uint64_t messages_sent() const noexcept {
    return udp_sent + tcp_sent;
  }
  [[nodiscard]] std::uint64_t messages_dropped() const noexcept {
    return udp_copies_dropped_tx + udp_deliveries_dropped_rx + tcp_dropped;
  }

  void reset() noexcept { *this = KernelStats{}; }
};

/// How a counter folds across runs into a campaign total.
enum class CounterFold : std::uint8_t { kSum, kMax };

struct KernelCounter {
  /// Key in the campaign log's run lines and the summary JSON.
  const char* key;
  std::uint64_t KernelStats::*member;
  CounterFold fold;
};

/// Every KernelStats counter, in campaign-log key order. Each reader and
/// writer of the counters (accumulate, the JSONL run line, the summary
/// JSON, the sdcm_logs run report) loops over this table; a counter
/// missing here fails the static_assert below.
inline constexpr KernelCounter kKernelCounters[] = {
    {"events_scheduled", &KernelStats::events_scheduled, CounterFold::kSum},
    {"events_cancelled", &KernelStats::events_cancelled, CounterFold::kSum},
    {"events_fired", &KernelStats::events_fired, CounterFold::kSum},
    {"peak_heap_size", &KernelStats::peak_heap_size, CounterFold::kMax},
    {"callback_heap_allocs", &KernelStats::callback_heap_allocs,
     CounterFold::kSum},
    {"udp_sent", &KernelStats::udp_sent, CounterFold::kSum},
    {"udp_copies_dropped_tx", &KernelStats::udp_copies_dropped_tx,
     CounterFold::kSum},
    {"udp_deliveries_dropped_rx", &KernelStats::udp_deliveries_dropped_rx,
     CounterFold::kSum},
    {"udp_deliveries_skipped", &KernelStats::udp_deliveries_skipped,
     CounterFold::kSum},
    {"tcp_sent", &KernelStats::tcp_sent, CounterFold::kSum},
    {"tcp_dropped", &KernelStats::tcp_dropped, CounterFold::kSum},
    {"capacity_dropped", &KernelStats::capacity_dropped, CounterFold::kSum},
    {"capacity_delayed", &KernelStats::capacity_delayed, CounterFold::kSum},
    {"capacity_queue_peak", &KernelStats::capacity_queue_peak,
     CounterFold::kMax},
    {"trace_records", &KernelStats::trace_records, CounterFold::kSum},
};
static_assert(sizeof(KernelStats) ==
                  std::size(kKernelCounters) * sizeof(std::uint64_t),
              "every KernelStats counter needs a kKernelCounters row");

/// Folds one run's counters into a campaign-level total: counters add,
/// high-water marks (kMax) take the max across runs.
inline void accumulate(KernelStats& total, const KernelStats& run) noexcept {
  for (const KernelCounter& counter : kKernelCounters) {
    std::uint64_t& sum = total.*counter.member;
    const std::uint64_t value = run.*counter.member;
    sum = counter.fold == CounterFold::kMax ? std::max(sum, value)
                                             : sum + value;
  }
}

}  // namespace sdcm::sim
