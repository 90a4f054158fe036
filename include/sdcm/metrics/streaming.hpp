#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sdcm/metrics/update_metrics.hpp"

namespace sdcm::metrics {

/// Online first/second moments (Welford's algorithm) plus min/max.
/// O(1) memory regardless of how many samples are added - the building
/// block of the streaming sweep aggregation, where buffering every
/// per-run value would put campaign memory back at O(points x runs).
class StreamingMoments {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Sample variance (n - 1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// 0 when empty, matching the conventions of metrics/stats.hpp.
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Streaming replacement for buffering a point's RunRecords and calling
/// update_metrics::summarize at the end. Runs are added one at a time
/// (in any completion order); finalize() reproduces the batch summary
/// bit for bit:
///
/// - Effectiveness counts users as integers - order-free.
/// - Responsiveness is the median of the 1 - L(i, j) samples; the median
///   sorts, so only the sample *multiset* must match, and those samples
///   are the only per-user state retained.
/// - Efficiency/Degradation sum min(1, m / y(i)) over runs *in run-index
///   order* (floating-point addition is not associative), so one y(i)
///   per run is kept and the sum is replayed in index order at finalize.
///
/// Everything else - kernel counters, window-message moments - folds
/// online. Memory per point: one double per (run, user) sample plus one
/// (index, y(i)) pair per added run, instead of whole RunRecords with
/// their heap vectors. Storage follows the runs actually added, never
/// the largest run index, so a stray huge index costs one pair.
///
/// Not internally synchronized: run_sweep serializes add() calls.
class StreamingSummary {
 public:
  StreamingSummary() = default;
  /// `expected_runs` pre-reserves the per-run storage (it grows on
  /// demand past it); m and m_prime are the efficiency baselines of
  /// update_metrics::summarize.
  StreamingSummary(int expected_runs, std::uint64_t m, std::uint64_t m_prime);

  /// Folds one completed run in. `run_index` is the run's stable index
  /// within the point; adding the same index twice is a caller bug.
  void add(int run_index, const RunRecord& run);

  /// The batch-equivalent summary of every run added so far.
  [[nodiscard]] MetricsSummary finalize() const;

  [[nodiscard]] int runs_added() const noexcept { return runs_added_; }
  /// Counter totals across added runs (peak_heap_size folds as a max).
  [[nodiscard]] const sim::KernelStats& kernel_totals() const noexcept {
    return kernel_;
  }
  /// Per-run y(i) distribution - the message-rate telemetry.
  [[nodiscard]] const StreamingMoments& window_message_moments()
      const noexcept {
    return window_moments_;
  }

 private:
  std::uint64_t m_ = update_metrics::kPaperGlobalMinimumMessages;
  std::uint64_t m_prime_ = update_metrics::kPaperGlobalMinimumMessages;
  /// 1 - L(i, j) for every (run, user); order irrelevant (median sorts).
  std::vector<double> latency_complements_;
  /// (run index, y(i)) per added run, in add order; finalize replays
  /// them in index order (sharded sweeps add only a subset of a point's
  /// runs).
  std::vector<std::pair<int, std::uint64_t>> window_messages_;
  std::uint64_t users_total_ = 0;
  std::uint64_t users_reached_ = 0;
  int runs_added_ = 0;
  sim::KernelStats kernel_;
  StreamingMoments window_moments_;
};

}  // namespace sdcm::metrics
