#include "sdcm/metrics/streaming.hpp"

#include <algorithm>
#include <cmath>

#include "sdcm/metrics/stats.hpp"

namespace sdcm::metrics {

void StreamingMoments::add(double x) noexcept {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double StreamingMoments::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double StreamingMoments::stddev() const noexcept {
  return std::sqrt(variance());
}

StreamingSummary::StreamingSummary(int expected_runs, std::uint64_t m,
                                   std::uint64_t m_prime)
    : m_(m), m_prime_(m_prime) {
  const auto n = static_cast<std::size_t>(std::max(expected_runs, 0));
  window_messages_.reserve(n);
  latency_complements_.reserve(n);
}

void StreamingSummary::add(int run_index, const RunRecord& run) {
  window_messages_.emplace_back(run_index, run.window_messages);
  ++runs_added_;

  for (std::size_t j = 0; j < run.user_reach_times.size(); ++j) {
    latency_complements_.push_back(1.0 -
                                   update_metrics::relative_latency(run, j));
    ++users_total_;
    const auto& reach = run.user_reach_times[j];
    if (reach.has_value() && *reach < run.deadline) ++users_reached_;
  }

  accumulate(kernel_, run.kernel);
  window_moments_.add(static_cast<double>(run.window_messages));
}

MetricsSummary StreamingSummary::finalize() const {
  MetricsSummary summary;
  summary.responsiveness = median(latency_complements_);
  summary.effectiveness =
      users_total_ == 0 ? 0.0
                        : static_cast<double>(users_reached_) /
                              static_cast<double>(users_total_);
  if (runs_added_ > 0) {
    // Replay the ratio sums in run-index order so the floating-point
    // result is bit-identical to batch summarize() over the same runs.
    auto by_index = window_messages_;
    std::sort(by_index.begin(), by_index.end());
    double efficiency_sum = 0.0;
    double degradation_sum = 0.0;
    for (const auto& [index, messages] : by_index) {
      if (messages == 0) continue;
      const auto y = static_cast<double>(messages);
      efficiency_sum += std::min(1.0, static_cast<double>(m_) / y);
      degradation_sum += std::min(1.0, static_cast<double>(m_prime_) / y);
    }
    summary.efficiency = efficiency_sum / static_cast<double>(runs_added_);
    summary.degradation = degradation_sum / static_cast<double>(runs_added_);
  }
  return summary;
}

}  // namespace sdcm::metrics
