#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sdcm::obs {

/// Monotonic named counter. Plain uint64 - one simulation runs on one
/// thread; cross-run aggregation happens outside the registry.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Histogram over non-negative integer values (the codebase measures in
/// microseconds and counts). Two bucketing modes:
///
///  - Fixed: explicit upper bounds, e.g. {10, 100, 1000} - three buckets
///    (0,10], (10,100], (100,1000] plus an implicit overflow bucket.
///    Right for quantities with known ranges (Table 3's 10-100 us hop
///    delay).
///  - Log-linear (HDR style): values below `sub_buckets` get unit-width
///    buckets; every further power-of-two range is split into
///    `sub_buckets` linear sub-buckets, so relative error is bounded by
///    1/sub_buckets at any magnitude. Right for latencies spanning
///    microseconds to hours (notification latency under failures).
///
/// Buckets grow lazily; an empty histogram holds no bucket storage.
class Histogram {
 public:
  struct Bucket {
    /// Inclusive upper bound of the bucket's value range.
    std::uint64_t upper = 0;
    std::uint64_t count = 0;
  };

  /// Log-linear mode. `sub_buckets` must be a power of two >= 2.
  explicit Histogram(std::uint32_t sub_buckets = 32)
      : sub_buckets_(sub_buckets) {}

  /// Fixed mode: `upper_bounds` must be strictly increasing; values above
  /// the last bound land in an overflow bucket.
  explicit Histogram(std::vector<std::uint64_t> upper_bounds)
      : sub_buckets_(0), bounds_(std::move(upper_bounds)) {
    counts_.assign(bounds_.size() + 1, 0);  // +1 = overflow
  }

  void record(std::uint64_t value) noexcept {
    ++count_;
    sum_ += value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
    const std::size_t i = index_of(value);
    if (i >= counts_.size()) counts_.resize(i + 1, 0);
    ++counts_[i];
  }

  /// Records `value` n times in O(1). Used by bulk importers (profiler
  /// flush) rebuilding a histogram from pre-aggregated buckets.
  void record_n(std::uint64_t value, std::uint64_t n) noexcept {
    if (n == 0) return;
    count_ += n;
    sum_ += value * n;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
    const std::size_t i = index_of(value);
    if (i >= counts_.size()) counts_.resize(i + 1, 0);
    counts_[i] += n;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t min() const noexcept {
    return count_ == 0 ? 0 : min_;
  }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }

  /// Upper bound of the bucket holding the q-quantile (0 <= q <= 1); an
  /// upper bound on the true quantile, tight to the bucket resolution.
  [[nodiscard]] std::uint64_t quantile_upper(double q) const noexcept {
    if (count_ == 0) return 0;
    const auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(count_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen > rank) return std::min(upper_of(i), max_);
    }
    return max_;
  }

  /// Occupied buckets in value order (empty buckets are skipped).
  [[nodiscard]] std::vector<Bucket> buckets() const {
    std::vector<Bucket> out;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] > 0) out.push_back(Bucket{upper_of(i), counts_[i]});
    }
    return out;
  }

  [[nodiscard]] bool is_fixed() const noexcept { return sub_buckets_ == 0; }

  void reset() noexcept {
    count_ = sum_ = max_ = 0;
    min_ = std::numeric_limits<std::uint64_t>::max();
    if (is_fixed()) {
      std::fill(counts_.begin(), counts_.end(), 0);
    } else {
      counts_.clear();
    }
  }

 private:
  [[nodiscard]] std::size_t index_of(std::uint64_t value) const noexcept {
    if (is_fixed()) {
      const auto it =
          std::lower_bound(bounds_.begin(), bounds_.end(), value);
      return static_cast<std::size_t>(it - bounds_.begin());
    }
    if (value < sub_buckets_) return static_cast<std::size_t>(value);
    const auto msb = static_cast<std::uint32_t>(std::bit_width(value) - 1);
    const auto log_sub =
        static_cast<std::uint32_t>(std::bit_width(sub_buckets_) - 1);
    const std::uint32_t range = msb - log_sub + 1;  // >= 1 here
    const auto offset = static_cast<std::size_t>(
        (value >> (range - 1)) - sub_buckets_);  // in [0, sub_buckets_)
    return static_cast<std::size_t>(range) * sub_buckets_ + offset;
  }

  /// Inclusive upper value of bucket index i (inverse of index_of).
  [[nodiscard]] std::uint64_t upper_of(std::size_t i) const noexcept {
    if (is_fixed()) {
      return i < bounds_.size() ? bounds_[i]
                                : std::numeric_limits<std::uint64_t>::max();
    }
    if (i < sub_buckets_) return static_cast<std::uint64_t>(i);
    const std::uint32_t range =
        static_cast<std::uint32_t>(i / sub_buckets_);
    const std::uint64_t offset = i % sub_buckets_;
    return ((sub_buckets_ + offset + 1) << (range - 1)) - 1;
  }

  std::uint32_t sub_buckets_;  // 0 = fixed mode
  std::vector<std::uint64_t> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

/// Named metrics for one simulation run. Lives on the Simulator next to
/// KernelStats; iteration order is the name order (std::map), so every
/// snapshot prints deterministically, and map nodes are stable, so hot
/// paths may cache `&registry.counter("x")` across inserts.
class Registry {
 public:
  /// Finds or creates the named counter. Heterogeneous lookup: the map
  /// uses std::less<>, so a string_view probes without materializing a
  /// std::string; one is constructed only on the insert path.
  Counter& counter(std::string_view name) {
    const auto it = counters_.find(name);
    if (it != counters_.end()) return it->second;
    return counters_.emplace(std::string(name), Counter{}).first->second;
  }

  /// Finds or creates a named log-linear histogram.
  Histogram& histogram(std::string_view name, std::uint32_t sub_buckets = 32) {
    const auto it = histograms_.find(name);
    if (it != histograms_.end()) return it->second;
    return histograms_.emplace(std::string(name), Histogram{sub_buckets})
        .first->second;
  }

  /// Finds or creates a named fixed-bucket histogram. The bounds apply
  /// only on creation; a later call with different bounds returns the
  /// existing histogram unchanged.
  Histogram& fixed_histogram(std::string_view name,
                             std::vector<std::uint64_t> upper_bounds) {
    const auto it = histograms_.find(name);
    if (it != histograms_.end()) return it->second;
    return histograms_
        .emplace(std::string(name), Histogram{std::move(upper_bounds)})
        .first->second;
  }

  /// Stores a fully built histogram under `name`, replacing any existing
  /// one. Used by bulk importers (the profiler flush) that build
  /// histograms outside the registry.
  void put_histogram(std::string_view name, Histogram histogram) {
    const auto it = histograms_.find(name);
    if (it != histograms_.end()) {
      it->second = std::move(histogram);
      return;
    }
    histograms_.emplace(std::string(name), std::move(histogram));
  }

  [[nodiscard]] const std::map<std::string, Counter, std::less<>>&
  counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Histogram, std::less<>>&
  histograms() const noexcept {
    return histograms_;
  }

  [[nodiscard]] const Counter* find_counter(std::string_view name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const {
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] bool empty() const noexcept {
    return counters_.empty() && histograms_.empty();
  }

  void clear() {
    counters_.clear();
    histograms_.clear();
  }

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// Renders every counter and histogram as text, one metric per line.
///
/// Ordering contract: metrics print in bytewise-ascending name order
/// (std::map over std::string's operator<, i.e. unsigned char
/// comparison, independent of locale and standard library), counters
/// before histograms. Tools that diff registry dumps (`sdcm_logs
/// --histograms`, `--profile-diff`, CI artifacts) rely on this being
/// byte-stable across libstdc++ and libc++. An empty registry prints one
/// "(empty ...)" line, so a dump file is never silently blank.
void write_registry_text(std::ostream& out, const Registry& registry);

}  // namespace sdcm::obs
