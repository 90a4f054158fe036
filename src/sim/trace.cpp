#include "sdcm/sim/trace.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <utility>

namespace sdcm::sim {

std::string format_time(SimTime t) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(6) << to_seconds(t) << 's';
  return oss.str();
}

std::string_view to_string(TraceCategory c) noexcept {
  switch (c) {
    case TraceCategory::kFailure: return "failure";
    case TraceCategory::kTransport: return "transport";
    case TraceCategory::kDiscovery: return "discovery";
    case TraceCategory::kSubscription: return "subscription";
    case TraceCategory::kUpdate: return "update";
    case TraceCategory::kElection: return "election";
    case TraceCategory::kLease: return "lease";
    case TraceCategory::kInfo: return "info";
  }
  return "unknown";
}

std::optional<TraceCategory> category_from_string(
    std::string_view s) noexcept {
  for (const TraceCategory c :
       {TraceCategory::kFailure, TraceCategory::kTransport,
        TraceCategory::kDiscovery, TraceCategory::kSubscription,
        TraceCategory::kUpdate, TraceCategory::kElection,
        TraceCategory::kLease, TraceCategory::kInfo}) {
    if (to_string(c) == s) return c;
  }
  return std::nullopt;
}

TraceLog::TraceLog(TraceLog&& other) noexcept
    : recording_(other.recording_),
      store_(other.store_),
      records_(std::move(other.records_)),
      next_span_(other.next_span_),
      ambient_(other.ambient_),
      hash_(other.hash_),
      appended_(other.appended_),
      writer_(other.writer_) {
  // stats_ stays bound to the local block: the source's binding usually
  // points into a Simulator whose lifetime we must not depend on.
  other.clear();
  other.writer_ = nullptr;
}

TraceLog& TraceLog::operator=(TraceLog&& other) noexcept {
  if (this == &other) return *this;
  recording_ = other.recording_;
  store_ = other.store_;
  records_ = std::move(other.records_);
  next_span_ = other.next_span_;
  ambient_ = other.ambient_;
  hash_ = other.hash_;
  appended_ = other.appended_;
  writer_ = other.writer_;
  stats_ = &local_stats_;
  other.clear();
  other.writer_ = nullptr;
  return *this;
}

void TraceLog::mix(const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    hash_ ^= p[i];
    hash_ *= 1099511628211ull;
  }
}

SpanId TraceLog::append(SpanId parent, SimTime at, NodeId node,
                        TraceCategory category, std::string_view event,
                        std::string detail) {
  const SpanId span = ++next_span_;
  TraceRecord r{at,     node,   category,           span,
                parent, std::string(event), std::move(detail)};
  // Span ids are excluded from the hash: they are derived metadata, and
  // the golden fingerprints pin behaviour (see fingerprint()).
  mix(&r.at, sizeof(r.at));
  mix(&r.node, sizeof(r.node));
  const auto category_byte = static_cast<std::uint8_t>(r.category);
  mix(&category_byte, sizeof(category_byte));
  mix(r.event.data(), r.event.size());
  mix(r.detail.data(), r.detail.size());
  ++appended_;
  ++stats_->trace_records;
  if (writer_ != nullptr) writer_->on_record(r);
  if (store_) records_.push_back(std::move(r));
  return span;
}

void TraceLog::clear() noexcept {
  records_.clear();
  next_span_ = kNoSpan;
  ambient_ = kNoSpan;
  hash_ = 14695981039346656037ull;
  appended_ = 0;
}

std::uint64_t TraceLog::fingerprint() const noexcept {
  // Finalize by feeding the record count through the same FNV-1a stream
  // (not a bare XOR, which a truncation could cancel bit-for-bit): a log
  // can never collide with its own prefix.
  std::uint64_t h = hash_;
  const std::uint64_t count = appended_;
  const auto* p = reinterpret_cast<const unsigned char*>(&count);
  for (std::size_t i = 0; i < sizeof(count); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<TraceRecord> TraceLog::with_event(std::string_view event) const {
  std::vector<TraceRecord> out;
  std::copy_if(records_.begin(), records_.end(), std::back_inserter(out),
               [&](const TraceRecord& r) { return r.event == event; });
  return out;
}

std::size_t TraceLog::count_if(
    const std::function<bool(const TraceRecord&)>& pred) const {
  return static_cast<std::size_t>(
      std::count_if(records_.begin(), records_.end(), pred));
}

void TraceLog::print(std::ostream& os) const {
  for (const auto& r : records_) {
    os << std::setw(14) << format_time(r.at) << "  node" << std::setw(2)
       << r.node << "  " << std::setw(12) << to_string(r.category) << "  "
       << r.event;
    if (!r.detail.empty()) os << "  [" << r.detail << ']';
    os << '\n';
  }
}

}  // namespace sdcm::sim
