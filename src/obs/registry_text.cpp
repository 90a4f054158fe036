#include <cstdio>
#include <ostream>

#include "sdcm/obs/registry.hpp"

namespace sdcm::obs {

// std::map<std::string, ...> with std::less<> iterates in bytewise
// (unsigned char) name order on every standard library, so emitting in
// iteration order satisfies the documented contract; this function
// exists so every tool prints through one renderer instead of
// reimplementing (and possibly re-ordering) the walk.
void write_registry_text(std::ostream& out, const Registry& registry) {
  if (registry.empty()) {
    out << "  (empty - no instrumented site fired)\n";
    return;
  }
  char line[160];
  for (const auto& [name, counter] : registry.counters()) {
    std::snprintf(line, sizeof line, "  %-36s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(counter.value()));
    out << line;
  }
  for (const auto& [name, histogram] : registry.histograms()) {
    std::snprintf(line, sizeof line,
                  "  %-36s n=%llu min=%llu mean=%.1f p99<=%llu max=%llu\n",
                  name.c_str(),
                  static_cast<unsigned long long>(histogram.count()),
                  static_cast<unsigned long long>(histogram.min()),
                  histogram.mean(),
                  static_cast<unsigned long long>(
                      histogram.quantile_upper(0.99)),
                  static_cast<unsigned long long>(histogram.max()));
    out << line;
    for (const auto& bucket : histogram.buckets()) {
      std::snprintf(line, sizeof line, "    <= %-12llu %llu\n",
                    static_cast<unsigned long long>(bucket.upper),
                    static_cast<unsigned long long>(bucket.count));
      out << line;
    }
  }
}

}  // namespace sdcm::obs
