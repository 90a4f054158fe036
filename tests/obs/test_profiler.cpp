#include "sdcm/obs/profiler.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "sdcm/net/message_type.hpp"
#include "sdcm/obs/profile_site.hpp"
#include "sdcm/obs/registry.hpp"

namespace sdcm::obs {
namespace {

// Timing magnitudes are nondeterministic, so the tests pin what is
// deterministic: counts, site identity, ordering, merge algebra and the
// sum-to-loop invariant.

std::uint32_t site(const char* name) { return profile_site_id(name); }

TEST(Profiler, AttributesEveryEventToItsSite) {
  Profiler profiler;
  const std::uint32_t a = site("test.profiler.site_a");
  const std::uint32_t b = site("test.profiler.site_b");
  profiler.loop_begin();
  for (int i = 0; i < 3; ++i) {
    profiler.event_begin();
    profiler.attribute(a);
    profiler.event_end();
  }
  profiler.event_begin();
  profiler.attribute(b);
  profiler.event_end();
  profiler.event_begin();  // never attributed -> site 0
  profiler.event_end();
  profiler.loop_end();

  const RunProfile profile = profiler.snapshot();
  EXPECT_EQ(profile.runs, 1u);
  EXPECT_EQ(profile.loop_events, 5u);
  std::uint64_t count_a = 0;
  std::uint64_t count_b = 0;
  std::uint64_t count_unattributed = 0;
  for (const ProfileEntry& entry : profile.events) {
    if (entry.name == "test.profiler.site_a") count_a = entry.count;
    if (entry.name == "test.profiler.site_b") count_b = entry.count;
    if (entry.name == "(unattributed)") count_unattributed = entry.count;
  }
  EXPECT_EQ(count_a, 3u);
  EXPECT_EQ(count_b, 1u);
  EXPECT_EQ(count_unattributed, 1u);
}

TEST(Profiler, PerSiteTotalsSumExactlyToLoopTime) {
  Profiler profiler;
  const std::uint32_t a = site("test.profiler.sum_site");
  profiler.loop_begin();
  for (int i = 0; i < 100; ++i) {
    profiler.event_begin();
    profiler.attribute(a);
    profiler.event_end();
  }
  profiler.loop_end();
  const RunProfile profile = profiler.snapshot();
  // The chained-timestamp discipline charges every nanosecond between
  // loop_begin and the last event_end to some site; loop_end adds only
  // the tail after the final event.
  EXPECT_LE(profile.attributed_ns(), profile.loop_ns);
  EXPECT_GT(profile.attributed_ns(), 0u);
}

TEST(Profiler, SnapshotSortsEntriesBytewiseByName) {
  Profiler profiler;
  // Intern in an order unrelated to byte order.
  const std::uint32_t z = site("test.profiler.zzz");
  const std::uint32_t m = site("test.profiler.mmm");
  const std::uint32_t a2 = site("test.profiler.aaa");
  profiler.loop_begin();
  for (const std::uint32_t s : {z, m, a2}) {
    profiler.event_begin();
    profiler.attribute(s);
    profiler.event_end();
  }
  profiler.loop_end();
  const RunProfile profile = profiler.snapshot();
  ASSERT_GE(profile.events.size(), 3u);
  for (std::size_t i = 1; i < profile.events.size(); ++i) {
    EXPECT_LT(profile.events[i - 1].name, profile.events[i].name);
  }
}

TEST(Profiler, PhaseScopesAccumulateAndAreNullSafe) {
  Profiler profiler;
  const std::uint32_t phase = site("phase.test_profiler");
  { const PhaseScope scope(&profiler, phase); }
  { const PhaseScope scope(&profiler, phase); }
  { const PhaseScope scope(nullptr, phase); }  // must not crash
  const RunProfile profile = profiler.snapshot();
  ASSERT_EQ(profile.phases.size(), 1u);
  EXPECT_EQ(profile.phases[0].name, "phase.test_profiler");
  EXPECT_EQ(profile.phases[0].count, 2u);
}

TEST(Profiler, MemoryWatermarksAreSampledAtPhaseEnds) {
  const MemorySample sample = sample_memory();
  // getrusage is POSIX; a zero peak RSS would mean sampling silently
  // broke. heap_bytes may legitimately be 0 on non-glibc platforms.
  EXPECT_GT(sample.peak_rss_kb, 0u);
  Profiler profiler;
  { const PhaseScope scope(&profiler, site("phase.test_memory")); }
  const RunProfile profile = profiler.snapshot();
  ASSERT_EQ(profile.phases.size(), 1u);
  EXPECT_GE(profile.phases[0].peak_rss_kb, sample.peak_rss_kb);
}

TEST(Profiler, HeapBytesCountMmappedChunks) {
#if SDCM_HEAP_BYTES_MEASURED
  // 64 MiB is past glibc's largest mmap threshold (32 MiB), so the
  // block is an mmapped chunk; it is never touched.
  constexpr std::uint64_t kBlock = std::uint64_t{64} << 20;
  const std::uint64_t before = sample_memory().heap_bytes;
  void* volatile block = std::malloc(kBlock);
  ASSERT_NE(block, nullptr);
  const std::uint64_t during = sample_memory().heap_bytes;
  std::free(block);
  EXPECT_GE(during, before + kBlock);
#else
  EXPECT_EQ(sample_memory().heap_bytes, 0u);
#endif
}

TEST(Profiler, BucketBoundsAreStrictlyIncreasing) {
  const auto& bounds = profile_ns_bounds();
  ASSERT_FALSE(bounds.empty());
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

RunProfile synthetic_profile(std::uint64_t scale) {
  // Deterministic profile built from fixed numbers (no clock), so merge
  // identities can be asserted exactly.
  RunProfile p;
  p.runs = 1;
  p.loop_ns = 1000 * scale;
  p.loop_events = 10 * scale;
  ProfileEntry e;
  e.name = "synthetic.event";
  e.count = 4 * scale;
  e.total_ns = 400 * scale;
  e.max_ns = 100 + scale;
  e.buckets.push_back({250, 3 * scale});
  e.buckets.push_back({1000, scale});
  p.events.push_back(e);
  PhaseEntry ph;
  ph.name = "phase.synthetic";
  ph.count = scale;
  ph.total_ns = 600 * scale;
  ph.peak_rss_kb = 1000 + scale;
  ph.heap_bytes = 2000 + scale;
  p.phases.push_back(ph);
  return p;
}

TEST(RunProfile, MergeAddsCountsAndMaxesWatermarks) {
  RunProfile a = synthetic_profile(1);
  const RunProfile b = synthetic_profile(5);
  a.merge(b);
  EXPECT_EQ(a.runs, 2u);
  EXPECT_EQ(a.loop_ns, 6000u);
  EXPECT_EQ(a.loop_events, 60u);
  ASSERT_EQ(a.events.size(), 1u);
  EXPECT_EQ(a.events[0].count, 24u);
  EXPECT_EQ(a.events[0].total_ns, 2400u);
  EXPECT_EQ(a.events[0].max_ns, 105u);  // max, not sum
  ASSERT_EQ(a.events[0].buckets.size(), 2u);
  EXPECT_EQ(a.events[0].buckets[0].count, 18u);
  EXPECT_EQ(a.events[0].buckets[1].count, 6u);
  ASSERT_EQ(a.phases.size(), 1u);
  EXPECT_EQ(a.phases[0].count, 6u);
  EXPECT_EQ(a.phases[0].peak_rss_kb, 1005u);  // max
  EXPECT_EQ(a.phases[0].heap_bytes, 2005u);   // max
}

TEST(RunProfile, MergeOfDisjointSitesKeepsSortedOrder) {
  RunProfile a;
  ProfileEntry e1;
  e1.name = "m.site";
  e1.count = 1;
  a.events.push_back(e1);
  RunProfile b;
  ProfileEntry e2;
  e2.name = "a.site";
  e2.count = 2;
  ProfileEntry e3;
  e3.name = "z.site";
  e3.count = 3;
  b.events.push_back(e2);
  b.events.push_back(e3);
  a.merge(b);
  ASSERT_EQ(a.events.size(), 3u);
  EXPECT_EQ(a.events[0].name, "a.site");
  EXPECT_EQ(a.events[1].name, "m.site");
  EXPECT_EQ(a.events[2].name, "z.site");
}

TEST(Profiler, FlushToRegistryExportsHistogramsAndCounters) {
  Profiler profiler;
  profiler.loop_begin();
  profiler.event_begin();
  profiler.attribute(site("test.profiler.flush"));
  profiler.event_end();
  profiler.loop_end();
  { const PhaseScope scope(&profiler, site("phase.test_flush")); }

  Registry registry;
  profiler.flush_to(registry);
  EXPECT_NE(registry.find_histogram("profile.event.test.profiler.flush"),
            nullptr);
  EXPECT_NE(
      registry.find_counter("profile.event.test.profiler.flush.total_ns"),
      nullptr);
  EXPECT_NE(registry.find_counter("profile.phase.phase.test_flush.count"),
            nullptr);
  const Counter* events = registry.find_counter("profile.loop.events");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->value(), 1u);
}

TEST(WriteRegistryText, PrintsCountersThenHistogramsInByteOrder) {
  Registry registry;
  registry.counter("zeta").inc(7);
  registry.counter("alpha").inc(1);
  registry.fixed_histogram("mid", {10, 100}).record(5);
  std::ostringstream out;
  write_registry_text(out, registry);
  const std::string text = out.str();
  const auto alpha = text.find("alpha");
  const auto zeta = text.find("zeta");
  const auto mid = text.find("mid");
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(zeta, std::string::npos);
  ASSERT_NE(mid, std::string::npos);
  // Bytewise-ascending counters first, then histograms.
  EXPECT_LT(alpha, zeta);
  EXPECT_LT(zeta, mid);
}

}  // namespace
}  // namespace sdcm::obs
