#include "sdcm/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sdcm/sim/random.hpp"

namespace sdcm::sim {

class EventQueueProbe {
 public:
  static void set_next_seq(EventQueue& q, std::uint64_t seq) {
    q.next_seq_ = seq;
  }
};

namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(100, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().cb();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsEarliestLive) {
  EventQueue q;
  const auto early = q.schedule(5, [] {});
  q.schedule(50, [] {});
  EXPECT_EQ(q.next_time(), 5);
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 50);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const auto id = q.schedule(10, [&] { fired = true; });
  q.cancel(id);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelUnknownOrFiredIsNoop) {
  EventQueue q;
  const auto id = q.schedule(1, [] {});
  auto fired = q.pop();
  fired.cb();
  q.cancel(id);             // already fired
  q.cancel(9999);           // never existed
  q.cancel(kInvalidEventId);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelMiddleKeepsOthers) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1, [&] { order.push_back(1); });
  const auto mid = q.schedule(2, [&] { order.push_back(2); });
  q.schedule(3, [&] { order.push_back(3); });
  q.cancel(mid);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, PopReturnsScheduledTimeAndId) {
  EventQueue q;
  const auto id = q.schedule(77, [] {});
  const auto fired = q.pop();
  EXPECT_EQ(fired.at, 77);
  EXPECT_EQ(fired.id, id);
}

TEST(EventQueue, ManyCancellationsDoNotLeak) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) ids.push_back(q.schedule(i, [] {}));
  for (const auto id : ids) q.cancel(id);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  // A fresh event still works after mass cancellation.
  bool fired = false;
  q.schedule(5000, [&] { fired = true; });
  q.pop().cb();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, StaleCancelAfterSlotReuseIsNoop) {
  // The slab recycles slots: after `first` is cancelled, the next
  // schedule reuses its slot. A second cancel of the stale id must not
  // kill the new tenant (generation mismatch).
  EventQueue q;
  const auto first = q.schedule(10, [] {});
  q.cancel(first);
  bool fired = false;
  const auto second = q.schedule(20, [&] { fired = true; });
  EXPECT_NE(first, second);
  q.cancel(first);  // stale: same slot, older generation
  ASSERT_EQ(q.size(), 1u);
  q.pop().cb();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, StaleCancelAfterFireAndReuseIsNoop) {
  EventQueue q;
  const auto first = q.schedule(1, [] {});
  q.pop();
  bool fired = false;
  q.schedule(2, [&] { fired = true; });
  q.cancel(first);  // fired id whose slot now hosts the new event
  ASSERT_EQ(q.size(), 1u);
  q.pop().cb();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, InterleavedStormKeepsSizeAndStatsExact) {
  // Deterministic schedule/cancel storm checked against a naive
  // reference model: size() and every KernelStats field must stay exact,
  // and events must pop in (time, schedule-order) order.
  EventQueue q;
  Random rng(2024);
  struct Pending {
    EventId id;
    SimTime at;
    std::uint64_t seq;
  };
  std::vector<Pending> pending;
  std::uint64_t next_seq = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t fired = 0;
  std::uint64_t max_live = 0;
  SimTime now = 0;

  for (int round = 0; round < 5000; ++round) {
    const auto action = rng.uniform_int(0, 9);
    if (action < 5 || pending.empty()) {
      const SimTime at = now + rng.uniform_int(1, 1000);
      pending.push_back({q.schedule(at, [] {}), at, next_seq++});
      ++scheduled;
      max_live = std::max<std::uint64_t>(max_live, pending.size());
    } else if (action < 8) {
      const auto victim = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pending.size()) - 1));
      q.cancel(pending[victim].id);
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(victim));
      ++cancelled;
    } else if (!q.empty()) {
      const auto f = q.pop();
      ++fired;
      now = f.at;
      const auto expected = std::min_element(
          pending.begin(), pending.end(), [](const auto& a, const auto& b) {
            return a.at != b.at ? a.at < b.at : a.seq < b.seq;
          });
      ASSERT_NE(expected, pending.end());
      EXPECT_EQ(f.id, expected->id);
      EXPECT_EQ(f.at, expected->at);
      pending.erase(expected);
    }
    ASSERT_EQ(q.size(), pending.size());
    EXPECT_EQ(q.empty(), pending.empty());
  }

  EXPECT_EQ(q.stats().events_scheduled, scheduled);
  EXPECT_EQ(q.stats().events_cancelled, cancelled);
  EXPECT_EQ(q.stats().events_fired, fired);
  EXPECT_EQ(q.stats().peak_heap_size, max_live);
  EXPECT_EQ(scheduled, fired + cancelled + q.size());

  // Drain: the survivors still pop in exact reference order.
  while (!q.empty()) {
    const auto f = q.pop();
    const auto expected = std::min_element(
        pending.begin(), pending.end(), [](const auto& a, const auto& b) {
          return a.at != b.at ? a.at < b.at : a.seq < b.seq;
        });
    EXPECT_EQ(f.id, expected->id);
    pending.erase(expected);
  }
  EXPECT_TRUE(pending.empty());
  EXPECT_EQ(q.stats().events_scheduled,
            q.stats().events_fired + q.stats().events_cancelled);
}

/// Ordered reference model for the deep storm: (at, schedule order) ->
/// id, plus a dense list of live keys so a random middle entry is O(1)
/// to pick and O(log n) to remove.
class ReferenceQueue {
 public:
  using Key = std::pair<SimTime, std::uint64_t>;

  void add(Key key, EventId id) {
    order_.emplace(key, id);
    where_[key.second] = live_.size();
    live_.push_back(key);
  }
  void remove(Key key) {  // by value: callers pass refs into live_
    const std::size_t index = where_.at(key.second);
    live_[index] = live_.back();
    where_[live_[index].second] = index;
    live_.pop_back();
    where_.erase(key.second);
    order_.erase(key);
  }
  [[nodiscard]] std::size_t size() const { return order_.size(); }
  [[nodiscard]] const std::pair<const Key, EventId>& front() const {
    return *order_.begin();
  }
  [[nodiscard]] const Key& live(std::size_t i) const { return live_[i]; }
  [[nodiscard]] EventId id(const Key& key) const { return order_.at(key); }

 private:
  std::map<Key, EventId> order_;
  std::vector<Key> live_;
  std::unordered_map<std::uint64_t, std::size_t> where_;
};

TEST(EventQueue, DeepStormWithDenseTiesMatchesOrderedReference) {
  // At the depth of a 10^4-User churn run: >= 5*10^4 live events, at
  // most 32 distinct instants ahead of the clock (so most compares are
  // equal-`at` ties broken by schedule order), and cancels of both the
  // root and random middle entries. Every pop, next_time() and size()
  // must match the ordered reference, and the counters stay exact.
  EventQueue q;
  ReferenceQueue ref;
  Random rng(16);
  std::uint64_t next_seq = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t fired = 0;
  std::uint64_t max_live = 0;
  SimTime now = 0;

  const auto schedule = [&] {
    const SimTime at = now + rng.uniform_int(0, 31);
    ref.add({at, next_seq++}, q.schedule(at, [] {}));
    ++scheduled;
    max_live = std::max<std::uint64_t>(max_live, ref.size());
  };
  const auto cancel = [&](ReferenceQueue::Key key) {
    q.cancel(ref.id(key));
    ref.remove(key);
    ++cancelled;
  };
  const auto pop_and_check = [&] {
    const auto [key, id] = ref.front();
    ASSERT_EQ(q.next_time(), key.first);
    const auto f = q.pop();
    ASSERT_EQ(f.id, id);
    ASSERT_EQ(f.at, key.first);
    now = f.at;
    ref.remove(key);
    ++fired;
  };

  constexpr std::size_t kDepth = 60'000;
  // Build-up, with a root and a middle cancel every 64 schedules.
  while (ref.size() < kDepth) {
    schedule();
    if (scheduled % 64 == 0) {
      cancel(ref.front().first);
      cancel(ref.live(static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(ref.size()) - 1))));
    }
  }
  ASSERT_EQ(q.size(), ref.size());
  // Steady state around the peak depth.
  for (int round = 0; round < 200'000; ++round) {
    const auto action = rng.uniform_int(0, 19);
    if (action < 8 || ref.size() < kDepth / 2) {
      schedule();
    } else if (action < 12) {
      cancel(ref.live(static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(ref.size()) - 1))));
    } else if (action < 14) {
      cancel(ref.front().first);
    } else {
      pop_and_check();
    }
    ASSERT_EQ(q.size(), ref.size());
  }
  EXPECT_GE(max_live, 50'000u);
  EXPECT_EQ(q.stats().events_scheduled, scheduled);
  EXPECT_EQ(q.stats().events_cancelled, cancelled);
  EXPECT_EQ(q.stats().events_fired, fired);
  EXPECT_EQ(q.stats().peak_heap_size, max_live);

  while (!q.empty()) pop_and_check();
  EXPECT_EQ(ref.size(), 0u);
  EXPECT_EQ(q.stats().events_scheduled,
            q.stats().events_fired + q.stats().events_cancelled);
}

TEST(EventQueue, SequenceBoundThrowsInsteadOfWrapping) {
  // seq shares a 64-bit key with the slot index; the last packable seq
  // must still order FIFO, and the next schedule must throw and leave
  // the queue untouched.
  EventQueue q;
  EventQueueProbe::set_next_seq(q, EventQueue::kMaxSeq - 1);
  std::vector<int> order;
  q.schedule(5, [&order] { order.push_back(1); });
  q.schedule(5, [&order] { order.push_back(2); });
  EXPECT_THROW(q.schedule(5, [&order] { order.push_back(3); }),
               std::length_error);
  EXPECT_THROW(q.schedule(1, [] {}), std::length_error);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.stats().events_scheduled, 2u);
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, LeaseChurnCallbacksDoNotAllocate) {
  // The tentpole claim: cancel/reschedule churn with timer-sized
  // captures must not touch the heap for callback storage.
  EventQueue q;
  struct Lease {
    int renews = 0;
  };
  std::array<Lease, 8> leases{};
  std::array<EventId, 8> timers{};
  for (std::size_t i = 0; i < leases.size(); ++i) {
    Lease* lease = &leases[i];
    timers[i] = q.schedule(static_cast<SimTime>(i), [lease] { ++lease->renews; });
  }
  for (int round = 0; round < 100; ++round) {
    for (std::size_t i = 0; i < leases.size(); ++i) {
      q.cancel(timers[i]);
      Lease* lease = &leases[i];
      const std::uint64_t deadline = 1000 + static_cast<std::uint64_t>(round);
      timers[i] = q.schedule(static_cast<SimTime>(deadline),
                             [lease, deadline, round] {
                               lease->renews += static_cast<int>(deadline) + round;
                             });
    }
  }
  EXPECT_EQ(q.stats().callback_heap_allocs, 0u);
  EXPECT_EQ(q.stats().events_scheduled, 8u + 8u * 100u);
  EXPECT_EQ(q.stats().events_cancelled, 8u * 100u);
}

TEST(EventQueue, OversizedCallbackIsCountedAsHeapAlloc) {
  EventQueue q;
  std::array<std::uint64_t, 16> big{};
  big[3] = 9;
  std::uint64_t out = 0;
  q.schedule(1, [big, &out] { out = big[3]; });
  EXPECT_EQ(q.stats().callback_heap_allocs, 1u);
  q.pop().cb();
  EXPECT_EQ(out, 9u);
}

TEST(EventQueue, PeakHeapSizeTracksHighWaterMark) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(q.schedule(i, [] {}));
  for (int i = 0; i < 5; ++i) q.cancel(ids[static_cast<std::size_t>(i)]);
  q.schedule(100, [] {});
  EXPECT_EQ(q.stats().peak_heap_size, 10u);
  EXPECT_EQ(q.size(), 6u);
}

TEST(EventQueue, BindStatsSharesAnExternalBlock) {
  KernelStats shared;
  EventQueue q;
  q.bind_stats(&shared);
  const auto id = q.schedule(1, [] {});
  q.cancel(id);
  q.schedule(2, [] {});
  q.pop();
  EXPECT_EQ(shared.events_scheduled, 2u);
  EXPECT_EQ(shared.events_cancelled, 1u);
  EXPECT_EQ(shared.events_fired, 1u);
}

TEST(EventQueue, CancelDuringDenseSameTimeGroupKeepsFifo) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(q.schedule(50, [&order, i] { order.push_back(i); }));
  }
  for (int i = 1; i < 20; i += 2) q.cancel(ids[static_cast<std::size_t>(i)]);
  while (!q.empty()) q.pop().cb();
  std::vector<int> expected;
  for (int i = 0; i < 20; i += 2) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

}  // namespace
}  // namespace sdcm::sim
