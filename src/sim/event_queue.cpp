#include "sdcm/sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace sdcm::sim {

EventQueue::SlotIndex EventQueue::acquire_slot() {
  if (!free_.empty()) {
    const SlotIndex index = free_.back();
    free_.pop_back();
    return index;
  }
  if (slots_.size() >= kMaxSlots) {
    throw std::length_error("EventQueue: more than 2^28 live events");
  }
  slots_.emplace_back();
  return static_cast<SlotIndex>(slots_.size() - 1);
}

void EventQueue::release_slot(SlotIndex index) {
  Slot& slot = slots_[index];
  slot.cb.reset();
  slot.heap_pos = kNoPos;
  // Generation 0 is reserved so no id collides with kInvalidEventId.
  if (++slot.generation == 0) slot.generation = 1;
  free_.push_back(index);
}

void EventQueue::sift_up(std::size_t pos) noexcept {
  const Entry moving = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!moving.before(heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, moving);
}

void EventQueue::heap_erase(std::size_t pos) noexcept {
  // Bottom-up deletion, as std::pop_heap does it: walk the hole at `pos`
  // down to a leaf along the smallest children, refill it with the last
  // entry and sift that up. The last entry nearly always belongs near
  // the bottom, so this skips the compare against it on every level.
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (pos == n) return;  // the erased entry was the last one
  for (;;) {
    const std::size_t first_child = pos * kArity + 1;
    if (first_child >= n) break;
    const std::size_t end_child = std::min(first_child + kArity, n);
    std::size_t best = first_child;
    for (std::size_t child = first_child + 1; child < end_child; ++child) {
      if (heap_[child].before(heap_[best])) best = child;
    }
    place(pos, heap_[best]);
    pos = best;
  }
  heap_[pos] = last;
  sift_up(pos);
}

EventId EventQueue::schedule(SimTime at, Callback cb) {
  if (next_seq_ > kMaxSeq) {
    throw std::length_error("EventQueue: 2^36 - 1 schedules used up");
  }
  const SlotIndex index = acquire_slot();
  Slot& slot = slots_[index];
  slot.cb = std::move(cb);
  heap_.push_back(Entry{at, (next_seq_++ << kSlotBits) | index});
  sift_up(heap_.size() - 1);
  ++stats_->events_scheduled;
  if (slot.cb.heap_allocated()) ++stats_->callback_heap_allocs;
  if (heap_.size() > stats_->peak_heap_size) {
    stats_->peak_heap_size = heap_.size();
  }
  return id_of(index);
}

void EventQueue::cancel(EventId id) {
  const auto index = static_cast<SlotIndex>(id & 0xFFFFFFFFull);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (generation == 0 || index >= slots_.size()) return;
  const Slot& slot = slots_[index];
  if (slot.generation != generation || slot.heap_pos == kNoPos) return;
  heap_erase(slot.heap_pos);
  release_slot(index);
  ++stats_->events_cancelled;
}

EventQueue::Fired EventQueue::pop() {
  assert(!heap_.empty());
  const Entry top = heap_[0];
  const SlotIndex index = top.slot();
  Fired fired{top.at, id_of(index), std::move(slots_[index].cb)};
  heap_erase(0);
  release_slot(index);
  ++stats_->events_fired;
  return fired;
}

}  // namespace sdcm::sim
