#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sdcm/sim/kernel_stats.hpp"
#include "sdcm/sim/time.hpp"

namespace sdcm::sim {

/// Identifies a scheduled event; used to cancel timers. Encodes the
/// event's slab slot in the low 32 bits and the slot's generation in the
/// high 32 bits, so cancel() is an O(1) array lookup and a stale id
/// (slot since reused) is detected by a generation mismatch. Generations
/// start at 1, so no valid id ever equals kInvalidEventId.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/// Move-only `void()` callable with a 64-byte small-buffer optimisation.
///
/// std::function's inline buffer (16 bytes in libstdc++) is too small
/// for the kernel's typical captures - a `this` pointer plus a service
/// id, a registry NodeId, a retry counter - so the seed implementation
/// heap-allocated on nearly every lease renewal. 64 bytes covers every
/// timer callback in the tree; larger callables still work but fall back
/// to the heap, and the queue counts them (KernelStats::
/// callback_heap_allocs) so regressions are visible in the benches.
///
/// Contract: the wrapped callable must be nothrow-move-constructible and
/// no more aligned than std::max_align_t to qualify for inline storage;
/// anything else is boxed. Moving an InlineCallback relocates the
/// callable (inline case) or steals the box pointer (heap case); the
/// moved-from wrapper becomes empty. Invoking an empty wrapper is UB
/// (asserted in debug builds), same as std::function minus the throw.
class InlineCallback {
 public:
  static constexpr std::size_t kInlineSize = 64;

  InlineCallback() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineCallback> &&
                                        std::is_invocable_r_v<void, D&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): converts like std::function
  InlineCallback(F&& fn) {
    if constexpr (fits_inline<D>()) {
      ::new (storage()) D(std::forward<F>(fn));
      vtable_ = inline_vtable<D>();
    } else {
      ::new (storage()) D*(new D(std::forward<F>(fn)));
      vtable_ = heap_vtable<D>();
    }
  }

  InlineCallback(InlineCallback&& other) noexcept { move_from(other); }
  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;
  ~InlineCallback() { reset(); }

  void operator()() {
    assert(vtable_ != nullptr);
    vtable_->invoke(storage());
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return vtable_ != nullptr;
  }

  /// Whether the callable was too big/aligned for the inline buffer.
  [[nodiscard]] bool heap_allocated() const noexcept {
    return vtable_ != nullptr && vtable_->heap;
  }

  void reset() noexcept {
    if (vtable_ != nullptr) {
      vtable_->destroy(storage());
      vtable_ = nullptr;
    }
  }

 private:
  struct VTable {
    void (*invoke)(void* storage);
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* storage) noexcept;
    bool heap;
  };

  template <typename D>
  static constexpr bool fits_inline() noexcept {
    return sizeof(D) <= kInlineSize &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  struct InlineOps {
    static void invoke(void* s) { (*static_cast<D*>(s))(); }
    static void relocate(void* from, void* to) noexcept {
      D* src = static_cast<D*>(from);
      ::new (to) D(std::move(*src));
      src->~D();
    }
    static void destroy(void* s) noexcept { static_cast<D*>(s)->~D(); }
  };

  template <typename D>
  struct HeapOps {
    static void invoke(void* s) { (**static_cast<D**>(s))(); }
    static void relocate(void* from, void* to) noexcept {
      ::new (to) D*(*static_cast<D**>(from));
    }
    static void destroy(void* s) noexcept { delete *static_cast<D**>(s); }
  };

  template <typename D>
  static const VTable* inline_vtable() noexcept {
    static constexpr VTable vt{&InlineOps<D>::invoke, &InlineOps<D>::relocate,
                               &InlineOps<D>::destroy, /*heap=*/false};
    return &vt;
  }

  template <typename D>
  static const VTable* heap_vtable() noexcept {
    static constexpr VTable vt{&HeapOps<D>::invoke, &HeapOps<D>::relocate,
                               &HeapOps<D>::destroy, /*heap=*/true};
    return &vt;
  }

  void move_from(InlineCallback& other) noexcept {
    vtable_ = other.vtable_;
    if (vtable_ != nullptr) {
      vtable_->relocate(other.storage(), storage());
      other.vtable_ = nullptr;
    }
  }

  [[nodiscard]] void* storage() noexcept { return storage_; }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const VTable* vtable_ = nullptr;
};

/// Min-queue of timestamped callbacks with stable FIFO ordering among
/// events scheduled for the same instant (a monotonic sequence number
/// breaks ties, which keeps runs deterministic regardless of heap
/// internals - the exact total order of the seed implementation).
///
/// Layout: callbacks live in a contiguous slab (`slots_`) recycled
/// through a free list, and a 4-ary min-heap (`heap_`) orders them. Each
/// heap entry carries its event's whole ordering key inline - `{at, seq
/// << kSlotBits | slot}`, 16 bytes - so sifting compares entries of the
/// heap array itself and touches a `Slot` only to record its new
/// `heap_pos`. At the 2*10^5-deep queue of a 10^4-User churn run that
/// is the difference between one cache line per level and a miss per
/// compared child. Packing `seq` above the slot index keeps one integer
/// compare for the tie-break: seq is unique, so comparing the packed word
/// compares seq. Both packed fields are bounded, at 2^28 live events and
/// 2^36 - 1 schedules per queue; going past either throws
/// std::length_error rather than wrap into a wrong order.
///
/// Each slot records its current heap position, so cancel() is a true
/// O(log n) heap erase instead of the seed's tombstone set - the protocol
/// models cancel timers constantly (every renewed lease cancels its
/// expiry timer), and with lazy cancellation the dead entries kept
/// inflating the heap between pops. Pop and cancel share one bottom-up
/// erase. 4-ary beats binary here: the hot loop is pop-dominated, and a
/// branching factor of 4 halves the tree height for two extra compares
/// per level, the four children being 64 contiguous bytes of the heap
/// array.
class EventQueue {
 public:
  using Callback = InlineCallback;

  /// Schedules `cb` at absolute time `at`. Returns an id for cancel().
  /// Throws std::length_error past the packing bounds (see the class
  /// comment); the queue is unchanged when it throws.
  EventId schedule(SimTime at, Callback cb);

  /// Cancels a pending event in O(log n). Cancelling an already-fired,
  /// unknown, or stale id is a no-op (protocol code often races a timer
  /// with the message that makes it moot).
  void cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  /// Time of the earliest live event; requires !empty().
  [[nodiscard]] SimTime next_time() const noexcept {
    assert(!heap_.empty());
    return heap_[0].at;
  }

  /// Pops and returns the earliest live event. Requires !empty().
  struct Fired {
    SimTime at;
    EventId id;
    Callback cb;
  };
  Fired pop();

  /// Number of live events still queued.
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Points the queue's counters at a shared stats block (the
  /// Simulator's); unbound queues count into a private block.
  void bind_stats(KernelStats* stats) noexcept { stats_ = stats; }
  [[nodiscard]] const KernelStats& stats() const noexcept { return *stats_; }

  /// Packing bounds of a heap entry's key: the slot index takes the low
  /// kSlotBits bits, the schedule sequence number the rest.
  static constexpr int kSlotBits = 28;
  static constexpr std::uint64_t kMaxSlots = std::uint64_t{1} << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = ~std::uint64_t{0} >> kSlotBits;

 private:
  // Unit tests start the sequence counter near kMaxSeq to reach the
  // bound without 2^36 schedules.
  friend class EventQueueProbe;

  using SlotIndex = std::uint32_t;
  static constexpr SlotIndex kNoPos = ~SlotIndex{0};
  static constexpr int kArity = 4;
  static constexpr std::uint64_t kSlotMask = kMaxSlots - 1;

  struct Entry {
    SimTime at;
    std::uint64_t key;  // seq << kSlotBits | slot index

    [[nodiscard]] SlotIndex slot() const noexcept {
      return static_cast<SlotIndex>(key & kSlotMask);
    }
    [[nodiscard]] bool before(const Entry& other) const noexcept {
      return at != other.at ? at < other.at : key < other.key;
    }
  };

  struct Slot {
    // The callback first, so the two counters below sit in its tail
    // padding (72 used bytes of 80) and a slot stays 80 bytes.
    [[no_unique_address]] InlineCallback cb;
    std::uint32_t generation = 1; // bumped on release; stale-id guard
    SlotIndex heap_pos = kNoPos;  // kNoPos = free / not queued
  };

  [[nodiscard]] EventId id_of(SlotIndex index) const noexcept {
    return (std::uint64_t{slots_[index].generation} << 32) | index;
  }
  /// Stores `entry` at heap position `pos` and tells its slot.
  void place(std::size_t pos, const Entry& entry) noexcept {
    heap_[pos] = entry;
    slots_[entry.slot()].heap_pos = static_cast<SlotIndex>(pos);
  }

  SlotIndex acquire_slot();
  void release_slot(SlotIndex index);
  void sift_up(std::size_t pos) noexcept;
  void heap_erase(std::size_t pos) noexcept;

  std::vector<Slot> slots_;       // the slab; index = low half of EventId
  std::vector<Entry> heap_;       // 4-ary min-heap of inline keys
  std::vector<SlotIndex> free_;   // recycled slot indices, LIFO
  std::uint64_t next_seq_ = 1;
  KernelStats local_stats_;
  KernelStats* stats_ = &local_stats_;
};

}  // namespace sdcm::sim
