// The one CLOCK ring: all of ClockRegions and the main region of
// QdLpRegions (§3: k-bit CLOCK is lazy promotion), so it backs
// ConcurrentClockCache and ConcurrentQdLpFifo as well as the serial
// fifo-reinsertion, clock2, clock3 and qd-lp-fifo policies. One slot array
// is partitioned into a region per eviction domain; each region has its
// own hand, bump allocator and free list, guarded by that domain's mutex.
//
// Only a slot's `counter` is touched by concurrent readers (the lock-free
// hit path); everything else is written solely under the owning shard's
// mutex, and readers never look at it.
//
// Slots vacated outside an admission — by Remove(), or by an eviction that
// frees space instead of admitting — go on the region's free list, and an
// admission takes from that list before bumping or evicting, the most
// recently freed slot first. So an admission never evicts a live object
// while a slot is free, and the hand never meets an empty slot on the
// admission path (RefClock in tests/oracle/ models this as LIFO holes).

#ifndef QDLP_SRC_CONCURRENT_CLOCK_RING_H_
#define QDLP_SRC_CONCURRENT_CLOCK_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/trace/trace.h"
#include "src/util/check.h"

namespace qdlp {

class ClockRing {
 public:
  // One region per entry of `capacities`, laid out back to back.
  ClockRing(const std::vector<size_t>& capacities, uint8_t max_counter)
      : max_counter_(max_counter), regions_(capacities.size()) {
    size_t base = 0;
    for (size_t r = 0; r < capacities.size(); ++r) {
      QDLP_CHECK(capacities[r] >= 1);
      regions_[r].base = base;
      regions_[r].capacity = capacities[r];
      base += capacities[r];
    }
    slots_ = std::vector<Slot>(base);
  }

  // Lock-free hit: a racy saturating bump. A lost increment under
  // contention only costs a reference bit, never correctness.
  void Touch(uint32_t slot) {
    std::atomic<uint8_t>& counter = slots_[slot].counter;
    const uint8_t current = counter.load(std::memory_order_relaxed);
    if (current < max_counter_) {
      counter.store(current + 1, std::memory_order_relaxed);
    }
  }

  // ---- The rest runs under region r's shard mutex. ----

  bool full(size_t r) const {
    return regions_[r].count == regions_[r].capacity;
  }
  size_t count(size_t r) const { return regions_[r].count; }
  ObjectId id(uint32_t slot) const { return slots_[slot].id; }

  // Places `id` with a zero counter in a vacant slot of region r — a freed
  // one first, then a never-used one — and returns the slot. The region
  // must not be full.
  uint32_t Take(size_t r, ObjectId id) {
    Region& region = regions_[r];
    QDLP_DCHECK(region.count < region.capacity);
    uint32_t slot = region.free_head;
    if (slot != kNoSlot) {
      region.free_head = slots_[slot].next_free;
    } else {
      slot = static_cast<uint32_t>(region.base + region.used++);
    }
    slots_[slot].id = id;
    slots_[slot].counter.store(0, std::memory_order_relaxed);
    slots_[slot].occupied = true;
    ++region.count;
    return slot;
  }

  // Advances region r's hand past its next victim and returns the victim's
  // slot, still occupied. Each non-zero counter the hand passes buys its
  // object another lap (lazy promotion): it is decremented and the object's
  // id reported to on_lap(id). Empty slots are skipped. The region must not
  // be empty.
  template <typename OnLap>
  uint32_t NextVictim(size_t r, OnLap&& on_lap) {
    Region& region = regions_[r];
    QDLP_DCHECK(region.count > 0);
    while (true) {
      Slot& slot = slots_[region.base + region.hand];
      const uint32_t current = static_cast<uint32_t>(region.base + region.hand);
      region.hand = (region.hand + 1) % region.capacity;
      if (!slot.occupied) {
        continue;
      }
      const uint8_t counter = slot.counter.load(std::memory_order_relaxed);
      if (counter == 0) {
        return current;
      }
      slot.counter.store(counter - 1, std::memory_order_relaxed);
      on_lap(slot.id);
    }
  }

  // Hands the occupied `slot` to `id` with a zero counter: an admission
  // that evicted the slot's occupant takes its place. The caller unindexes
  // the occupant first, as for Free().
  void Replace(uint32_t slot, ObjectId id) {
    slots_[slot].id = id;
    slots_[slot].counter.store(0, std::memory_order_relaxed);
  }

  // Vacates `slot` onto region r's free list. The caller unindexes the
  // occupant first, so readers stop finding it before the slot is reused;
  // a reader that raced and already fetched the slot at worst bumps the
  // next occupant's counter once — benign.
  void Free(size_t r, uint32_t slot) {
    Region& region = regions_[r];
    slots_[slot].occupied = false;
    slots_[slot].next_free = region.free_head;
    region.free_head = slot;
    --region.count;
  }

  // Checks region r and calls fn(id, slot) for each occupied slot. Vacant
  // slots below the bump offset are exactly the free list. Returns the
  // occupied count.
  template <typename Fn>
  size_t CheckRegion(size_t r, Fn&& fn) const {
    const Region& region = regions_[r];
    QDLP_CHECK(region.used <= region.capacity);
    QDLP_CHECK(region.hand < region.capacity);
    size_t occupied = 0;
    for (size_t i = 0; i < region.capacity; ++i) {
      const Slot& slot = slots_[region.base + i];
      if (!slot.occupied) {
        continue;
      }
      QDLP_CHECK(i < region.used);
      QDLP_CHECK(slot.counter.load(std::memory_order_relaxed) <= max_counter_);
      fn(slot.id, static_cast<uint32_t>(region.base + i));
      ++occupied;
    }
    QDLP_CHECK(occupied == region.count);
    size_t free_slots = 0;
    for (uint32_t slot = region.free_head; slot != kNoSlot;
         slot = slots_[slot].next_free) {
      QDLP_CHECK(slot >= region.base && slot < region.base + region.used);
      QDLP_CHECK(!slots_[slot].occupied);
      ++free_slots;
      QDLP_CHECK(free_slots <= region.used);  // cycle guard
    }
    QDLP_CHECK(occupied + free_slots == region.used);
    return occupied;
  }

  size_t MemoryBytes() const {
    return slots_.capacity() * sizeof(Slot) +
           regions_.capacity() * sizeof(Region);
  }

 private:
  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;

  struct Slot {
    ObjectId id = 0;
    std::atomic<uint8_t> counter{0};
    bool occupied = false;
    uint32_t next_free = kNoSlot;  // free-list link while vacant
  };

  // Padded so neighboring shards' hand churn never shares a line.
  struct alignas(64) Region {
    size_t base = 0;  // first slot of the region
    size_t capacity = 0;
    size_t used = 0;  // bump allocator offset
    size_t hand = 0;  // offset within the region
    size_t count = 0;  // occupied slots
    uint32_t free_head = kNoSlot;
  };

  const uint8_t max_counter_;
  std::vector<Slot> slots_;
  std::vector<Region> regions_;
};

}  // namespace qdlp

#endif  // QDLP_SRC_CONCURRENT_CLOCK_RING_H_
