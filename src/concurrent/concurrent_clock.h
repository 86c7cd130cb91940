// CLOCK with a truly lock-free hit path and sharded eviction domains.
//
// The index is a striped open-addressing table of atomic id slots
// (striped_index.h): a hit is one hash, a short probe, and a single
// relaxed atomic RMW on the object's reference counter — no mutex, no
// shared_mutex, no reader registration. This is the "at most one metadata
// update, no locking" property of Lazy Promotion (§3, §4) made literal.
//
// Misses go through sharded eviction domains (eviction_domains.h): the
// CLOCK ring (clock_ring.h) is partitioned into S hash-selected regions,
// each with its own hand, bump allocator and free list, which DomainCache's
// try-lock / buffer / drain protocol fills under the region's own mutex,
// so misses to different domains admit and evict fully in parallel.
// ClockRegions below is only the ring.
//
// Driven from a single thread with num_shards == 1 (the default) the
// behavior is exactly the sequential CLOCK spec (the try_lock always
// succeeds, so admissions are never deferred); the oracle differential
// tests pin this against RefClock, with and without removals. With more
// shards each domain is an independent CLOCK over its hash partition —
// still deterministic single-threaded, pinned against per-shard sequential
// references. ClockRegions over the serial core is the single-threaded
// fifo-reinsertion / clock2 / clock3 policy (src/core/regions_policy.h).

#ifndef QDLP_SRC_CONCURRENT_CONCURRENT_CLOCK_H_
#define QDLP_SRC_CONCURRENT_CONCURRENT_CLOCK_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/concurrent/clock_ring.h"
#include "src/concurrent/eviction_domains.h"
#include "src/util/check.h"

namespace qdlp {

// The whole cache is one CLOCK ring; index values are global ring slots.
template <typename Core>
class ClockRegions {
 public:
  ClockRegions(Core& core, int bits)
      : core_(core), ring_(ShardCapacities(core), MaxCounter(bits)) {}

  // CLOCK keeps no ghost, so every admission is a cold one.
  static size_t GhostCapacity(size_t) { return 0; }

  void Touch(uint32_t slot) { ring_.Touch(slot); }
  void AdmitLocked(size_t s, ObjectId id, uint32_t entry);
  // Evicts under the hand and frees the slot for the next admission.
  bool EvictOneLocked(size_t s) {
    if (ring_.count(s) == 0) {
      return false;
    }
    ring_.Free(s, EvictAtHand(s));
    return true;
  }
  void UnlinkLocked(size_t s, uint32_t slot) { ring_.Free(s, slot); }
  // Sequential CLOCK reports no per-region occupancy; neither does this.
  void FillOccupancy(size_t, CacheStats*) const {}
  size_t CheckShardLocked(size_t s) const;
  size_t MemoryBytes() const { return ring_.MemoryBytes(); }

 private:
  static std::vector<size_t> ShardCapacities(const Core& core) {
    std::vector<size_t> capacities(core.num_shards());
    for (size_t s = 0; s < capacities.size(); ++s) {
      capacities[s] = core.shard_capacity(s);
    }
    return capacities;
  }

  static uint8_t MaxCounter(int bits) {
    QDLP_CHECK(bits >= 1 && bits <= 8);
    return static_cast<uint8_t>((1u << bits) - 1);
  }

  // Unindexes and counts the object under shard s's hand; returns its
  // slot, still occupied.
  uint32_t EvictAtHand(size_t s) {
    const uint32_t victim = ring_.NextVictim(s, [&](ObjectId lapped) {
      // Lazy promotion: the reinsertion lap, counted like sequential CLOCK.
      core_.Count(ConcurrentStatsCounters::kPromotions, lapped);
    });
    const ObjectId evicted = ring_.id(victim);
    core_.index.Erase(evicted);
    core_.Count(ConcurrentStatsCounters::kEvictions, evicted);
    return victim;
  }

  Core& core_;
  ClockRing ring_;
};

template <typename Core>
void ClockRegions<Core>::AdmitLocked(size_t s, ObjectId id, uint32_t entry) {
  QDLP_DCHECK(entry == StripedAtomicIndex::kNoEntry);
  (void)entry;
  if (!ring_.full(s)) {
    core_.index.Insert(id, ring_.Take(s, id));
    return;
  }
  // No slot is free, so the newcomer takes the victim's.
  const uint32_t victim = EvictAtHand(s);
  ring_.Replace(victim, id);
  core_.index.Insert(id, victim);
}

template <typename Core>
size_t ClockRegions<Core>::CheckShardLocked(size_t s) const {
  return ring_.CheckRegion(s, [&](ObjectId id, uint32_t slot) {
    // Resident ids hash to the shard whose region stores them.
    QDLP_CHECK(core_.ShardOf(id) == s);
    uint32_t indexed;
    QDLP_CHECK(core_.index.Find(id, &indexed));
    QDLP_CHECK(indexed == slot);
  });
}

extern template class ClockRegions<DomainCore>;
extern template class DomainCache<ClockRegions<DomainCore>>;

class ConcurrentClockCache : public DomainCache<ClockRegions<DomainCore>> {
 public:
  // `num_shards` eviction domains (rounded/clamped by DomainCore);
  // the index gets max(num_stripes, shard count) stripes so every domain
  // owns a disjoint stripe set (see eviction_domains.h).
  ConcurrentClockCache(size_t capacity, int bits = 1, size_t num_stripes = 16,
                       size_t num_shards = 1, QdlpValueOptions values = {});

  std::string_view name() const override { return "concurrent-clock"; }
};

}  // namespace qdlp

#endif  // QDLP_SRC_CONCURRENT_CONCURRENT_CLOCK_H_
