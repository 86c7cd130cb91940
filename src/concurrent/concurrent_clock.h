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
// each with its own mutex, hand, bump allocator, free list, and BP-Wrapper
// insert buffers. A missing thread try-locks its id's home domain; on
// failure it buffers the id in that domain's MPSC rings and returns; the
// next holder drains the batch under its single acquisition, then makes
// one helping pass over backlogged foreign domains. Misses to different
// domains admit and evict fully in parallel. DomainCache implements that
// protocol; ClockRegions below is only the ring.
//
// Driven from a single thread with num_shards == 1 (the default) the
// behavior is exactly the sequential CLOCK spec (the try_lock always
// succeeds, so admissions are never deferred); the oracle differential
// tests pin this against RefClock, and against ClockPolicy with removals.
// With more shards each domain is an independent CLOCK over its hash
// partition — still deterministic single-threaded, pinned against
// per-shard sequential references.

#ifndef QDLP_SRC_CONCURRENT_CONCURRENT_CLOCK_H_
#define QDLP_SRC_CONCURRENT_CONCURRENT_CLOCK_H_

#include <cstdint>
#include <string_view>

#include "src/concurrent/clock_ring.h"
#include "src/concurrent/eviction_domains.h"

namespace qdlp {

// The whole cache is one CLOCK ring; index values are global ring slots.
class ClockRegions {
 public:
  ClockRegions(DomainCore& core, int bits);

  void Touch(uint32_t slot) { ring_.Touch(slot); }
  void AdmitLocked(size_t s, ObjectId id);
  void UnlinkLocked(size_t s, uint32_t slot) { ring_.Free(s, slot); }
  // Sequential CLOCK reports no per-region occupancy; neither does this.
  void FillOccupancy(size_t, CacheStats*) const {}
  size_t CheckShardLocked(size_t s) const;
  void CheckSharedLocked() const {}
  size_t MemoryBytes() const { return ring_.MemoryBytes(); }

 private:
  DomainCore& core_;
  ClockRing ring_;
};

extern template class DomainCache<ClockRegions>;

class ConcurrentClockCache : public DomainCache<ClockRegions> {
 public:
  // `num_shards` eviction domains (rounded/clamped by EvictionDomains);
  // the index gets max(num_stripes, shard count) stripes so every domain
  // owns a disjoint stripe set (see eviction_domains.h).
  ConcurrentClockCache(size_t capacity, int bits = 1, size_t num_stripes = 16,
                       size_t num_shards = 1);

  std::string_view name() const override { return "concurrent-clock"; }
};

}  // namespace qdlp

#endif  // QDLP_SRC_CONCURRENT_CONCURRENT_CLOCK_H_
