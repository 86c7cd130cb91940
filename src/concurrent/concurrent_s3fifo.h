// Thread-safe S3-FIFO: lock-free hit path, sharded eviction domains.
//
// S3-FIFO was designed for exactly this: hits touch only a per-object
// atomic frequency counter (no queue reordering ever), so the hot path is
// one probe of the striped atomic index (striped_index.h) plus one relaxed
// RMW — no shared_mutex, no reader registration. All queue surgery
// (admission, small->main promotion, ghost bookkeeping) happens on the
// miss path, which DomainCache's try-lock / buffer / drain protocol
// partitions into S hash-selected eviction domains (eviction_domains.h),
// each owning a slab region, its own small/main FIFOs and ghost, and one
// mutex. S3FifoRegions below is the queues.
//
// Storage is one fixed slab of nodes (no per-object allocation),
// partitioned by shard: the small and main FIFOs are intrusive
// doubly-linked lists threaded through the same slab slots, so a removal
// unlinks in O(1), and the index maps id -> global slab slot, which is
// stable across queue movement — promotion and main-queue reinsertion
// never touch the index at all. The ghost lives in the index too
// (IndexedGhost, eviction_domains.h): a quick demotion turns the victim's
// entry into a ghost record and a ghost hit turns it back, each one
// in-place update.
//
// Single-threaded with num_shards == 1 (the default), this cache makes
// the same decisions as MakePolicy("s3fifo"), which runs these very
// Regions over the serial core (src/core/regions_policy.h); the oracle
// differential tests pin both against RefS3Fifo, with and without
// removals. With more shards each domain is an independent S3-FIFO over
// its hash partition, still deterministic single-threaded.

#ifndef QDLP_SRC_CONCURRENT_CONCURRENT_S3FIFO_H_
#define QDLP_SRC_CONCURRENT_CONCURRENT_S3FIFO_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/concurrent/eviction_domains.h"
#include "src/util/check.h"

namespace qdlp {

// Small and main FIFOs plus a ghost per shard; index values are global
// slab slots, or ghost positions under the index's ghost tag.
template <typename Core>
class S3FifoRegions {
 public:
  // S3-FIFO's sizing, applied per shard to its capacity share: the small
  // queue is 10% of it, the ghost 90%.
  static constexpr double kSmallFraction = 0.10;
  static constexpr double kGhostFactor = 0.9;

  explicit S3FifoRegions(Core& core);

  static size_t GhostCapacity(size_t share) {
    return Scaled(share, kGhostFactor);
  }

  void Touch(uint32_t slot) {
    std::atomic<uint8_t>& freq = slab_[slot].freq;
    const uint8_t current = freq.load(std::memory_order_relaxed);
    if (current < kMaxFreq) {
      freq.store(current + 1, std::memory_order_relaxed);
    }
  }
  void AdmitLocked(size_t s, ObjectId id, uint32_t entry);
  // One step of S3-FIFO's eviction: the small queue's head (evicted or
  // promoted) while small holds its share or main is empty, else main's.
  bool EvictOneLocked(size_t s);
  void UnlinkLocked(size_t s, uint32_t slot);
  void FillOccupancy(size_t s, CacheStats* stats) const;
  size_t CheckShardLocked(size_t s) const;
  size_t MemoryBytes() const;

 private:
  static constexpr uint8_t kMaxFreq = 3;
  static constexpr uint32_t kNil = 0xFFFFFFFFu;

  enum class Where : uint8_t { kSmall, kMain };

  // Slab slot. Only `freq` is touched by concurrent readers (the lock-free
  // hit path); everything else is written solely under the owning shard's
  // mutex.
  struct Node {
    ObjectId id = 0;
    std::atomic<uint8_t> freq{0};
    Where where = Where::kSmall;
    uint32_t prev = kNil;  // intrusive FIFO link toward the head
    uint32_t next = kNil;  // intrusive FIFO link toward the tail / freelist
  };

  // Intrusive FIFO over slab slots.
  struct Fifo {
    uint32_t head = kNil;
    uint32_t tail = kNil;
    size_t count = 0;
  };

  // Per-shard queue state, guarded by the shard's mutex. The shard's slab
  // region is the core.shard_capacity(s) slots from core.shard_base(s);
  // `slab_used` is a local bump offset within it and `free_head` a
  // freelist of recycled region slots.
  struct alignas(64) Shard {
    Shard(size_t small_capacity, size_t ghost_base, size_t ghost_capacity)
        : small_capacity(small_capacity), ghost(ghost_base, ghost_capacity) {}

    Fifo small_fifo;
    Fifo main_fifo;
    uint32_t free_head = kNil;
    size_t slab_used = 0;
    size_t small_capacity;  // small-queue target within the share
    IndexedGhost ghost;
  };

  // `fraction` of a shard's capacity share, rounded, at least 1: one shard
  // splits exactly as RefS3Fifo does.
  static size_t Scaled(size_t share, double fraction) {
    return std::max<size_t>(
        1, static_cast<size_t>(
               std::llround(static_cast<double>(share) * fraction)));
  }

  void PushBack(Fifo& fifo, uint32_t slot);
  uint32_t PopFront(Fifo& fifo);
  // Unlinks `slot` from anywhere in the FIFO.
  void Unlink(Fifo& fifo, uint32_t slot);

  // All of the below run under the shard's mutex.
  uint32_t AllocSlot(size_t s);
  void FreeSlot(size_t s, uint32_t slot);
  void EvictSmall(size_t s);
  void EvictMain(size_t s);

  Core& core_;
  std::vector<Node> slab_;  // fixed node storage, partitioned by shard
  std::vector<Shard> shards_;
};

template <typename Core>
S3FifoRegions<Core>::S3FifoRegions(Core& core)
    : core_(core), slab_(core.capacity()) {
  shards_.reserve(core.num_shards());
  size_t ghost_base = 0;
  for (size_t s = 0; s < core.num_shards(); ++s) {
    const size_t share = core.shard_capacity(s);
    shards_.emplace_back(std::min(Scaled(share, kSmallFraction), share),
                         ghost_base, GhostCapacity(share));
    ghost_base += GhostCapacity(share);
  }
}

template <typename Core>
void S3FifoRegions<Core>::FillOccupancy(size_t s, CacheStats* stats) const {
  const Shard& shard = shards_[s];
  stats->probation_size += shard.small_fifo.count;
  stats->main_size += shard.main_fifo.count;
  stats->ghost_size += shard.ghost.size();
}

template <typename Core>
size_t S3FifoRegions<Core>::CheckShardLocked(size_t s) const {
  const size_t base = core_.shard_base(s);
  const size_t capacity = core_.shard_capacity(s);
  const Shard& shard = shards_[s];
  const size_t resident = shard.small_fifo.count + shard.main_fifo.count;
  QDLP_CHECK(resident <= capacity);
  QDLP_CHECK(shard.slab_used <= capacity);
  // Walk both FIFOs: link structure must be consistent with the counts,
  // tags, region bounds, and the index.
  for (const Fifo* fifo : {&shard.small_fifo, &shard.main_fifo}) {
    const Where expect =
        fifo == &shard.small_fifo ? Where::kSmall : Where::kMain;
    size_t count = 0;
    uint32_t slot = fifo->head;
    uint32_t last = kNil;
    while (slot != kNil) {
      QDLP_CHECK(slot >= base);
      QDLP_CHECK(slot < base + shard.slab_used);
      const Node& node = slab_[slot];
      QDLP_CHECK(node.prev == last);
      QDLP_CHECK(node.where == expect);
      QDLP_CHECK(node.freq.load(std::memory_order_relaxed) <= kMaxFreq);
      QDLP_CHECK(core_.ShardOf(node.id) == s);
      uint32_t indexed_slot;
      QDLP_CHECK(core_.index.Find(node.id, &indexed_slot));
      QDLP_CHECK(indexed_slot == slot);
      last = slot;
      slot = node.next;
      ++count;
      QDLP_CHECK(count <= resident);  // cycle guard
    }
    QDLP_CHECK(last == fifo->tail);
    QDLP_CHECK(count == fifo->count);
  }
  // Ghost entries are evicted history, indexed only as ghost records.
  shard.ghost.CheckLocked(core_, s);
  return resident;
}

template <typename Core>
size_t S3FifoRegions<Core>::MemoryBytes() const {
  size_t bytes = slab_.capacity() * sizeof(Node);
  for (const Shard& shard : shards_) {
    bytes += sizeof(Shard) + shard.ghost.MemoryBytes();
  }
  return bytes;
}

template <typename Core>
void S3FifoRegions<Core>::PushBack(Fifo& fifo, uint32_t slot) {
  slab_[slot].prev = fifo.tail;
  slab_[slot].next = kNil;
  (fifo.tail == kNil ? fifo.head : slab_[fifo.tail].next) = slot;
  fifo.tail = slot;
  ++fifo.count;
}

template <typename Core>
uint32_t S3FifoRegions<Core>::PopFront(Fifo& fifo) {
  QDLP_DCHECK(fifo.head != kNil);
  const uint32_t slot = fifo.head;
  Unlink(fifo, slot);
  return slot;
}

template <typename Core>
void S3FifoRegions<Core>::Unlink(Fifo& fifo, uint32_t slot) {
  const Node& node = slab_[slot];
  (node.prev == kNil ? fifo.head : slab_[node.prev].next) = node.next;
  (node.next == kNil ? fifo.tail : slab_[node.next].prev) = node.prev;
  --fifo.count;
}

template <typename Core>
void S3FifoRegions<Core>::UnlinkLocked(size_t s, uint32_t slot) {
  Shard& shard = shards_[s];
  Unlink(slab_[slot].where == Where::kSmall ? shard.small_fifo
                                            : shard.main_fifo,
         slot);
  FreeSlot(s, slot);
}

template <typename Core>
uint32_t S3FifoRegions<Core>::AllocSlot(size_t s) {
  Shard& shard = shards_[s];
  if (shard.free_head != kNil) {
    const uint32_t slot = shard.free_head;
    shard.free_head = slab_[slot].next;
    return slot;
  }
  QDLP_DCHECK(shard.slab_used < core_.shard_capacity(s));
  return static_cast<uint32_t>(core_.shard_base(s) + shard.slab_used++);
}

template <typename Core>
void S3FifoRegions<Core>::FreeSlot(size_t s, uint32_t slot) {
  Shard& shard = shards_[s];
  slab_[slot].next = shard.free_head;
  shard.free_head = slot;
}

template <typename Core>
void S3FifoRegions<Core>::EvictSmall(size_t s) {
  Shard& shard = shards_[s];
  const uint32_t slot = PopFront(shard.small_fifo);
  Node& node = slab_[slot];
  if (node.freq.load(std::memory_order_relaxed) >= 1) {
    // Quick-demotion survivor: promote to main with frequency reset. The
    // index maps id -> slab slot, which does not change — no index write.
    node.where = Where::kMain;
    node.freq.store(0, std::memory_order_relaxed);
    PushBack(shard.main_fifo, slot);
    core_.Count(ConcurrentStatsCounters::kPromotions, node.id);
    return;
  }
  // The victim's entry becomes its ghost record before the slot is
  // recycled: readers stop finding the victim first. A racing reader that
  // already fetched the slot at worst bumps the successor's frequency
  // once — benign.
  shard.ghost.Push(core_, node.id);
  FreeSlot(s, slot);
  core_.Count(ConcurrentStatsCounters::kDemotions, node.id);
  core_.Count(ConcurrentStatsCounters::kEvictions, node.id);
}

template <typename Core>
void S3FifoRegions<Core>::EvictMain(size_t s) {
  Shard& shard = shards_[s];
  while (true) {
    const uint32_t slot = PopFront(shard.main_fifo);
    Node& node = slab_[slot];
    const uint8_t freq = node.freq.load(std::memory_order_relaxed);
    if (freq > 0) {
      node.freq.store(freq - 1, std::memory_order_relaxed);
      PushBack(shard.main_fifo, slot);
      core_.Count(ConcurrentStatsCounters::kPromotions, node.id);
      continue;
    }
    core_.index.Erase(node.id);
    FreeSlot(s, slot);
    core_.Count(ConcurrentStatsCounters::kEvictions, node.id);
    return;
  }
}

template <typename Core>
bool S3FifoRegions<Core>::EvictOneLocked(size_t s) {
  const Shard& shard = shards_[s];
  if (shard.small_fifo.count > 0 &&
      (shard.small_fifo.count >= shard.small_capacity ||
       shard.main_fifo.count == 0)) {
    EvictSmall(s);
  } else if (shard.main_fifo.count > 0) {
    EvictMain(s);
  } else {
    return false;
  }
  return true;
}

template <typename Core>
void S3FifoRegions<Core>::AdmitLocked(size_t s, ObjectId id, uint32_t entry) {
  Shard& shard = shards_[s];
  // Room first, as RefS3Fifo::Access does: its quick demotions can push
  // this id's own ghost record out, so the ghost is consulted after. The
  // shard overflows its capacity share, never the global capacity:
  // remainder-distributed shares sum exactly to it (eviction_domains.h).
  while (shard.small_fifo.count + shard.main_fifo.count >=
         core_.shard_capacity(s)) {
    EvictOneLocked(s);
  }
  const bool ghost_hit = entry != StripedAtomicIndex::kNoEntry &&
                         shard.ghost.Holds(entry, id);
  const uint32_t slot = AllocSlot(s);
  Node& node = slab_[slot];
  node.id = id;
  node.freq.store(0, std::memory_order_relaxed);
  if (ghost_hit) {
    shard.ghost.Consume(entry);
    node.where = Where::kMain;
    PushBack(shard.main_fifo, slot);
    core_.Count(ConcurrentStatsCounters::kGhostHits, id);
    core_.index.Update(id, slot);
  } else {
    // Cold, or its ghost record was pushed out (and unindexed) above.
    node.where = Where::kSmall;
    PushBack(shard.small_fifo, slot);
    core_.index.Insert(id, slot);
  }
}

extern template class S3FifoRegions<DomainCore>;
extern template class DomainCache<S3FifoRegions<DomainCore>>;

class ConcurrentS3FifoCache
    : public DomainCache<S3FifoRegions<DomainCore>> {
 public:
  // `num_stripes` sizes the lock-free index's striping; `num_shards` the
  // eviction domains (rounded/clamped by DomainCore). The index gets
  // max(num_stripes, shard count) stripes so every domain owns a disjoint
  // stripe set (see eviction_domains.h).
  explicit ConcurrentS3FifoCache(size_t capacity, size_t num_stripes = 16,
                                 size_t num_shards = 1,
                                 QdlpValueOptions values = {});

  std::string_view name() const override { return "concurrent-s3fifo"; }
};

}  // namespace qdlp

#endif  // QDLP_SRC_CONCURRENT_CONCURRENT_S3FIFO_H_
