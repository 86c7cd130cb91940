#include "src/concurrent/concurrent_s3fifo.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace qdlp {

namespace {

// S3FifoPolicy's sizing rules, applied per shard to its capacity share so
// a one-shard cache reproduces the sequential splits exactly.
size_t SmallCapacityFor(size_t share, double small_fraction) {
  const size_t small = std::max<size_t>(
      1, static_cast<size_t>(std::llround(static_cast<double>(share) *
                                          small_fraction)));
  return std::min(small, share);
}

size_t GhostCapacityFor(size_t share, double ghost_factor) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::llround(static_cast<double>(share) *
                                          ghost_factor)));
}

}  // namespace

S3FifoRegions::S3FifoRegions(DomainCore& core, double small_fraction,
                             double ghost_factor)
    : core_(core), slab_(core.domains.capacity()) {
  QDLP_CHECK(small_fraction > 0.0 && small_fraction < 1.0);
  shards_.reserve(core.domains.num_shards());
  for (size_t s = 0; s < core.domains.num_shards(); ++s) {
    const size_t share = core.domains.shard(s).capacity;
    shards_.emplace_back(SmallCapacityFor(share, small_fraction),
                         GhostCapacityFor(share, ghost_factor));
  }
}

void S3FifoRegions::FillOccupancy(size_t s, CacheStats* stats) const {
  const Shard& shard = shards_[s];
  stats->probation_size += shard.small_fifo.count;
  stats->main_size += shard.main_fifo.count;
  stats->ghost_size += shard.ghost.size();
}

size_t S3FifoRegions::CheckShardLocked(size_t s) const {
  const EvictionDomain& domain = core_.domains.shard(s);
  const Shard& shard = shards_[s];
  const size_t resident = shard.small_fifo.count + shard.main_fifo.count;
  QDLP_CHECK(resident <= domain.capacity);
  QDLP_CHECK(shard.slab_used <= domain.capacity);
  // Walk both FIFOs: link structure must be consistent with the counts,
  // tags, region bounds, and the index.
  for (const Fifo* fifo : {&shard.small_fifo, &shard.main_fifo}) {
    const Where expect =
        fifo == &shard.small_fifo ? Where::kSmall : Where::kMain;
    size_t count = 0;
    uint32_t slot = fifo->head;
    uint32_t last = kNil;
    while (slot != kNil) {
      QDLP_CHECK(slot >= domain.base);
      QDLP_CHECK(slot < domain.base + shard.slab_used);
      const Node& node = slab_[slot];
      QDLP_CHECK(node.where == expect);
      QDLP_CHECK(node.freq.load(std::memory_order_relaxed) <= kMaxFreq);
      QDLP_CHECK(core_.domains.ShardOf(node.id) == s);
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
  // Ghost entries are evicted history; none may still be resident.
  shard.ghost.ForEachLive(
      [&](ObjectId id) { QDLP_CHECK(!core_.index.Contains(id)); });
  shard.ghost.CheckInvariants();
  return resident;
}

size_t S3FifoRegions::MemoryBytes() const {
  size_t bytes = slab_.capacity() * sizeof(Node);
  for (const Shard& shard : shards_) {
    bytes += sizeof(Shard) + shard.ghost.ApproxMetadataBytes();
  }
  return bytes;
}

void S3FifoRegions::PushBack(Fifo& fifo, uint32_t slot) {
  slab_[slot].next = kNil;
  if (fifo.tail == kNil) {
    fifo.head = slot;
  } else {
    slab_[fifo.tail].next = slot;
  }
  fifo.tail = slot;
  ++fifo.count;
}

uint32_t S3FifoRegions::PopFront(Fifo& fifo) {
  QDLP_DCHECK(fifo.head != kNil);
  const uint32_t slot = fifo.head;
  fifo.head = slab_[slot].next;
  if (fifo.head == kNil) {
    fifo.tail = kNil;
  }
  --fifo.count;
  return slot;
}

void S3FifoRegions::Unlink(Fifo& fifo, uint32_t slot) {
  uint32_t prev = kNil;
  uint32_t walk = fifo.head;
  while (walk != slot) {
    QDLP_DCHECK(walk != kNil);
    prev = walk;
    walk = slab_[walk].next;
  }
  if (prev == kNil) {
    fifo.head = slab_[slot].next;
  } else {
    slab_[prev].next = slab_[slot].next;
  }
  if (fifo.tail == slot) {
    fifo.tail = prev;
  }
  --fifo.count;
}

void S3FifoRegions::UnlinkLocked(size_t s, uint32_t slot) {
  Shard& shard = shards_[s];
  Unlink(slab_[slot].where == Where::kSmall ? shard.small_fifo
                                            : shard.main_fifo,
         slot);
  FreeSlot(s, slot);
}

uint32_t S3FifoRegions::AllocSlot(size_t s) {
  Shard& shard = shards_[s];
  if (shard.free_head != kNil) {
    const uint32_t slot = shard.free_head;
    shard.free_head = slab_[slot].next;
    return slot;
  }
  const EvictionDomain& domain = core_.domains.shard(s);
  QDLP_DCHECK(shard.slab_used < domain.capacity);
  return static_cast<uint32_t>(domain.base + shard.slab_used++);
}

void S3FifoRegions::FreeSlot(size_t s, uint32_t slot) {
  Shard& shard = shards_[s];
  slab_[slot].next = shard.free_head;
  shard.free_head = slot;
}

void S3FifoRegions::EvictSmall(size_t s) {
  Shard& shard = shards_[s];
  const uint32_t slot = PopFront(shard.small_fifo);
  Node& node = slab_[slot];
  if (node.freq.load(std::memory_order_relaxed) >= 1) {
    // Quick-demotion survivor: promote to main with frequency reset. The
    // index maps id -> slab slot, which does not change — no index write.
    node.where = Where::kMain;
    node.freq.store(0, std::memory_order_relaxed);
    PushBack(shard.main_fifo, slot);
    core_.counters.Add(ConcurrentStatsCounters::kPromotions);
    return;
  }
  // Erase from the index before recycling the slot: readers stop finding
  // the victim first. A racing reader that already fetched the slot at
  // worst bumps the successor's frequency once — benign.
  core_.index.Erase(node.id);
  shard.ghost.Insert(node.id);
  FreeSlot(s, slot);
  core_.counters.Add(ConcurrentStatsCounters::kDemotions);
  core_.CountEviction(s);
}

void S3FifoRegions::EvictMain(size_t s) {
  Shard& shard = shards_[s];
  while (true) {
    const uint32_t slot = PopFront(shard.main_fifo);
    Node& node = slab_[slot];
    const uint8_t freq = node.freq.load(std::memory_order_relaxed);
    if (freq > 0) {
      node.freq.store(freq - 1, std::memory_order_relaxed);
      PushBack(shard.main_fifo, slot);
      core_.counters.Add(ConcurrentStatsCounters::kPromotions);
      continue;
    }
    core_.index.Erase(node.id);
    FreeSlot(s, slot);
    core_.CountEviction(s);
    return;
  }
}

void S3FifoRegions::MakeRoom(size_t s) {
  const EvictionDomain& domain = core_.domains.shard(s);
  Shard& shard = shards_[s];
  // The shard overflows its capacity share, never the global capacity:
  // remainder-distributed shares sum exactly to it (eviction_domains.h).
  while (shard.small_fifo.count + shard.main_fifo.count >= domain.capacity) {
    if (shard.small_fifo.count > 0 &&
        (shard.small_fifo.count >= shard.small_capacity ||
         shard.main_fifo.count == 0)) {
      EvictSmall(s);
    } else {
      EvictMain(s);
    }
  }
}

void S3FifoRegions::AdmitLocked(size_t s, ObjectId id) {
  Shard& shard = shards_[s];
  MakeRoom(s);
  const uint32_t slot = AllocSlot(s);
  Node& node = slab_[slot];
  node.id = id;
  node.freq.store(0, std::memory_order_relaxed);
  if (shard.ghost.Consume(id)) {
    node.where = Where::kMain;
    PushBack(shard.main_fifo, slot);
    core_.counters.Add(ConcurrentStatsCounters::kGhostHits);
  } else {
    node.where = Where::kSmall;
    PushBack(shard.small_fifo, slot);
  }
  core_.index.Insert(id, slot);
}

template class DomainCache<S3FifoRegions>;

ConcurrentS3FifoCache::ConcurrentS3FifoCache(size_t capacity,
                                             double small_fraction,
                                             double ghost_factor,
                                             size_t num_stripes,
                                             size_t num_shards)
    : DomainCache(capacity, num_stripes, num_shards,
                  /*min_capacity_per_shard=*/1, small_fraction,
                  ghost_factor) {}

}  // namespace qdlp
