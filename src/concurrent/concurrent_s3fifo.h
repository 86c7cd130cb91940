// Thread-safe S3-FIFO: lock-free hit path, sharded eviction domains.
//
// S3-FIFO was designed for exactly this: hits touch only a per-object
// atomic frequency counter (no queue reordering ever), so the hot path is
// one probe of the striped atomic index (striped_index.h) plus one relaxed
// RMW — no shared_mutex, no reader registration. All queue surgery
// (admission, small->main promotion, ghost bookkeeping) happens on the
// miss path, which is partitioned into S hash-selected eviction domains
// (eviction_domains.h): each domain owns a slab region, its own
// small/main FIFOs and ghost, one mutex, and BP-Wrapper insert buffers.
// Contended misses buffer their id into the home domain's MPSC rings and
// return; the next holder drains the batch under its single acquisition,
// then makes one helping pass over backlogged foreign domains.
// DomainCache implements that protocol; S3FifoRegions below is the queues.
//
// Storage is one fixed slab of nodes (no per-object allocation),
// partitioned by shard: the FIFOs are intrusive singly-linked lists
// threaded through slab slots, and the index maps id -> global slab slot,
// which is stable across queue movement — promotion and main-queue
// reinsertion never touch the index at all.
//
// Single-threaded with num_shards == 1 (the default), this class is
// semantically identical to S3FifoPolicy (same queues, same ghost, same
// frequency rules) — the unit tests replay traces through both and
// require identical hit/miss sequences. With more shards each domain is
// an independent S3-FIFO over its hash partition, still deterministic
// single-threaded.

#ifndef QDLP_SRC_CONCURRENT_CONCURRENT_S3FIFO_H_
#define QDLP_SRC_CONCURRENT_CONCURRENT_S3FIFO_H_

#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/concurrent/eviction_domains.h"
#include "src/core/ghost_queue.h"

namespace qdlp {

// Small and main FIFOs plus a ghost per shard; index values are global
// slab slots.
class S3FifoRegions {
 public:
  S3FifoRegions(DomainCore& core, double small_fraction, double ghost_factor);

  void Touch(uint32_t slot) {
    std::atomic<uint8_t>& freq = slab_[slot].freq;
    const uint8_t current = freq.load(std::memory_order_relaxed);
    if (current < kMaxFreq) {
      freq.store(current + 1, std::memory_order_relaxed);
    }
  }
  void AdmitLocked(size_t s, ObjectId id);
  // O(queue length) for the singly-linked FIFO walk.
  void UnlinkLocked(size_t s, uint32_t slot);
  void FillOccupancy(size_t s, CacheStats* stats) const;
  size_t CheckShardLocked(size_t s) const;
  void CheckSharedLocked() const {}
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
    uint32_t next = kNil;  // intrusive FIFO / freelist link
  };

  // Intrusive FIFO over slab slots.
  struct Fifo {
    uint32_t head = kNil;
    uint32_t tail = kNil;
    size_t count = 0;
  };

  // Per-shard queue state, guarded by the shard's mutex. The shard's slab
  // region is its EvictionDomain's slab_[base, base + capacity);
  // `slab_used` is a local bump offset within it and `free_head` a
  // freelist of recycled region slots.
  struct alignas(64) Shard {
    Shard(size_t small_capacity, size_t ghost_capacity)
        : small_capacity(small_capacity), ghost(ghost_capacity) {}

    Fifo small_fifo;
    Fifo main_fifo;
    uint32_t free_head = kNil;
    size_t slab_used = 0;
    size_t small_capacity;  // small-queue target within the share
    GhostQueue ghost;
  };

  void PushBack(Fifo& fifo, uint32_t slot);
  uint32_t PopFront(Fifo& fifo);
  // Unlinks `slot` from anywhere in the FIFO (predecessor walk).
  void Unlink(Fifo& fifo, uint32_t slot);

  // All of the below run under the shard's mutex.
  uint32_t AllocSlot(size_t s);
  void FreeSlot(size_t s, uint32_t slot);
  void EvictSmall(size_t s);
  void EvictMain(size_t s);
  void MakeRoom(size_t s);

  DomainCore& core_;
  std::vector<Node> slab_;  // fixed node storage, partitioned by shard
  std::vector<Shard> shards_;
};

extern template class DomainCache<S3FifoRegions>;

class ConcurrentS3FifoCache : public DomainCache<S3FifoRegions> {
 public:
  // `num_stripes` sizes the lock-free index's striping; `num_shards` the
  // eviction domains (rounded/clamped by EvictionDomains). The index gets
  // max(num_stripes, shard count) stripes so every domain owns a disjoint
  // stripe set (see eviction_domains.h).
  ConcurrentS3FifoCache(size_t capacity, double small_fraction = 0.10,
                        double ghost_factor = 0.9, size_t num_stripes = 16,
                        size_t num_shards = 1);

  std::string_view name() const override { return "concurrent-s3fifo"; }
};

}  // namespace qdlp

#endif  // QDLP_SRC_CONCURRENT_CONCURRENT_S3FIFO_H_
