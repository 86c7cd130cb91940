// Striped telemetry counters for the concurrent caches.
//
// The concurrent hit paths are lock-free by design (one striped-index probe
// plus one relaxed RMW); always-on stats must not reintroduce a shared
// contended cache line. Counters are therefore striped into cache-line-sized
// cells indexed by the process-wide thread ordinal (util/thread_ordinal.h).
// Live threads hold distinct ordinals and an exiting thread's ordinal is
// recycled, so each of the first kCells *live* threads owns a cell
// exclusively and its increments compile to a plain load/add/store of a
// relaxed atomic (no lock prefix, no line ping-pong). A thread that
// inherits an exited thread's ordinal inherits its cell, and the ordinal
// hand-off orders the old owner's last store before the new owner's first
// load, so no increment is lost. Threads beyond kCells live ones share one
// overflow cell through fetch_add — still relaxed, still wait-free.
// Because ordinals are returned by a destructor at thread exit, no cache
// may be called from a thread_local destructor.
//
// Snapshot() sums the cells with relaxed loads. Individual counters are
// exact (every increment lands); cross-counter relations are only exact at
// quiescent points, since a reader can observe a miss that has been counted
// whose admission has not happened yet (it may sit in an insert buffer).

#ifndef QDLP_SRC_OBS_CONCURRENT_COUNTERS_H_
#define QDLP_SRC_OBS_CONCURRENT_COUNTERS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/obs/cache_stats.h"
#include "src/util/thread_ordinal.h"

namespace qdlp {

class ConcurrentStatsCounters {
 public:
  enum Counter : size_t {
    kHits = 0,
    kMisses,
    kInserts,
    kEvictions,
    kPromotions,
    kDemotions,
    kGhostHits,
    // Miss-path contention telemetry (sharded eviction domains).
    kLockAcquisitions,
    kLockFailures,
    kBufferDrops,
    kDrainBatchLe8,
    kDrainBatchLe64,
    kDrainBatchGt64,
    kNumCounters,
  };

  ConcurrentStatsCounters() : cells_(kCells + 1) {}

  void Add(Counter which) {
    const uint32_t ordinal = ThreadOrdinal();
    if (ordinal < kCells) {
      // Exclusive cell: no other live thread holds this ordinal, so no
      // other thread writes this line. A relaxed load+store is one plain
      // add.
      std::atomic<uint64_t>& counter = cells_[ordinal].v[which];
      counter.store(counter.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
    } else {
      // More live threads than exclusive cells: the overflow cell, shared,
      // so an atomic RMW (never a cell some owner updates with plain
      // stores, which would lose increments).
      cells_[kCells].v[which].fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Sums the flow counters into a CacheStats (occupancy fields left 0 for
  // the owning cache to fill). requests = hits + misses.
  CacheStats Snapshot() const {
    CacheStats stats;
    for (const Cell& cell : cells_) {
      stats.hits += cell.v[kHits].load(std::memory_order_relaxed);
      stats.misses += cell.v[kMisses].load(std::memory_order_relaxed);
      stats.inserts += cell.v[kInserts].load(std::memory_order_relaxed);
      stats.evictions += cell.v[kEvictions].load(std::memory_order_relaxed);
      stats.promotions += cell.v[kPromotions].load(std::memory_order_relaxed);
      stats.demotions += cell.v[kDemotions].load(std::memory_order_relaxed);
      stats.ghost_hits += cell.v[kGhostHits].load(std::memory_order_relaxed);
      stats.lock_acquisitions +=
          cell.v[kLockAcquisitions].load(std::memory_order_relaxed);
      stats.lock_failures +=
          cell.v[kLockFailures].load(std::memory_order_relaxed);
      stats.buffer_drops +=
          cell.v[kBufferDrops].load(std::memory_order_relaxed);
      stats.drain_batch_le8 +=
          cell.v[kDrainBatchLe8].load(std::memory_order_relaxed);
      stats.drain_batch_le64 +=
          cell.v[kDrainBatchLe64].load(std::memory_order_relaxed);
      stats.drain_batch_gt64 +=
          cell.v[kDrainBatchGt64].load(std::memory_order_relaxed);
    }
    stats.requests = stats.hits + stats.misses;
    return stats;
  }

  // Buckets a non-empty drain's batch size into the histogram counters.
  void AddDrainBatch(size_t drained) {
    if (drained == 0) {
      return;
    }
    Add(drained <= 8 ? kDrainBatchLe8
                     : drained <= 64 ? kDrainBatchLe64 : kDrainBatchGt64);
  }

  size_t MemoryBytes() const { return cells_.size() * sizeof(Cell); }

 private:
  // 64 exclusive cells: covers every realistic live thread count, in 8 KiB
  // per cache, plus the overflow cell.
  static constexpr size_t kCells = 64;

  // Two cache lines per cell since the contention counters joined (13 x 8
  // bytes); a cell is still exclusively owned by one live thread ordinal,
  // so the no-ping-pong property is what matters, not the line count.
  struct alignas(128) Cell {
    std::atomic<uint64_t> v[kNumCounters] = {};
  };
  static_assert(sizeof(std::atomic<uint64_t>) * kNumCounters <= 128,
                "a cell must fit its alignment block");

  std::vector<Cell> cells_;
};

}  // namespace qdlp

#endif  // QDLP_SRC_OBS_CONCURRENT_COUNTERS_H_
