// Bounded multi-producer ring buffers for batched (BP-Wrapper-style)
// insert buffering on the miss path.
//
// The lock-free caches serialize all structural mutation behind the
// mutex of the id's eviction domain (eviction_domains.h). Without
// buffering, every missing thread queues on that mutex and the miss path
// convoys. With buffering, a thread that fails a try_lock instead pushes
// the missed id into a small per-thread-striped MPSC ring and returns
// immediately; whichever thread next holds the mutex drains all rings and
// performs the batched admissions/evictions under the single
// acquisition. Lock hold time is amortized over the whole batch and
// Get() never blocks: when the rings are full AND the lock is held (which
// on an oversubscribed machine means the holder was preempted mid-drain),
// the admission is dropped rather than queued behind the sleeping holder —
// admission is best-effort under overload. Every such drop is counted in
// CacheStats::buffer_drops (quiescent single-threaded runs must report 0).
//
// MpscRing is the classic bounded sequence-number queue (Vyukov): each
// cell carries a sequence counter that encodes whether it is free for the
// producer at position `pos` (seq == pos) or holds a value for the
// consumer (seq == pos + 1). Producers claim positions with a CAS loop;
// the consumer — the eviction-lock holder, externally serialized — pops
// with plain loads plus a release store of the next-lap sequence.

#ifndef QDLP_SRC_CONCURRENT_MPSC_RING_H_
#define QDLP_SRC_CONCURRENT_MPSC_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/util/thread_ordinal.h"

#include "src/util/check.h"

namespace qdlp {

class MpscRing {
 public:
  // Capacity is rounded up to a power of two, minimum 4.
  explicit MpscRing(size_t capacity) {
    size_t slots = 4;
    while (slots < capacity) {
      slots *= 2;
    }
    mask_ = slots - 1;
    cells_ = std::make_unique<Cell[]>(slots);
    for (size_t i = 0; i < slots; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  // Multi-producer. Returns false when the ring is full.
  bool TryPush(uint64_t value) {
    uint64_t pos = tail_.load(std::memory_order_relaxed);
    while (true) {
      Cell& cell = cells_[pos & mask_];
      const uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const int64_t dif = static_cast<int64_t>(seq) - static_cast<int64_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.value = value;
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
        // pos was refreshed by the failed CAS; retry.
      } else if (dif < 0) {
        return false;  // full (consumer has not freed this lap yet)
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  // Single-consumer (callers must serialize, e.g. under the eviction
  // mutex). Returns false when empty.
  bool TryPop(uint64_t* value) {
    Cell& cell = cells_[head_ & mask_];
    const uint64_t seq = cell.seq.load(std::memory_order_acquire);
    if (static_cast<int64_t>(seq) - static_cast<int64_t>(head_ + 1) < 0) {
      return false;  // empty (or a producer has claimed but not published)
    }
    *value = cell.value;
    cell.seq.store(head_ + mask_ + 1, std::memory_order_release);
    ++head_;
    return true;
  }

  size_t slot_count() const { return mask_ + 1; }
  size_t MemoryBytes() const { return slot_count() * sizeof(Cell); }

 private:
  struct Cell {
    std::atomic<uint64_t> seq{0};
    uint64_t value = 0;
  };

  std::unique_ptr<Cell[]> cells_;
  uint64_t mask_ = 0;
  alignas(64) std::atomic<uint64_t> tail_{0};  // producers
  alignas(64) uint64_t head_ = 0;              // consumer (serialized)
};

// A bank of MPSC rings, one per thread stripe, padded apart by the rings'
// own alignas(64) head/tail fields.
class InsertBuffers {
 public:
  // Ring capacity is sized so a lock-holder preempted for a scheduler
  // timeslice does not overflow the buffers and force everyone else's
  // admissions to drop: 8 x 256 absorbs ~2k misses.
  explicit InsertBuffers(size_t num_rings = 8, size_t ring_capacity = 256) {
    QDLP_CHECK(num_rings >= 1);
    rings_.reserve(num_rings);
    for (size_t i = 0; i < num_rings; ++i) {
      rings_.push_back(std::make_unique<MpscRing>(ring_capacity));
    }
  }

  // Producer side: buffer a missed id. False when the stripe ring is full;
  // the caller then drops the admission rather than block.
  bool TryPush(uint64_t id) {
    return rings_[ThreadOrdinal() % rings_.size()]->TryPush(id);
  }

  // Consumer side (under the eviction mutex): drain every ring, invoking
  // fn(id) per buffered miss. Returns the number drained.
  template <typename Fn>
  size_t Drain(Fn&& fn) {
    size_t drained = 0;
    for (auto& ring : rings_) {
      uint64_t id;
      while (ring->TryPop(&id)) {
        fn(id);
        ++drained;
      }
    }
    return drained;
  }

  size_t MemoryBytes() const {
    size_t bytes = 0;
    for (const auto& ring : rings_) {
      bytes += ring->MemoryBytes();
    }
    return bytes;
  }

 private:
  std::vector<std::unique_ptr<MpscRing>> rings_;
};

}  // namespace qdlp

#endif  // QDLP_SRC_CONCURRENT_MPSC_RING_H_
