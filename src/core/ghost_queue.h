// Metadata-only ghost FIFO queue (§4, Fig 4).
//
// Remembers the ids of objects recently evicted from the probationary FIFO.
// A miss that hits the ghost is evidence the object was demoted too quickly,
// so the QD wrapper admits it straight into the main cache. Entries cost a
// few bytes each (no data), matching the paper's "ghost FIFO stores as many
// entries as the main cache".
//
// Backed by a slab intrusive FIFO plus an id index; refreshing an id is an
// O(1) splice to the queue tail and consuming one is an O(1) unlink, so
// there are no stale records to skip while trimming. The flash model keeps
// its ghost here; the FIFO designs and the qd-<base> wrapper (QdCache)
// keep theirs in their id index instead (IndexedGhost,
// src/concurrent/eviction_domains.h).

#ifndef QDLP_SRC_CORE_GHOST_QUEUE_H_
#define QDLP_SRC_CORE_GHOST_QUEUE_H_

#include <cstddef>
#include <cstdint>

#include "src/trace/trace.h"
#include "src/util/check.h"
#include "src/util/flat_map.h"
#include "src/util/intrusive_list.h"

namespace qdlp {

class GhostQueue {
 public:
  // A capacity of 0 is a valid degenerate queue: it remembers nothing, every
  // Insert is dropped and every Consume misses (QD with no history).
  explicit GhostQueue(size_t capacity) : capacity_(capacity) {
    fifo_.Reserve(capacity);
    live_.Reserve(capacity);
  }

  // Records an eviction. Re-recording an id refreshes its position.
  void Insert(ObjectId id) {
    if (capacity_ == 0) {
      return;
    }
    uint32_t* slot = live_.Find(id);
    if (slot != nullptr) {
      fifo_.MoveToBack(*slot);  // refresh: re-recorded ids age from now
      return;
    }
    while (live_.size() >= capacity_) {
      const uint32_t oldest_slot = fifo_.front();
      const ObjectId oldest = fifo_[oldest_slot];
      fifo_.Erase(oldest_slot);
      live_.Erase(oldest);
    }
    live_[id] = fifo_.PushBack(id);
  }

  // Tests membership and, when present, removes the entry (each ghost hit is
  // consumed, per Fig 4's "unless it is in the ghost FIFO queue").
  bool Consume(ObjectId id) {
    const uint32_t* slot = live_.Find(id);
    if (slot == nullptr) {
      return false;
    }
    fifo_.Erase(*slot);
    live_.Erase(id);
    return true;
  }

  bool Contains(ObjectId id) const { return live_.Contains(id); }
  size_t size() const { return live_.size(); }
  size_t capacity() const { return capacity_; }

  // Invokes `fn(ObjectId)` for every live ghost entry, in no particular
  // order. Used by invariant checks (ghost/resident disjointness).
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    fifo_.ForEach([&](uint32_t slot, ObjectId id) {
      (void)slot;
      fn(id);
    });
  }

  // Validates internal bookkeeping: the live set never exceeds capacity and
  // the FIFO and index hold exactly the same ids.
  void CheckInvariants() const {
    QDLP_CHECK(live_.size() <= capacity_);
    QDLP_CHECK(fifo_.size() == live_.size());
    fifo_.ForEach([&](uint32_t slot, ObjectId id) {
      const uint32_t* indexed = live_.Find(id);
      QDLP_CHECK(indexed != nullptr);
      QDLP_CHECK(*indexed == slot);
    });
    fifo_.CheckInvariants();
    live_.CheckInvariants();
  }

  size_t ApproxMetadataBytes() const {
    return fifo_.MemoryBytes() + live_.MemoryBytes();
  }

 private:
  size_t capacity_;
  IntrusiveList<ObjectId> fifo_;  // front = oldest
  FlatMap<uint32_t> live_;        // id -> fifo slot
};

}  // namespace qdlp

#endif  // QDLP_SRC_CORE_GHOST_QUEUE_H_
