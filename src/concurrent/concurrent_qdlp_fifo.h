// QD-LP-FIFO — the paper's headline construction (§4, Fig 4) — as a
// thread-safe cache with a truly lock-free hit path and sharded eviction
// domains.
//
// Layout mirrors the sequential QdCache over a 2-bit CLOCK, partitioned
// into S hash-selected eviction domains (eviction_domains.h):
//
//   probation  — per shard, a small circular FIFO (10% of the shard's
//                capacity share); a hit sets one per-entry accessed bit
//   main       — per shard, a region of the 2-bit CLOCK ring that
//                ConcurrentClockCache also uses (clock_ring.h), over the
//                share's remainder
//   ghost      — per shard, a GhostQueue: metadata-only memory of
//                quick-demoted ids, as large as the shard's main region
//
// One striped atomic index (striped_index.h) maps id -> tagged GLOBAL
// location (probation position or main slot); a hit is one lock-free
// probe plus a single relaxed store (the accessed bit) or relaxed RMW
// (the CLOCK counter) — lazy promotion's "at most one metadata update, no
// locking" made literal, and entirely shard-oblivious. Misses — admission,
// quick demotion, ghost resurrection, CLOCK eviction — serialize behind
// the id's home-domain mutex with BP-Wrapper-style MPSC buffering, exactly
// the DomainCache protocol the other lock-free caches share, so misses to
// different domains admit and evict fully in parallel.
//
// Driven from a single thread with num_shards == 1 (the default) this
// class is request-for-request identical to MakePolicy("qd-lp-fifo") —
// the oracle differential tests pin it against the sequential reference
// model. With more shards each domain is an independent QD-LP-FIFO over
// its hash partition, pinned against per-shard sequential references.

#ifndef QDLP_SRC_CONCURRENT_CONCURRENT_QDLP_FIFO_H_
#define QDLP_SRC_CONCURRENT_CONCURRENT_QDLP_FIFO_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/concurrent/clock_ring.h"
#include "src/concurrent/eviction_domains.h"
#include "src/core/ghost_queue.h"
#include "src/store/slab_store.h"

namespace qdlp {

// Opt-in value storage (the qdlpd serving layer, docs/SERVER.md): with
// arena_bytes > 0 the cache owns a SlabStore whose cells are 1:1 with the
// metadata locations, giving GetValue/SetValue byte-serving semantics.
// With the default (0) the cache is metadata-only and the value paths are
// never compiled into Get().
struct QdlpValueOptions {
  size_t arena_bytes = 0;  // total value arena, split across the domains
  size_t max_value_len = 4u << 20;
};

// Probation FIFO, main CLOCK region and ghost per shard, plus the optional
// value store whose cells ride the metadata locations. In Stats,
// promotions counts probation->main lazy promotions and demotions
// probation->ghost quick demotions (main CLOCK laps are internal, as in
// the sequential QdCache).
class QdLpRegions {
 public:
  // Index value tag: high bit = main region, low 31 bits = global slot.
  static constexpr uint32_t kMainBit = 0x80000000u;

  QdLpRegions(DomainCore& core, const QdlpValueOptions& value_options);

  void Touch(uint32_t value) {
    if (value & kMainBit) {
      main_.Touch(value & ~kMainBit);
    } else {
      // Racing with a quick demotion that recycles this probation slot, the
      // bit can land on the slot's next occupant — one spurious promotion
      // candidate, never a correctness issue.
      probation_[value].accessed.store(1, std::memory_order_relaxed);
    }
  }
  void AdmitLocked(size_t s, ObjectId id);
  // A probation removal compacts the ring from the head side (<= probation
  // share moves); a main removal is O(1). Frees the value chunk.
  void UnlinkLocked(size_t s, uint32_t value);
  void FillOccupancy(size_t s, CacheStats* stats) const;
  size_t CheckShardLocked(size_t s) const;
  // With a value store: cell ownership and the arenas' own structure.
  void CheckSharedLocked() const;
  size_t MemoryBytes() const;

  // Frees value-arena space by evicting one object from shard s (probation
  // first); false if the shard holds nothing to evict.
  bool EvictForSpaceLocked(size_t s);

  // The value cell paired with an index value: probation positions map to
  // themselves, main slot i to probation_capacity() + i — one cell per
  // metadata location, [0, capacity).
  uint32_t CellOf(uint32_t index_value) const {
    return (index_value & kMainBit)
               ? static_cast<uint32_t>(probation_.size()) +
                     (index_value & ~kMainBit)
               : index_value;
  }

  SlabStore* store() const { return store_.get(); }
  size_t probation_capacity() const { return probation_.size(); }
  size_t main_capacity() const { return main_capacity_; }

 private:
  static constexpr uint8_t kMaxCounter = 3;  // 2-bit CLOCK
  // No prior value cell to move: the id is entering cache space fresh.
  static constexpr uint32_t kNoCell = 0xFFFFFFFFu;

  // Probation ring entry. Only `accessed` is touched by concurrent readers
  // (the lock-free hit path); `id` is written solely under the owning
  // shard's mutex.
  struct ProbationSlot {
    ObjectId id = 0;
    std::atomic<uint8_t> accessed{0};
  };

  // Per-shard probation ring and ghost, guarded by the shard's mutex. The
  // shard owns probation_[probation_base, probation_base +
  // probation_capacity) and main region s; head is a local offset.
  struct alignas(64) Shard {
    Shard(size_t probation_base, size_t probation_capacity,
          size_t ghost_capacity)
        : probation_base(probation_base),
          probation_capacity(probation_capacity),
          ghost(ghost_capacity) {}

    size_t probation_base;
    size_t probation_capacity;
    size_t probation_head = 0;  // oldest entry's local ring position
    size_t probation_count = 0;
    GhostQueue ghost;
  };

  // All of the below run under the shard's mutex.
  // Pushes `id` into the shard's probation, quick-demoting / lazily
  // promoting the oldest entries as needed to make room.
  void AdmitToProbation(size_t s, ObjectId id);
  // Evicts the shard's oldest probationary entry: accessed -> main (lazy
  // promotion), untouched -> ghost (quick demotion).
  void EvictFromProbation(size_t s);
  // Inserts `id` into the shard's main CLOCK region, evicting if full.
  // `from_cell` is the id's previous value cell (a lazy promotion moves
  // the value with the metadata) or kNoCell for a fresh admission.
  void MainInsert(size_t s, ObjectId id, uint32_t from_cell);
  // Evicts the object under the main hand. Main evictions leave no ghost
  // trace (only probation demotions do), matching the sequential QdCache.
  void EvictMain(size_t s);
  // Drops the value cell's chunk, if a store is attached.
  void ClearCell(uint32_t cell);

  DomainCore& core_;
  std::vector<Shard> shards_;
  std::vector<ProbationSlot> probation_;  // per-shard circular FIFOs
  size_t main_capacity_ = 0;
  ClockRing main_;  // region s is shard s's main CLOCK
  // Value store (qdlpd): cells 1:1 with metadata locations, arenas 1:1
  // with eviction domains. Null when metadata-only.
  std::unique_ptr<SlabStore> store_;
};

extern template class DomainCache<QdLpRegions>;

class ConcurrentQdLpFifo : public DomainCache<QdLpRegions> {
 public:
  enum class SetResult { kOk, kNoSpace, kTooLarge };

  // Capacity is split per shard exactly as MakePolicy("qd-lp-fifo") splits
  // it: probation = clamp(round(0.10 * share), 1, share - 1), main the
  // rest, ghost as large as main. Requires capacity >= 2; shard counts
  // that would leave a share below 2 are halved (eviction_domains.h). The
  // index gets max(num_stripes, shard count) stripes so every domain owns
  // a disjoint stripe set.
  explicit ConcurrentQdLpFifo(size_t capacity, size_t num_stripes = 16,
                              size_t num_shards = 1,
                              QdlpValueOptions value_options = {});

  // ---- Value path (requires QdlpValueOptions::arena_bytes > 0). ----
  //
  // GetValue is the serving read: a lock-free index probe, the same lazy-
  // promotion touch as Get() on success, and a seqlock value copy. It
  // NEVER admits — a GET carries no bytes to store, so a miss stays a miss
  // (counted) until the client SETs. An expired value counts as a miss and
  // lazily removes the object.
  bool GetValue(ObjectId id, uint64_t now_s, std::string* value);
  // SetValue is the serving write: under the home-domain mutex (blocking)
  // it allocates a chunk — evicting from this shard until the arena can
  // satisfy the request — admits the id if not resident (ghost
  // resurrection rules apply, counted as an insert but never as a miss:
  // the GET that preceded it already counted), and commits the bytes.
  // `expiry_s` is an absolute second (0 = never expires).
  SetResult SetValue(ObjectId id, std::string_view value, uint64_t expiry_s);

  // The attached value store, or nullptr when metadata-only.
  SlabStore* value_store() { return regions_.store(); }

  std::string_view name() const override { return "concurrent-qdlp-fifo"; }

  // Aggregate region capacities (sums over shards).
  size_t probation_capacity() const { return regions_.probation_capacity(); }
  size_t main_capacity() const { return regions_.main_capacity(); }
};

}  // namespace qdlp

#endif  // QDLP_SRC_CONCURRENT_CONCURRENT_QDLP_FIFO_H_
