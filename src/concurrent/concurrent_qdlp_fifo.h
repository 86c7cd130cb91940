// QD-LP-FIFO — the paper's headline construction (§4, Fig 4) — as a
// thread-safe cache with a truly lock-free hit path and sharded eviction
// domains.
//
// The paper's layout (a probationary FIFO, a ghost and a 2-bit CLOCK),
// partitioned into S hash-selected eviction domains (eviction_domains.h):
//
//   probation  — per shard, a small FIFO (10% of the shard's capacity
//                share) over stable slots; a hit sets one per-entry
//                accessed bit
//   main       — per shard, a region of the 2-bit CLOCK ring that
//                ConcurrentClockCache also uses (clock_ring.h), over the
//                share's remainder
//   ghost      — per shard, an IndexedGhost (eviction_domains.h):
//                metadata-only memory of quick-demoted ids, as large as
//                the shard's main region, kept as ghost records in the
//                index itself
//
// One striped atomic index (striped_index.h) maps id -> GLOBAL location,
// a probation position or a main slot in one range, or a ghost position; a
// hit is one lock-free probe plus a single relaxed store (the accessed
// bit) or relaxed RMW (the CLOCK counter) — lazy promotion's "at most one
// metadata update, no locking" made literal, and entirely shard-oblivious.
// A miss's one locked probe also tells a ghost hit from a cold miss, and a
// lazy promotion, a quick demotion or a ghost resurrection rewrites the
// id's entry in place. Misses serialize behind the id's home-domain mutex
// through the DomainCache protocol the other lock-free caches share, so
// misses to different domains admit and evict fully in parallel.
//
// QdLpRegions is the one QD-LP-FIFO: over the serial core it is also
// MakePolicy("qd-lp-fifo") and the sweep lane's dense variant
// (src/core/regions_policy.h). Driven from a single thread with
// num_shards == 1 (the default) this cache makes the same decisions as
// that policy; the oracle differential tests pin both against the
// sequential reference model, with and without removals. With more shards
// each domain is an independent QD-LP-FIFO over its hash partition, pinned
// against per-shard sequential references.

#ifndef QDLP_SRC_CONCURRENT_CONCURRENT_QDLP_FIFO_H_
#define QDLP_SRC_CONCURRENT_CONCURRENT_QDLP_FIFO_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/concurrent/clock_ring.h"
#include "src/concurrent/eviction_domains.h"
#include "src/util/check.h"
#include "src/util/intrusive_list.h"

namespace qdlp {

// Probation FIFO, main CLOCK region and ghost per shard. In Stats,
// promotions counts probation->main lazy promotions and demotions
// probation->ghost quick demotions; main CLOCK laps reach only the core's
// Lap hook (an AccessEventSink's OnLap on the serial core).
//
// Locations are one range, [0, capacity): every shard's probation
// positions first, [0, probation_capacity()), then the main ring's slots,
// main slot i at probation_capacity() + i. The index's ghost tag (bit 30)
// marks a ghost position instead.
template <typename Core>
class QdLpRegions {
 public:
  explicit QdLpRegions(Core& core);

  // The ghost is as large as the main region (factor 1.0).
  static size_t GhostCapacity(size_t share);

  void Touch(uint32_t value) {
    if (value >= main_base_) {
      main_.Touch(value - main_base_);
    } else {
      // Racing with a quick demotion or removal that recycles this probation
      // slot, the bit can land on the slot's next occupant — one spurious
      // promotion candidate, never a correctness issue.
      accessed_[value].store(1, std::memory_order_relaxed);
    }
  }
  void AdmitLocked(size_t s, ObjectId id, uint32_t entry);
  // Probation's oldest entry (demoted or promoted) first, else the main
  // hand's victim, whose slot the next main admission reuses.
  bool EvictOneLocked(size_t s);
  // O(1) in either region.
  void UnlinkLocked(size_t s, uint32_t value);
  void FillOccupancy(size_t s, CacheStats* stats) const;
  size_t CheckShardLocked(size_t s) const;
  size_t MemoryBytes() const;

  size_t probation_capacity() const { return main_base_; }
  size_t main_capacity() const { return main_capacity_; }

 private:
  static constexpr uint8_t kMaxCounter = 3;  // 2-bit CLOCK

  // Per-shard probation FIFO and ghost, guarded by the shard's mutex. The
  // shard owns probation positions [probation_base, probation_base +
  // probation_capacity) and main region s: the entry in list slot i sits at
  // position probation_base + i, which is its index value.
  struct alignas(64) Shard {
    Shard(size_t probation_base, size_t probation_capacity,
          size_t ghost_base, size_t ghost_capacity)
        : probation_base(probation_base),
          probation_capacity(probation_capacity),
          ghost(ghost_base, ghost_capacity) {
      probation.Reserve(probation_capacity);
    }

    size_t probation_base;
    size_t probation_capacity;
    IntrusiveList<ObjectId> probation;  // front = oldest
    IndexedGhost ghost;
  };

  static std::vector<size_t> MainCapacities(const Core& core);

  // All of the below run under the shard's mutex.
  // Pushes `id` into the shard's probation, quick-demoting / lazily
  // promoting the oldest entries as needed to make room.
  void AdmitToProbation(size_t s, ObjectId id);
  // Evicts the shard's oldest probationary entry: accessed -> main (lazy
  // promotion), untouched -> ghost (quick demotion).
  void EvictFromProbation(size_t s);
  // Moves indexed `id` into the shard's main CLOCK region, evicting if
  // full; its entry keeps its old location until the main slot is taken.
  void MainInsert(size_t s, ObjectId id);
  // Evicts the object under the main hand. Main evictions leave no ghost
  // trace (only probation demotions do).
  void EvictMain(size_t s);

  Core& core_;
  std::vector<Shard> shards_;
  // Accessed bits by probation position: the only probation state the
  // lock-free hit path writes.
  std::vector<std::atomic<uint8_t>> accessed_;
  size_t main_base_ = 0;  // the first main location: total probation
  size_t main_capacity_ = 0;
  ClockRing main_;  // region s is shard s's main CLOCK
};

// The paper's probation/main split: probation a fraction of the capacity
// (rounded, at least 1, at most capacity - 1), main the remainder. QD-LP-FIFO
// applies it per shard to the shard's capacity share, and MakeQdPolicy to
// every QD composition.
inline size_t QdProbationCapacity(size_t capacity,
                                  double probation_fraction = 0.10) {
  const size_t probation = std::max<size_t>(
      1, static_cast<size_t>(std::llround(static_cast<double>(capacity) *
                                          probation_fraction)));
  return std::min(probation, capacity - 1);
}

template <typename Core>
size_t QdLpRegions<Core>::GhostCapacity(size_t share) {
  return share - QdProbationCapacity(share);
}

template <typename Core>
std::vector<size_t> QdLpRegions<Core>::MainCapacities(const Core& core) {
  std::vector<size_t> capacities(core.num_shards());
  for (size_t s = 0; s < capacities.size(); ++s) {
    const size_t share = core.shard_capacity(s);
    capacities[s] = share - QdProbationCapacity(share);
  }
  return capacities;
}

template <typename Core>
QdLpRegions<Core>::QdLpRegions(Core& core)
    : core_(core), main_(MainCapacities(core), kMaxCounter) {
  const size_t shards = core.num_shards();
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    const size_t share = core.shard_capacity(s);
    QDLP_CHECK(share >= 2);  // a probation slot and a main slot
    const size_t probation = QdProbationCapacity(share);
    // Ghost positions follow the same layout as main slots: shard s's
    // start at the main capacity of the shards before it.
    shards_.emplace_back(main_base_, probation, main_capacity_,
                         GhostCapacity(share));
    main_base_ += probation;
    main_capacity_ += share - probation;
  }
  accessed_ = std::vector<std::atomic<uint8_t>>(main_base_);
}

template <typename Core>
void QdLpRegions<Core>::FillOccupancy(size_t s, CacheStats* stats) const {
  const Shard& shard = shards_[s];
  stats->probation_size += shard.probation.size();
  stats->main_size += main_.count(s);
  stats->ghost_size += shard.ghost.size();
}

template <typename Core>
size_t QdLpRegions<Core>::CheckShardLocked(size_t s) const {
  const Shard& shard = shards_[s];
  QDLP_CHECK(shard.probation.size() <= shard.probation_capacity);
  shard.probation.CheckInvariants();
  // Probation entries are indexed at their slot's global position.
  shard.probation.ForEach([&](uint32_t slot, ObjectId id) {
    uint32_t value;
    QDLP_CHECK(slot < shard.probation_capacity);
    QDLP_CHECK(core_.ShardOf(id) == s);
    QDLP_CHECK(core_.index.Find(id, &value));
    QDLP_CHECK(value == shard.probation_base + slot);
  });
  // Main ring entries are indexed at their slot's location, past probation.
  const size_t main = main_.CheckRegion(s, [&](ObjectId id, uint32_t slot) {
    uint32_t value;
    QDLP_CHECK(core_.ShardOf(id) == s);
    QDLP_CHECK(core_.index.Find(id, &value));
    QDLP_CHECK(value == main_base_ + slot);
  });
  // An object holds space in exactly one region; the disjoint location
  // ranges above prove probation/main disjointness (one index entry per
  // id). Ghost entries are history, never resident: they are indexed as
  // ghost records.
  shard.ghost.CheckLocked(core_, s);
  return shard.probation.size() + main;
}

template <typename Core>
size_t QdLpRegions<Core>::MemoryBytes() const {
  size_t bytes = accessed_.capacity() * sizeof(std::atomic<uint8_t>) +
                 main_.MemoryBytes();
  for (const Shard& shard : shards_) {
    bytes += sizeof(Shard) + shard.probation.MemoryBytes() +
             shard.ghost.MemoryBytes();
  }
  return bytes;
}

template <typename Core>
void QdLpRegions<Core>::AdmitLocked(size_t s, ObjectId id, uint32_t entry) {
  if (entry != StripedAtomicIndex::kNoEntry) {
    // A ghost record: quick-demoted once already, so admit straight into
    // the main cache.
    shards_[s].ghost.Consume(entry);
    core_.Count(ConcurrentStatsCounters::kGhostHits, id);
    MainInsert(s, id);
  } else {
    AdmitToProbation(s, id);
  }
}

template <typename Core>
void QdLpRegions<Core>::AdmitToProbation(size_t s, ObjectId id) {
  Shard& shard = shards_[s];
  while (shard.probation.size() >= shard.probation_capacity) {
    EvictFromProbation(s);
  }
  const uint32_t pos = static_cast<uint32_t>(shard.probation_base +
                                             shard.probation.PushBack(id));
  accessed_[pos].store(0, std::memory_order_relaxed);
  core_.index.Insert(id, pos);
}

template <typename Core>
void QdLpRegions<Core>::EvictFromProbation(size_t s) {
  Shard& shard = shards_[s];
  QDLP_DCHECK(!shard.probation.empty());
  const uint32_t slot = shard.probation.front();
  const uint32_t pos = static_cast<uint32_t>(shard.probation_base + slot);
  const ObjectId victim = shard.probation[slot];
  shard.probation.Erase(slot);
  const bool accessed = accessed_[pos].load(std::memory_order_relaxed) != 0;
  // Either way the victim's entry moves off `pos` in place before anything
  // can recycle the slot: readers stop finding the victim there first (a
  // racing reader at worst sets the next occupant's accessed bit).
  if (accessed) {
    // Lazy promotion: re-accessed while on probation -> main cache.
    core_.Count(ConcurrentStatsCounters::kPromotions, victim);
    MainInsert(s, victim);
    return;
  }
  // Quick demotion: one lap through the small FIFO was its only chance.
  // The victim's entry becomes its ghost record.
  shard.ghost.Push(core_, victim);
  core_.Count(ConcurrentStatsCounters::kDemotions, victim);
  core_.Count(ConcurrentStatsCounters::kEvictions, victim);
}

template <typename Core>
void QdLpRegions<Core>::MainInsert(size_t s, ObjectId id) {
  if (main_.full(s)) {
    EvictMain(s);
  }
  core_.index.Update(id,
                     static_cast<uint32_t>(main_base_ + main_.Take(s, id)));
}

template <typename Core>
void QdLpRegions<Core>::EvictMain(size_t s) {
  // Main CLOCK laps are not counted as promotions; the core sees each one.
  const uint32_t slot =
      main_.NextVictim(s, [&](ObjectId lapped) { core_.Lap(lapped); });
  const ObjectId victim = main_.id(slot);
  core_.index.Erase(victim);
  main_.Free(s, slot);
  core_.Count(ConcurrentStatsCounters::kEvictions, victim);
}

template <typename Core>
bool QdLpRegions<Core>::EvictOneLocked(size_t s) {
  if (!shards_[s].probation.empty()) {
    EvictFromProbation(s);
  } else if (main_.count(s) > 0) {
    EvictMain(s);
  } else {
    return false;
  }
  return true;
}

template <typename Core>
void QdLpRegions<Core>::UnlinkLocked(size_t s, uint32_t value) {
  if (value >= main_base_) {
    main_.Free(s, static_cast<uint32_t>(value - main_base_));
  } else {
    Shard& shard = shards_[s];
    shard.probation.Erase(static_cast<uint32_t>(value - shard.probation_base));
  }
}

extern template class QdLpRegions<DomainCore>;
extern template class DomainCache<QdLpRegions<DomainCore>>;

class ConcurrentQdLpFifo : public DomainCache<QdLpRegions<DomainCore>> {
 public:
  // Capacity is split per shard exactly as MakePolicy("qd-lp-fifo") splits
  // it: probation = clamp(round(0.10 * share), 1, share - 1), main the
  // rest, ghost as large as main. Requires capacity >= 2; shard counts
  // that would leave a share below 2 are halved (eviction_domains.h). The
  // index gets max(num_stripes, shard count) stripes so every domain owns
  // a disjoint stripe set.
  explicit ConcurrentQdLpFifo(size_t capacity, size_t num_stripes = 16,
                              size_t num_shards = 1,
                              QdlpValueOptions values = {});

  std::string_view name() const override { return "concurrent-qdlp-fifo"; }

  // Aggregate region capacities (sums over shards).
  size_t probation_capacity() const { return regions_.probation_capacity(); }
  size_t main_capacity() const { return regions_.main_capacity(); }
};

}  // namespace qdlp

#endif  // QDLP_SRC_CONCURRENT_CONCURRENT_QDLP_FIFO_H_
