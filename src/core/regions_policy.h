// The FIFO designs' single-threaded policies: an EvictionPolicy that runs
// the lock-free caches' Regions (ClockRegions, S3FifoRegions, QdLpRegions
// in src/concurrent/) on a serial core. DomainCache runs the very same
// Regions on its concurrent DomainCore, so each design has one
// implementation in every lane: MakePolicy's fifo-reinsertion / clock2 /
// clock3, s3fifo and qd-lp-fifo, the sweep lane's dense variants of them,
// and the lock-free caches.
//
// The policy is its Regions' core (the interface in eviction_domains.h):
// one shard spanning the whole capacity, with no mutex and no insert
// buffers. Its index is a TaggedIndex (tagged_index.h) over a FlatMap
// (MakePolicy) or, over dense-id traces, a DenseIndex (MakeDensePolicy),
// with the striped index's ghost-tag rules, so the ghosts live in it as
// they do in the lock-free caches' index and an access is one probe. Each
// count the Regions make becomes the matching Notify* event, so the
// counters and any AccessEventSink (Fig 3's residency accounting,
// TtlCache's reaper) see every insert, eviction, promotion, demotion and
// ghost hit as it happens. QD-LP-FIFO's main CLOCK laps reach the sink
// alone, as OnLap (the flash model prices them as re-appends).

#ifndef QDLP_SRC_CORE_REGIONS_POLICY_H_
#define QDLP_SRC_CORE_REGIONS_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "src/concurrent/concurrent_clock.h"
#include "src/concurrent/concurrent_qdlp_fifo.h"
#include "src/concurrent/concurrent_s3fifo.h"
#include "src/core/tagged_index.h"
#include "src/obs/concurrent_counters.h"
#include "src/policies/eviction_policy.h"
#include "src/util/check.h"
#include "src/util/dense_index.h"

namespace qdlp {

// Regions<RegionsPolicy> is a member of the class it names as its core, so
// the Regions may use the core's members only inside function bodies and
// nested classes, which are instantiated once this class is complete.
template <template <typename> class Regions, typename Factory>
class RegionsPolicy final : public EvictionPolicy {
 public:
  // `regions_args` follow the Regions' core argument, as in DomainCache.
  // The index is sized for every resident and ghost record at once.
  template <typename... RegionsArgs>
  RegionsPolicy(size_t capacity, std::string name, const Factory& factory,
                RegionsArgs&&... regions_args)
      : EvictionPolicy(capacity, std::move(name)),
        index(DomainCore::CheckedCapacity(capacity) +
                  Regions<RegionsPolicy>::GhostCapacity(capacity),
              factory),
        regions_(*this, std::forward<RegionsArgs>(regions_args)...) {}

  size_t size() const override { return index.size(); }
  bool Contains(ObjectId id) const override { return index.Contains(id); }

  uint64_t AccessBatch(const uint32_t* ids, size_t n) override {
    return PrefetchPipelinedBatch(*this, index, ids, n);
  }

  // DomainCache::Remove without the lock: unindex, then drop the queue
  // state. Counts as an eviction and leaves no ghost trace.
  bool Remove(ObjectId id) override {
    uint32_t value;
    if (!index.Find(id, &value)) {
      return false;
    }
    index.Erase(id);
    regions_.UnlinkLocked(0, value);
    NotifyEvict(id);
    return true;
  }
  bool SupportsRemoval() const override { return true; }

  // The region/index agreement DomainCache::CheckInvariants asserts.
  void CheckInvariants() const override {
    const size_t resident = regions_.CheckShardLocked(0);
    CacheStats occupancy;
    regions_.FillOccupancy(0, &occupancy);
    // Every resident is indexed at its location and every ghost-list id at
    // its ghost record, so equal counts mean the index holds nothing else.
    QDLP_CHECK(index.size() == resident);
    QDLP_CHECK(index.ghosts() == occupancy.ghost_size);
    QDLP_CHECK(resident <= capacity());
    index.CheckInvariants();
  }

  size_t ApproxMetadataBytes() const override {
    return index.MemoryBytes() + regions_.MemoryBytes();
  }

 protected:
  // One probe: a resident is touched; a ghost record or kNoEntry (which
  // carries the ghost tag too) goes to the Regions' admission.
  bool OnAccess(ObjectId id) override {
    const uint32_t entry = index.Entry(id);
    if (!StripedAtomicIndex::IsGhost(entry)) {
      regions_.Touch(entry);
      return true;
    }
    regions_.AdmitLocked(0, id, entry);
    NotifyInsert(id);
    return false;
  }

  void FillOccupancy(CacheStats& stats) const override {
    regions_.FillOccupancy(0, &stats);
  }

 private:
  friend Regions<RegionsPolicy>;
  friend IndexedGhost;  // the Regions' ghost writes ghost records

  // ---- The core interface. ----
  size_t num_shards() const { return 1; }
  size_t shard_capacity(size_t) const { return capacity(); }
  size_t shard_base(size_t) const { return 0; }
  size_t ShardOf(ObjectId) const { return 0; }

  void Count(ConcurrentStatsCounters::Counter kind, ObjectId id) {
    switch (kind) {
      case ConcurrentStatsCounters::kEvictions:
        NotifyEvict(id);
        return;
      case ConcurrentStatsCounters::kPromotions:
        NotifyPromote(id);
        return;
      case ConcurrentStatsCounters::kDemotions:
        NotifyDemote(id);
        return;
      case ConcurrentStatsCounters::kGhostHits:
        NotifyGhostHit(id);
        return;
      default:
        QDLP_CHECK(false && "the Regions count no other kind");
    }
  }
  // A CLOCK lap no counter counts: the sink sees it, Stats() never does.
  void Lap(ObjectId id) {
    if (AccessEventSink* sink = event_sink(); sink != nullptr) {
      sink->OnLap(id, now());
    }
  }

  // The id index, with the calls the Regions make on StripedAtomicIndex.
  TaggedIndex<Factory> index;
  Regions<RegionsPolicy> regions_;
};

// Compiled once, in regions_policy.cc.
extern template class RegionsPolicy<ClockRegions, FlatIndexFactory>;
extern template class RegionsPolicy<ClockRegions, DenseIndexFactory>;
extern template class RegionsPolicy<S3FifoRegions, FlatIndexFactory>;
extern template class RegionsPolicy<S3FifoRegions, DenseIndexFactory>;
extern template class RegionsPolicy<QdLpRegions, FlatIndexFactory>;
extern template class RegionsPolicy<QdLpRegions, DenseIndexFactory>;

}  // namespace qdlp

#endif  // QDLP_SRC_CORE_REGIONS_POLICY_H_
