// Quick Demotion wrapper — the paper's main construction (§4, Fig 4).
//
// Splits the cache budget into a small probationary FIFO (default 10%) and a
// main cache (90%) running any eviction policy, plus a metadata-only ghost
// FIFO holding as many entries as the main cache. The flow:
//
//   miss, id in ghost      -> admit into the MAIN cache (it was demoted too
//                             fast once; don't make it re-prove itself)
//   miss, id not in ghost  -> admit into the probationary FIFO
//   probationary FIFO full -> if the evictee was re-accessed since insertion,
//                             promote it into the main cache (lazy
//                             promotion); otherwise evict it and record the
//                             id in the ghost FIFO
//
// Hits anywhere only set a bit (probation) or forward to the main policy.
// Composing this over ARC/LIRS/CACHEUS/LeCaR/LHD yields the paper's
// QD-enhanced algorithms (MakePolicy's qd-<base> names), and its options
// drive the probation, ghost and CLOCK-bits ablations. Composed over 2-bit
// CLOCK it makes QD-LP-FIFO's decisions, but the qd-lp-fifo name runs the
// one QD-LP-FIFO implementation, QdLpRegions, through regions_policy.h.
//
// Probation and ghost share one id index with the striped index's ghost-tag
// rules (tagged_index.h), as QdLpRegions' do: a probationary id is indexed
// at its FIFO slot, and a quick demotion turns that entry into the id's
// ghost record (an IndexedGhost, eviction_domains.h) in place. So one probe
// tells a probation hit, a ghost hit and an id to look up in main apart; a
// ghost hit skips the main probe, since probation, main and ghost are
// disjoint. The index backing is a template parameter: QdCache probes a
// FlatMap, DenseQdCache (the sweep's dense lane, over a dense main policy)
// a direct-indexed slot array.

#ifndef QDLP_SRC_CORE_QD_CACHE_H_
#define QDLP_SRC_CORE_QD_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/concurrent/eviction_domains.h"
#include "src/core/tagged_index.h"
#include "src/policies/eviction_policy.h"
#include "src/util/dense_index.h"
#include "src/util/intrusive_list.h"

namespace qdlp {

struct QdOptions {
  // Fraction of total capacity given to the probationary FIFO.
  double probation_fraction = 0.10;
  // Ghost capacity as a multiple of the main cache's object capacity.
  double ghost_factor = 1.0;
  // Reported policy name; defaults to "qd-<main policy name>".
  std::string name;
};

template <typename IndexFactory>
class BasicQdCache : public EvictionPolicy {
 public:
  // `main` must have capacity equal to the intended main-cache size; the
  // total capacity reported by this wrapper is probation + main. Use
  // MakeQdPolicy (policy_factory.h) to build one by name with a total
  // budget. Over a DenseIndexFactory, `main` must take the same dense ids.
  BasicQdCache(size_t probation_capacity, std::unique_ptr<EvictionPolicy> main,
               const QdOptions& options = {}, const IndexFactory& factory = {});

  size_t size() const override { return probation_.size() + main_->size(); }
  bool Contains(ObjectId id) const override {
    return index.Contains(id) || main_->Contains(id);
  }

  uint64_t AccessBatch(const uint32_t* ids, size_t n) override {
    // The probation/ghost index is the first probe of every access; the
    // main policy's own index is probed only after that one misses, so its
    // latency is already partly hidden behind the first probe.
    return PrefetchPipelinedBatch(*this, index, ids, n);
  }

  size_t probation_size() const { return probation_.size(); }
  size_t probation_capacity() const { return probation_capacity_; }
  const EvictionPolicy& main() const { return *main_; }
  // True when `id` has a ghost record: quick-demoted, not back since.
  bool InGhost(ObjectId id) const {
    const uint32_t entry = index.Entry(id);
    return entry != StripedAtomicIndex::kNoEntry &&
           StripedAtomicIndex::IsGhost(entry);
  }

  // Flow counters for analysis/ablation, aliasing the Stats() snapshot:
  // probation->main lazy promotions, probation->ghost quick demotions, and
  // ghost-hit readmissions into main.
  uint64_t promotions() const { return counters().promotions; }
  uint64_t quick_demotions() const { return counters().demotions; }
  uint64_t ghost_admissions() const { return counters().ghost_hits; }

  // Probation FIFO/index consistency, probation/main/ghost disjointness,
  // and capacity accounting for all three regions. Recurses into the main
  // policy's own CheckInvariants().
  void CheckInvariants() const override;

  size_t ApproxMetadataBytes() const override {
    return probation_.MemoryBytes() + accessed_.capacity() +
           ghost_.MemoryBytes() + index.MemoryBytes() +
           main_->ApproxMetadataBytes();
  }

 protected:
  bool OnAccess(ObjectId id) override;

  void FillOccupancy(CacheStats& stats) const override {
    stats.probation_size = probation_.size();
    stats.main_size = main_->size();
    stats.ghost_size = ghost_.size();
  }

 private:
  friend IndexedGhost;  // writes ghost records into `index`

  // IndexedGhost's view of its core: one shard.
  size_t ShardOf(ObjectId) const { return 0; }

  // Pushes `id` into the probationary FIFO, making room first.
  void AdmitToProbation(ObjectId id);
  // Evicts the oldest probationary object, promoting or ghosting it.
  void EvictFromProbation();

  // Forwards main-cache evictions to the wrapper so that eviction counting
  // and residency accounting span the whole composed cache. Every other
  // main event is swallowed: the wrapper reports an object's insertion when
  // it first takes cache space (probation entry or ghost-path admission), a
  // promotion from probation into main is not a new insertion, and the
  // main policy's internal promotions (e.g. CLOCK reinsertion) are visible
  // in its own Stats(), not the wrapper's probation->main flow.
  class MainEvictionForwarder : public AccessEventSink {
   public:
    explicit MainEvictionForwarder(BasicQdCache* owner) : owner_(owner) {}
    void OnEvict(ObjectId id, uint64_t) override { owner_->NotifyEvict(id); }

   private:
    BasicQdCache* owner_;
  };

  size_t probation_capacity_;
  std::unique_ptr<EvictionPolicy> main_;
  MainEvictionForwarder main_forwarder_{this};

  IntrusiveList<ObjectId> probation_;  // front = oldest
  std::vector<uint8_t> accessed_;      // re-accessed on probation, by slot
  IndexedGhost ghost_;
  // Probationary ids at their FIFO slot, ghost ids at their ghost record.
  TaggedIndex<IndexFactory> index;
};

using QdCache = BasicQdCache<FlatIndexFactory>;
using DenseQdCache = BasicQdCache<DenseIndexFactory>;

// Compiled once, in qd_cache.cc.
extern template class BasicQdCache<FlatIndexFactory>;
extern template class BasicQdCache<DenseIndexFactory>;

}  // namespace qdlp

#endif  // QDLP_SRC_CORE_QD_CACHE_H_
