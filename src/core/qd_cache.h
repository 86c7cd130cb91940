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

#ifndef QDLP_SRC_CORE_QD_CACHE_H_
#define QDLP_SRC_CORE_QD_CACHE_H_

#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "src/core/ghost_queue.h"
#include "src/policies/eviction_policy.h"
#include "src/util/flat_map.h"
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

class QdCache : public EvictionPolicy {
 public:
  // `main` must have capacity equal to the intended main-cache size; the
  // total capacity reported by this wrapper is probation + main. Use
  // MakeQdPolicy (policy_factory.h) to build one by name with a total
  // budget.
  QdCache(size_t probation_capacity, std::unique_ptr<EvictionPolicy> main,
          const QdOptions& options = {})
      : EvictionPolicy(
            probation_capacity + main->capacity(),
            options.name.empty() ? "qd-" + std::string(main->name())
                                 : options.name),
        probation_capacity_(probation_capacity),
        main_(std::move(main)),
        ghost_(std::max<size_t>(
            1, static_cast<size_t>(
                   std::llround(static_cast<double>(main_->capacity()) *
                                options.ghost_factor)))) {
    QDLP_CHECK(probation_capacity_ >= 1);
    probation_fifo_.Reserve(probation_capacity_);
    probation_index_.Reserve(probation_capacity_);
    main_->set_event_sink(&main_forwarder_);
  }

  size_t size() const override {
    return probation_index_.size() + main_->size();
  }
  bool Contains(ObjectId id) const override {
    return probation_index_.Contains(id) || main_->Contains(id);
  }

  uint64_t AccessBatch(const uint32_t* ids, size_t n) override {
    // The probation index is the first probe of every access; the main
    // policy's own index is probed only after a probation miss, so its
    // latency is already partly hidden behind that first probe.
    return PrefetchPipelinedBatch(*this, probation_index_, ids, n);
  }

  size_t probation_size() const { return probation_index_.size(); }
  size_t probation_capacity() const { return probation_capacity_; }
  const EvictionPolicy& main() const { return *main_; }
  const GhostQueue& ghost() const { return ghost_; }

  // Flow counters for analysis/ablation, aliasing the Stats() snapshot:
  // probation->main lazy promotions, probation->ghost quick demotions, and
  // ghost-hit readmissions into main.
  uint64_t promotions() const { return counters().promotions; }
  uint64_t quick_demotions() const { return counters().demotions; }
  uint64_t ghost_admissions() const { return counters().ghost_hits; }

  // Probation FIFO/index consistency, probation/main/ghost disjointness,
  // and capacity accounting for all three regions. Recurses into the main
  // policy's own CheckInvariants().
  void CheckInvariants() const override {
    QDLP_CHECK(probation_index_.size() <= probation_capacity_);
    QDLP_CHECK(probation_fifo_.size() == probation_index_.size());
    QDLP_CHECK(main_->size() <= main_->capacity());
    QDLP_CHECK(size() <= capacity());
    probation_fifo_.ForEach([&](uint32_t slot, ObjectId id) {
      const ProbationEntry* entry = probation_index_.Find(id);
      QDLP_CHECK(entry != nullptr);
      QDLP_CHECK(entry->slot == slot);
      // An object holds space in exactly one region.
      QDLP_CHECK(!main_->Contains(id));
      QDLP_CHECK(!ghost_.Contains(id));
    });
    // Ghost entries are history, never resident (in either region).
    ghost_.ForEachLive([&](ObjectId id) {
      QDLP_CHECK(!probation_index_.Contains(id));
      QDLP_CHECK(!main_->Contains(id));
    });
    probation_fifo_.CheckInvariants();
    probation_index_.CheckInvariants();
    ghost_.CheckInvariants();
    main_->CheckInvariants();
  }

  size_t ApproxMetadataBytes() const override {
    return probation_fifo_.MemoryBytes() + probation_index_.MemoryBytes() +
           ghost_.ApproxMetadataBytes() + main_->ApproxMetadataBytes();
  }

 protected:
  bool OnAccess(ObjectId id) override {
    ProbationEntry* probation_entry = probation_index_.Find(id);
    if (probation_entry != nullptr) {
      probation_entry->accessed = true;  // single metadata bit; no reordering
      return true;
    }
    if (main_->Contains(id)) {
      return main_->Access(id);
    }
    if (ghost_.Consume(id)) {
      NotifyGhostHit(id);
      main_->Access(id);
      NotifyInsert(id);
      return false;
    }
    AdmitToProbation(id);
    return false;
  }

  void FillOccupancy(CacheStats& stats) const override {
    stats.probation_size = probation_index_.size();
    stats.main_size = main_->size();
    stats.ghost_size = ghost_.size();
  }

 private:
  struct ProbationEntry {
    uint32_t slot = 0;      // slot in probation_fifo_
    bool accessed = false;  // re-accessed while on probation
  };

  // Pushes `id` into the probationary FIFO, making room first.
  void AdmitToProbation(ObjectId id) {
    while (probation_index_.size() >= probation_capacity_) {
      EvictFromProbation();
    }
    const uint32_t slot = probation_fifo_.PushBack(id);
    probation_index_[id] = ProbationEntry{slot, false};
    NotifyInsert(id);
  }

  // Evicts the oldest probationary object, promoting or ghosting it.
  void EvictFromProbation() {
    QDLP_DCHECK(!probation_fifo_.empty());
    const uint32_t victim_slot = probation_fifo_.front();
    const ObjectId victim = probation_fifo_[victim_slot];
    probation_fifo_.Erase(victim_slot);
    const ProbationEntry* entry = probation_index_.Find(victim);
    QDLP_DCHECK(entry != nullptr);
    const bool accessed = entry->accessed;
    probation_index_.Erase(victim);
    if (accessed) {
      // Lazy promotion: re-accessed while on probation -> main cache.
      NotifyPromote(victim);
      main_->Access(victim);
    } else {
      // Quick demotion: one lap through the small FIFO was its only chance.
      NotifyDemote(victim);
      ghost_.Insert(victim);
      NotifyEvict(victim);
    }
  }

  // Forwards main-cache evictions to the wrapper so that eviction counting
  // and residency accounting span the whole composed cache. Every other
  // main event is swallowed: the wrapper reports an object's insertion when
  // it first takes cache space (probation entry or ghost-path admission), a
  // promotion from probation into main is not a new insertion, and the
  // main policy's internal promotions (e.g. CLOCK reinsertion) are visible
  // in its own Stats(), not the wrapper's probation->main flow.
  class MainEvictionForwarder : public AccessEventSink {
   public:
    explicit MainEvictionForwarder(QdCache* owner) : owner_(owner) {}
    void OnEvict(ObjectId id, uint64_t) override { owner_->NotifyEvict(id); }

   private:
    QdCache* owner_;
  };

  size_t probation_capacity_;
  std::unique_ptr<EvictionPolicy> main_;
  GhostQueue ghost_;
  MainEvictionForwarder main_forwarder_{this};

  IntrusiveList<ObjectId> probation_fifo_;  // front = oldest
  FlatMap<ProbationEntry> probation_index_;
};

}  // namespace qdlp

#endif  // QDLP_SRC_CORE_QD_CACHE_H_
