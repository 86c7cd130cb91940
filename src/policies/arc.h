// ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST'03).
//
// Four LRU lists: T1 (recent, resident), T2 (frequent, resident), and their
// ghost extensions B1/B2 (metadata only). The adaptation target p shifts
// capacity between recency and frequency based on which ghost list takes
// hits. This is the strongest conventional baseline in the paper ("the best
// state-of-the-art algorithm, ARC, can only reduce the miss ratio of LRU 6.2%
// on average") and the first candidate for QD enhancement.
//
// Implementation follows Fig. 4 of the FAST'03 paper exactly. The four
// lists are slab-backed intrusive lists, and one id index maps every
// resident and ghost id to its list and slot, packed in a uint32_t, so an
// access is one probe. The index backing is a template parameter, as for
// LRU: ArcPolicy probes a FlatMap, DenseArcPolicy (the sweep's dense lane)
// a direct-indexed slot array.

#ifndef QDLP_SRC_POLICIES_ARC_H_
#define QDLP_SRC_POLICIES_ARC_H_

#include <cstdint>

#include "src/policies/eviction_policy.h"
#include "src/util/dense_index.h"
#include "src/util/intrusive_list.h"

namespace qdlp {

template <typename IndexFactory>
class BasicArcPolicy : public EvictionPolicy {
 public:
  // `adaptation_rate` scales the ghost-hit delta applied to the target p;
  // §5 observes that "slowing down the queue size adjustment often reduces
  // miss ratios" — rate < 1 tests that. `fixed_p_fraction` >= 0 pins p to
  // that fraction of capacity and disables adaptation entirely (§5's
  // "manually limiting the queue size").
  explicit BasicArcPolicy(size_t capacity, double adaptation_rate = 1.0,
                          double fixed_p_fraction = -1.0,
                          IndexFactory factory = {});

  size_t size() const override { return t1_.size() + t2_.size(); }
  bool Contains(ObjectId id) const override {
    const uint32_t* entry = index_.Find(id);
    return entry != nullptr &&
           (ListOf(*entry) == kT1 || ListOf(*entry) == kT2);
  }

  uint64_t AccessBatch(const uint32_t* ids, size_t n) override {
    return PrefetchPipelinedBatch(*this, index_, ids, n);
  }

  // Invariant accessors used by tests.
  size_t t1_size() const { return t1_.size(); }
  size_t t2_size() const { return t2_.size(); }
  size_t b1_size() const { return b1_.size(); }
  size_t b2_size() const { return b2_.size(); }
  double target_p() const { return p_; }

  // FAST'03 §I.B invariants: |T1|+|T2| <= c, |T1|+|B1| <= c,
  // |T1|+|T2|+|B1|+|B2| <= 2c, p in [0, c], plus index/list consistency.
  void CheckInvariants() const override;

  size_t ApproxMetadataBytes() const override {
    return t1_.MemoryBytes() + t2_.MemoryBytes() + b1_.MemoryBytes() +
           b2_.MemoryBytes() + index_.MemoryBytes();
  }

 protected:
  bool OnAccess(ObjectId id) override;
  void FillOccupancy(CacheStats& stats) const override {
    stats.probation_size = t1_.size();
    stats.main_size = t2_.size();
    stats.ghost_size = b1_.size() + b2_.size();
  }

 private:
  using List = IntrusiveList<ObjectId>;
  // An index entry is (list << kListShift) | slot in that list.
  enum ListId : uint32_t { kT1 = 0, kT2 = 1, kB1 = 2, kB2 = 3 };
  static constexpr uint32_t kListShift = 30;
  static constexpr uint32_t kSlotMask = (uint32_t{1} << kListShift) - 1;

  static uint32_t Pack(ListId list, uint32_t slot) {
    return (static_cast<uint32_t>(list) << kListShift) | slot;
  }
  static ListId ListOf(uint32_t entry) {
    return static_cast<ListId>(entry >> kListShift);
  }
  List& ListFor(ListId list) {
    return list == kT1 ? t1_ : list == kT2 ? t2_ : list == kB1 ? b1_ : b2_;
  }

  // REPLACE(x, p): evicts the LRU of T1 or T2 into the matching ghost list.
  void Replace(bool requested_in_b2);
  // Moves the id at `*entry` to the MRU end of `target`, updating `*entry`.
  void MoveTo(uint32_t* entry, ListId target);
  // Drops the LRU id of `list` from the list and the index.
  void RemoveLru(List& list);

  double p_ = 0.0;  // target size of T1
  double adaptation_rate_ = 1.0;
  bool adaptive_ = true;
  List t1_, t2_, b1_, b2_;  // front = MRU
  typename IndexFactory::template Index<uint32_t> index_;  // id -> entry
};

using ArcPolicy = BasicArcPolicy<FlatIndexFactory>;
using DenseArcPolicy = BasicArcPolicy<DenseIndexFactory>;

extern template class BasicArcPolicy<FlatIndexFactory>;
extern template class BasicArcPolicy<DenseIndexFactory>;

}  // namespace qdlp

#endif  // QDLP_SRC_POLICIES_ARC_H_
