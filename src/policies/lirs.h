// LIRS — Low Inter-reference Recency Set (Jiang & Zhang, SIGMETRICS'02).
//
// Partitions resident objects into LIR (low inter-reference recency, ~99% of
// capacity) and HIR blocks (~1%). Stack S orders blocks by recency and also
// holds non-resident HIR metadata; queue Q holds the resident HIR blocks,
// which are the eviction victims. A HIR block that is re-referenced while
// still in S (i.e., its reuse distance beats the coldest LIR block) is
// upgraded to LIR, demoting the LIR block at the stack bottom.
//
// The paper (§4, footnote 4) notes that two open-source LIRS implementations
// used by prior work were buggy; the invariants here (stack bottom is always
// LIR, non-resident metadata bounded) are enforced with checks and covered by
// dedicated tests.
//
// S and Q are slab-backed intrusive lists, and one id index holds each
// id's state and both of its slots. The index backing is a template
// parameter, as for LRU: LirsPolicy probes a FlatMap, DenseLirsPolicy (the
// sweep's dense lane) a direct-indexed slot array.

#ifndef QDLP_SRC_POLICIES_LIRS_H_
#define QDLP_SRC_POLICIES_LIRS_H_

#include <cstdint>
#include <deque>

#include "src/policies/eviction_policy.h"
#include "src/util/dense_index.h"
#include "src/util/intrusive_list.h"

namespace qdlp {

template <typename IndexFactory>
class BasicLirsPolicy : public EvictionPolicy {
 public:
  // hir_fraction of capacity is reserved for resident HIR blocks (Q);
  // classic LIRS uses 1%, with a floor of 1 block. `max_nonresident_factor`
  // bounds stack S's non-resident metadata to factor*capacity entries.
  explicit BasicLirsPolicy(size_t capacity, double hir_fraction = 0.01,
                           double max_nonresident_factor = 3.0,
                           IndexFactory factory = {});

  size_t size() const override { return resident_count_; }
  bool Contains(ObjectId id) const override {
    const Entry* entry = index_.Find(id);
    return entry != nullptr && entry->state != State::kHirNonResident;
  }

  uint64_t AccessBatch(const uint32_t* ids, size_t n) override {
    return PrefetchPipelinedBatch(*this, index_, ids, n);
  }

  size_t lir_count() const { return lir_count_; }
  size_t queue_size() const { return queue_.size(); }
  size_t stack_size() const { return stack_.size(); }
  // True when the bottom of stack S is a LIR block (core LIRS invariant).
  bool StackBottomIsLir() const;

  // LIRS invariants (SIGMETRICS'02 §3.3, plus the §4-footnote-4 pitfalls):
  // stack bottom is LIR, LIR blocks never exceed the LIR allocation, Q holds
  // exactly the resident HIR blocks, and the non-resident metadata stays
  // within its configured bound.
  void CheckInvariants() const override;

 protected:
  bool OnAccess(ObjectId id) override;
  void FillOccupancy(CacheStats& stats) const override {
    stats.probation_size = resident_count_ - lir_count_;  // resident HIR (Q)
    stats.main_size = lir_count_;
    stats.ghost_size = nonresident_count_;
  }

 private:
  using List = IntrusiveList<ObjectId>;
  static constexpr uint32_t kNone = List::kNullSlot;

  enum class State : uint8_t {
    kLir,            // resident, in S
    kHirResident,    // resident, in Q, possibly in S
    kHirNonResident, // metadata only, in S
  };
  // kNone marks absence from S or Q.
  struct Entry {
    uint32_t stack_slot = kNone;
    uint32_t queue_slot = kNone;
    State state = State::kHirNonResident;
  };

  void PushStackTop(ObjectId id, Entry& entry);
  void PushQueueBack(ObjectId id, Entry& entry);
  void RemoveFromQueue(Entry& entry);
  // Removes HIR entries from the stack bottom until a LIR block sits there.
  void PruneStack();
  // Evicts the front of Q (the coldest resident HIR block).
  void EvictFromQueue();
  // Demotes the LIR block at the stack bottom to resident HIR (moves to Q).
  void DemoteStackBottom();
  // Drops the oldest non-resident HIR metadata when over budget.
  void LimitNonResident();

  size_t lir_capacity_;
  size_t hir_capacity_;
  size_t max_nonresident_;

  List stack_;  // front = top (most recent)
  List queue_;  // front = eviction candidate
  // Ids in the order they became non-resident; drained (skipping stale
  // entries) to bound the metadata footprint.
  std::deque<ObjectId> nonresident_fifo_;
  typename IndexFactory::template Index<Entry> index_;
  size_t resident_count_ = 0;
  size_t lir_count_ = 0;
  size_t nonresident_count_ = 0;
};

using LirsPolicy = BasicLirsPolicy<FlatIndexFactory>;
using DenseLirsPolicy = BasicLirsPolicy<DenseIndexFactory>;

extern template class BasicLirsPolicy<FlatIndexFactory>;
extern template class BasicLirsPolicy<DenseIndexFactory>;

}  // namespace qdlp

#endif  // QDLP_SRC_POLICIES_LIRS_H_
