// LeCaR — Learning Cache Replacement (Vietri et al., HotStorage'18).
//
// One cache, two expert policies (LRU and LFU) and two ghost histories.
// Eviction draws an expert according to regret-minimizing weights; the victim
// is remembered in the expert's history. A miss that hits a history means the
// corresponding expert made a mistake, so the weights shift toward the other
// expert, discounted by how long ago the mistake happened.
//
// Parameters follow the paper: learning rate 0.45, discount 0.005^(1/N)
// where N is the cache size; each history holds N entries. CACHEUS
// (cacheus.h) is this cache with its learning rate adapted online.
//
// Storage is slab-backed intrusive lists under one id index:
//  * residents, in LRU order;
//  * the LFU order, as a list of frequency buckets in ascending order, each
//    bucket an intrusive chain of its residents in last-access order. The
//    LFU victim is the head of the lowest bucket: the minimum of
//    (frequency, last access), since every access appends its object to
//    the tail of its new bucket and the clock strictly increases;
//  * the two histories, FIFOs of (id, eviction time).
// An id is in at most one history and never resident while in one (a miss
// consumes the history record it hits, and only residents are pushed to a
// history), so the index maps each id to one tagged slot. The index
// backing is a template parameter, as for LRU: LecarPolicy probes a
// FlatMap, DenseLecarPolicy (the sweep's dense lane) a direct-indexed slot
// array.

#ifndef QDLP_SRC_POLICIES_LECAR_H_
#define QDLP_SRC_POLICIES_LECAR_H_

#include <cstdint>
#include <string>

#include "src/policies/eviction_policy.h"
#include "src/util/dense_index.h"
#include "src/util/intrusive_list.h"
#include "src/util/random.h"

namespace qdlp {

template <typename IndexFactory>
class BasicLecarPolicy : public EvictionPolicy {
 public:
  explicit BasicLecarPolicy(size_t capacity, uint64_t seed = 7,
                            double learning_rate = 0.45,
                            IndexFactory factory = {})
      : BasicLecarPolicy(capacity, "lecar", seed, learning_rate,
                         /*adapt_learning_rate=*/false, factory) {}

  size_t size() const override { return residents_.size(); }
  bool Contains(ObjectId id) const override {
    const uint32_t* entry = index_.Find(id);
    return entry != nullptr && TagOf(*entry) == kResident;
  }

  uint64_t AccessBatch(const uint32_t* ids, size_t n) override {
    return PrefetchPipelinedBatch(*this, index_, ids, n);
  }

  double lru_weight() const { return w_lru_; }
  double learning_rate() const { return learning_rate_; }

  // Index/list agreement, the bucket order (ascending, non-empty, every
  // resident in exactly one bucket) and the history bounds.
  void CheckInvariants() const override;

  size_t ApproxMetadataBytes() const override {
    return residents_.MemoryBytes() + buckets_.MemoryBytes() +
           lru_history_.MemoryBytes() + lfu_history_.MemoryBytes() +
           index_.MemoryBytes();
  }

 protected:
  // With `adapt_learning_rate`, the learning rate starts at
  // `learning_rate` and follows CACHEUS's hill climber.
  BasicLecarPolicy(size_t capacity, std::string name, uint64_t seed,
                   double learning_rate, bool adapt_learning_rate,
                   IndexFactory factory);

  bool OnAccess(ObjectId id) override;

 private:
  using SlotId = uint32_t;
  static constexpr SlotId kNone = IntrusiveList<int>::kNullSlot;

  // An index entry is (tag << kTagShift) | slot in the tagged list.
  enum Tag : uint32_t { kResident = 0, kLruHistory = 1, kLfuHistory = 2 };
  static constexpr uint32_t kTagShift = 30;
  static constexpr uint32_t kSlotMask = (uint32_t{1} << kTagShift) - 1;
  static uint32_t Pack(Tag tag, SlotId slot) {
    return (static_cast<uint32_t>(tag) << kTagShift) | slot;
  }
  static Tag TagOf(uint32_t entry) {
    return static_cast<Tag>(entry >> kTagShift);
  }

  struct Resident {
    ObjectId id;
    SlotId bucket;    // slot in buckets_
    SlotId lfu_prev;  // neighbours in the bucket's chain (resident slots)
    SlotId lfu_next;
  };
  struct Bucket {
    uint64_t frequency;
    SlotId head;  // least recently accessed resident of this frequency
    SlotId tail;
  };
  struct Record {
    ObjectId id;
    uint64_t evicted_at;
  };
  using History = IntrusiveList<Record>;  // front = oldest

  // Links resident `slot` at the tail of `bucket`'s chain.
  void AppendToBucket(SlotId bucket, SlotId slot);
  // Unlinks resident `slot` from its bucket's chain; true when that leaves
  // the bucket empty (the caller erases or reuses it).
  bool UnlinkFromBucket(SlotId slot);
  // Hit: MRU in the LRU order, tail of the next frequency's bucket.
  void Touch(SlotId slot);
  // A new resident with frequency 1; returns its slot.
  SlotId Admit(ObjectId id);

  void EvictOne();
  // Turns evicted `id`'s index entry into a record in `history`, trimming
  // the oldest record once the history exceeds capacity().
  void Remember(Tag tag, ObjectId id);
  void UpdateWeights(double& wrong, double& other, uint64_t evicted_at);
  void MaybeAdaptLearningRate();

  double learning_rate_;
  double discount_;
  double w_lru_ = 0.5;
  double w_lfu_ = 0.5;
  Rng rng_;

  // CACHEUS's windowed hit-rate bookkeeping for the learning-rate hill
  // climber; idle in LeCaR.
  bool adapt_learning_rate_;
  double rate_direction_ = 1.0;
  uint64_t window_length_;
  uint64_t window_requests_ = 0;
  uint64_t window_hits_ = 0;
  double previous_window_hit_rate_ = -1.0;

  IntrusiveList<Resident> residents_;  // front = MRU
  IntrusiveList<Bucket> buckets_;      // ascending frequency
  History lru_history_;
  History lfu_history_;
  typename IndexFactory::template Index<uint32_t> index_;  // id -> entry
};

using LecarPolicy = BasicLecarPolicy<FlatIndexFactory>;
using DenseLecarPolicy = BasicLecarPolicy<DenseIndexFactory>;

extern template class BasicLecarPolicy<FlatIndexFactory>;
extern template class BasicLecarPolicy<DenseIndexFactory>;

}  // namespace qdlp

#endif  // QDLP_SRC_POLICIES_LECAR_H_
