// LHD — Least Hit Density (Beckmann, Chen & Cidon, NSDI'18).
//
// Evicts the object with the lowest *hit density*: the expected number of
// future hits per unit of cache space-time the object will consume. Hit
// density is estimated online from coarsened age distributions of hits and
// evictions, per object class (classes here are formed from reference
// counts). Eviction draws a random sample of resident objects and removes
// the lowest-density one, which is how the authors' implementation avoids a
// priority queue.
//
// Follows the authors' open-source implementation in structure: EWMA-aged
// per-class hit/eviction age histograms, periodic reconfiguration, and
// sampled eviction. Age coarsening is static per cache size rather than
// dynamically re-tuned.
//
// Residents live in a dense vector that eviction swap-removes from, and
// the sample draws positions in it, so decisions depend on the access
// sequence alone, never on id values. The id index maps an id to its
// position; its backing is a template parameter, as for LRU: LhdPolicy
// probes a FlatMap, DenseLhdPolicy (the sweep's dense lane) a
// direct-indexed slot array.

#ifndef QDLP_SRC_POLICIES_LHD_H_
#define QDLP_SRC_POLICIES_LHD_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/policies/eviction_policy.h"
#include "src/util/dense_index.h"
#include "src/util/random.h"

namespace qdlp {

template <typename IndexFactory>
class BasicLhdPolicy : public EvictionPolicy {
 public:
  explicit BasicLhdPolicy(size_t capacity, uint64_t seed = 13,
                          IndexFactory factory = {});

  size_t size() const override { return objects_.size(); }
  bool Contains(ObjectId id) const override { return index_.Contains(id); }

  uint64_t AccessBatch(const uint32_t* ids, size_t n) override {
    return PrefetchPipelinedBatch(*this, index_, ids, n);
  }

  // Every resident is indexed at its position in the object vector.
  void CheckInvariants() const override;

  size_t ApproxMetadataBytes() const override {
    return objects_.capacity() * sizeof(Object) + index_.MemoryBytes();
  }

 protected:
  bool OnAccess(ObjectId id) override;

 private:
  static constexpr size_t kNumClasses = 16;
  static constexpr size_t kNumAgeBuckets = 64;
  static constexpr size_t kSampleSize = 32;
  static constexpr double kEwmaDecay = 0.9;

  struct Object {
    ObjectId id = 0;
    uint64_t last_access = 0;
    uint32_t refs = 0;  // hits since admission
  };

  struct ClassStats {
    ClassStats() { density.fill(1e-3); }
    std::array<double, kNumAgeBuckets> hits{};
    std::array<double, kNumAgeBuckets> evictions{};
    std::array<double, kNumAgeBuckets> density;
  };

  size_t AgeBucket(uint64_t last_access) const;
  static size_t ClassOf(uint32_t refs);
  void Reconfigure();
  void EvictOne();

  Rng rng_;
  uint64_t age_shift_ = 0;
  uint64_t accesses_since_reconfigure_ = 0;
  uint64_t reconfigure_interval_;
  std::array<ClassStats, kNumClasses> classes_;
  std::vector<Object> objects_;  // dense, swap-remove on eviction
  // id -> position in objects_
  typename IndexFactory::template Index<uint32_t> index_;
};

using LhdPolicy = BasicLhdPolicy<FlatIndexFactory>;
using DenseLhdPolicy = BasicLhdPolicy<DenseIndexFactory>;

extern template class BasicLhdPolicy<FlatIndexFactory>;
extern template class BasicLhdPolicy<DenseIndexFactory>;

}  // namespace qdlp

#endif  // QDLP_SRC_POLICIES_LHD_H_
