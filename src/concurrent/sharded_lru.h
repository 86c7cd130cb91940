// LRU sharded across N independently-locked segments — the standard
// mitigation for LRU lock contention. Each shard is the simulator's serial
// LruPolicy behind that shard's mutex, so a hit is still a lock plus the
// six-link splice the paper counts against LRU; only 1/N threads collide
// per shard. With one shard this is the global-lock LRU, the naive
// memcached-style design the paper argues against.

#ifndef QDLP_SRC_CONCURRENT_SHARDED_LRU_H_
#define QDLP_SRC_CONCURRENT_SHARDED_LRU_H_

#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "src/concurrent/concurrent_cache.h"
#include "src/policies/lru.h"

namespace qdlp {

class ShardedLruCache : public ConcurrentCache {
 public:
  // Capacity must be at least 1; the shard count is clamped to it.
  ShardedLruCache(size_t capacity, size_t num_shards = 16);

  bool Get(ObjectId id) override;
  // Get() already blocks on the shard lock and always admits.
  bool Admit(ObjectId id) override { return Get(id); }
  size_t capacity() const override { return capacity_; }
  std::string_view name() const override {
    return shards_.size() == 1 ? "global-lock-lru" : "sharded-lru";
  }

  // Removal locks only the owning shard, like Get().
  bool Remove(ObjectId id) override;

  // Sums the shards' own Stats(), taking each shard's lock in turn. Each
  // shard's snapshot is coherent, so the identities (requests == hits +
  // misses, inserts - evictions == size) hold in the sum too, but the sum
  // is not one instant of the whole cache.
  CacheStats Stats() const override;

  // Each shard's LruPolicy invariants, residents in their own shard, and
  // shard capacities summing to the total.
  void CheckInvariants() override;

  size_t ApproxMetadataBytes() const override;

 private:
  struct Shard {
    explicit Shard(size_t capacity) : lru(capacity) {}
    mutable std::mutex mu;
    LruPolicy lru;
  };

  Shard& ShardFor(ObjectId id) const;

  const size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace qdlp

#endif  // QDLP_SRC_CONCURRENT_SHARDED_LRU_H_
