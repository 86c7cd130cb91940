#include "src/concurrent/sharded_lru.h"

#include <algorithm>

#include "src/util/check.h"
#include "src/util/random.h"

namespace qdlp {

ShardedLruCache::ShardedLruCache(size_t capacity, size_t num_shards)
    : capacity_(capacity) {
  QDLP_CHECK(capacity >= 1);
  QDLP_CHECK(num_shards >= 1);
  num_shards = std::min(num_shards, capacity);
  shards_.reserve(num_shards);
  const size_t base = capacity / num_shards;
  const size_t remainder = capacity % num_shards;
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(
        std::make_unique<Shard>(base + (i < remainder ? 1 : 0)));
  }
}

ShardedLruCache::Shard& ShardedLruCache::ShardFor(ObjectId id) const {
  return *shards_[SplitMix64(id) % shards_.size()];
}

bool ShardedLruCache::GetOrAdmit(ObjectId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.lru.Access(id);
}

bool ShardedLruCache::Get(ObjectId id, std::string* value) {
  if (value != nullptr) {
    value->clear();
  }
  return GetOrAdmit(id);
}

SetStatus ShardedLruCache::Set(ObjectId id, std::string_view, uint32_t) {
  GetOrAdmit(id);
  return SetStatus::kOk;
}

bool ShardedLruCache::Delete(ObjectId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.lru.Remove(id);
}

CacheStats ShardedLruCache::Stats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    const CacheStats stats = shard->lru.Stats();
    for (const CacheStatsField& field : kCacheStatsFields) {
      total.*field.member += stats.*field.member;
    }
  }
  return total;
}

void ShardedLruCache::CheckInvariants() {
  size_t total_capacity = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    // Through the base: structure plus the counter identities.
    EvictionPolicy& lru = shard->lru;
    lru.CheckInvariants();
    shard->lru.ForEach(
        [&](ObjectId id) { QDLP_CHECK(&ShardFor(id) == shard.get()); });
    total_capacity += shard->lru.capacity();
  }
  QDLP_CHECK(total_capacity == capacity_);
}

size_t ShardedLruCache::ApproxMetadataBytes() const {
  size_t bytes = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    bytes += shard->lru.ApproxMetadataBytes();
  }
  return bytes;
}

}  // namespace qdlp
