#include "src/core/cache_api.h"

#include <utility>

#include "src/concurrent/concurrent_clock.h"
#include "src/concurrent/concurrent_qdlp_fifo.h"
#include "src/concurrent/concurrent_s3fifo.h"
#include "src/concurrent/sharded_lru.h"
#include "src/core/policy_factory.h"
#include "src/policies/eviction_policy.h"
#include "src/util/check.h"

namespace qdlp {

namespace {

// Sequential EvictionPolicy behind the unified face: Get/Set/GetOrAdmit
// all reduce to the policy's get-or-admit Access (bytes and ttl have
// nowhere to live), Delete to Remove where the policy supports it. The
// CacheObservable surface is the policy's own, so Stats()/CheckInvariants()
// mean exactly what they mean there.
class PolicyCacheAdapter : public Cache {
 public:
  explicit PolicyCacheAdapter(std::unique_ptr<EvictionPolicy> policy)
      : policy_(std::move(policy)) {}

  bool GetOrAdmit(ObjectId key) override { return policy_->Access(key); }

  bool Get(ObjectId key, std::string* value) override {
    if (value != nullptr) {
      value->clear();
    }
    return policy_->Access(key);
  }

  SetStatus Set(ObjectId key, std::string_view value,
                uint32_t ttl_seconds) override {
    (void)value;
    (void)ttl_seconds;
    if (!policy_->Contains(key)) {
      policy_->Access(key);
    }
    return SetStatus::kOk;
  }

  bool Delete(ObjectId key) override { return policy_->Remove(key); }

  bool thread_safe() const override { return false; }

  std::string_view name() const override { return policy_->name(); }
  size_t capacity() const override { return policy_->capacity(); }
  CacheStats Stats() const override { return policy_->Stats(); }
  size_t ApproxMetadataBytes() const override {
    return policy_->ApproxMetadataBytes();
  }
  void CheckInvariants() override { policy_->CheckInvariants(); }

 private:
  std::unique_ptr<EvictionPolicy> policy_;
};

}  // namespace

std::unique_ptr<Cache> MakeCache(const CacheConfig& config) {
  QDLP_CHECK(config.capacity >= 1);
  const QdlpValueOptions values{.arena_bytes = config.value_arena_bytes,
                                .max_value_len = config.max_value_len,
                                .now_fn = config.now_fn};
  if (config.policy == "concurrent-qdlp-fifo") {
    return std::make_unique<ConcurrentQdLpFifo>(
        config.capacity, config.num_stripes, config.num_shards, values);
  }
  if (config.policy == "concurrent-clock") {
    return std::make_unique<ConcurrentClockCache>(
        config.capacity, config.clock_bits, config.num_stripes,
        config.num_shards, values);
  }
  if (config.policy == "concurrent-s3fifo") {
    return std::make_unique<ConcurrentS3FifoCache>(
        config.capacity, config.num_stripes, config.num_shards, values);
  }
  // Only the lock-free designs keep a value store; a value arena on any
  // other policy is a configuration error, reported as unknown.
  if (config.value_arena_bytes > 0) {
    return nullptr;
  }
  if (config.policy == "global-lock-lru" || config.policy == "sharded-lru") {
    return std::make_unique<ShardedLruCache>(
        config.capacity,
        config.policy == "sharded-lru" ? config.num_shards : 1);
  }
  std::unique_ptr<EvictionPolicy> policy =
      MakePolicy(config.policy, config.capacity, config.trace);
  if (policy == nullptr) {
    return nullptr;
  }
  return std::make_unique<PolicyCacheAdapter>(std::move(policy));
}

uint64_t ReplayTrace(Cache& cache, const std::vector<ObjectId>& ids) {
  uint64_t hits = 0;
  for (const ObjectId id : ids) {
    hits += cache.GetOrAdmit(id) ? 1 : 0;
  }
  return hits;
}

}  // namespace qdlp
