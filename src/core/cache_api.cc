#include "src/core/cache_api.h"

#include <time.h>

#include <utility>

#include "src/concurrent/concurrent_cache.h"
#include "src/concurrent/concurrent_clock.h"
#include "src/concurrent/concurrent_qdlp_fifo.h"
#include "src/concurrent/concurrent_s3fifo.h"
#include "src/concurrent/sharded_lru.h"
#include "src/core/policy_factory.h"
#include "src/policies/eviction_policy.h"
#include "src/util/check.h"

namespace qdlp {

namespace {

uint64_t WallClockSeconds() {
  return static_cast<uint64_t>(time(nullptr));
}

// Every adapter forwards the CacheObservable surface to the wrapped
// engine, so Stats()/CheckInvariants() mean exactly what they mean there.
template <typename Inner>
class ObservableForwarder : public Cache {
 public:
  std::string_view name() const override { return inner_->name(); }
  size_t capacity() const override { return inner_->capacity(); }
  CacheStats Stats() const override { return inner_->Stats(); }
  size_t ApproxMetadataBytes() const override {
    return inner_->ApproxMetadataBytes();
  }
  void CheckInvariants() override { inner_->CheckInvariants(); }

 protected:
  explicit ObservableForwarder(std::unique_ptr<Inner> inner)
      : inner_(std::move(inner)) {}

  std::unique_ptr<Inner> inner_;
};

// Sequential EvictionPolicy behind the unified face: Get/Set/GetOrAdmit
// all reduce to the policy's get-or-admit Access (bytes and ttl have
// nowhere to live), Delete to Remove where the policy supports it.
class PolicyCacheAdapter : public ObservableForwarder<EvictionPolicy> {
 public:
  explicit PolicyCacheAdapter(std::unique_ptr<EvictionPolicy> policy)
      : ObservableForwarder(std::move(policy)) {}

  bool Get(ObjectId key, std::string* value) override {
    if (value != nullptr) {
      value->clear();
    }
    return inner_->Access(key);
  }

  SetStatus Set(ObjectId key, std::string_view value,
                uint32_t ttl_seconds) override {
    (void)value;
    (void)ttl_seconds;
    if (!inner_->Contains(key)) {
      inner_->Access(key);
    }
    return SetStatus::kOk;
  }

  bool Delete(ObjectId key) override { return inner_->Remove(key); }

  bool GetOrAdmit(ObjectId key) override { return inner_->Access(key); }

  bool thread_safe() const override { return false; }
};

// Any ConcurrentCache behind the unified face: same reductions, but
// thread-safe and with removal guaranteed (the interface requires it).
class ConcurrentCacheAdapter : public ObservableForwarder<ConcurrentCache> {
 public:
  explicit ConcurrentCacheAdapter(std::unique_ptr<ConcurrentCache> cache)
      : ObservableForwarder(std::move(cache)) {}

  bool Get(ObjectId key, std::string* value) override {
    if (value != nullptr) {
      value->clear();
    }
    return inner_->Get(key);
  }

  SetStatus Set(ObjectId key, std::string_view value,
                uint32_t ttl_seconds) override {
    (void)value;
    (void)ttl_seconds;
    // Admit blocks on the home-domain lock on a miss, so — unlike the
    // best-effort Get miss path, which may buffer or drop the admission
    // under contention — the key really is resident when Set returns.
    inner_->Admit(key);
    return SetStatus::kOk;
  }

  bool Delete(ObjectId key) override { return inner_->Remove(key); }

  bool GetOrAdmit(ObjectId key) override { return inner_->Get(key); }

  bool thread_safe() const override { return true; }
};

// The value-storing engine: a lock-free design with its SlabStore, serving
// real bytes with lazy TTLs through DomainCache's value path. qdlpd runs
// it over concurrent-qdlp-fifo.
template <typename Design>
class QdlpdEngine : public ConcurrentCacheAdapter {
 public:
  QdlpdEngine(std::unique_ptr<Design> cache, uint64_t (*now_fn)())
      : ConcurrentCacheAdapter(std::move(cache)),
        now_fn_(now_fn != nullptr ? now_fn : &WallClockSeconds) {}

  bool Get(ObjectId key, std::string* value) override {
    std::string scratch;
    return design().GetValue(key, now_fn_(),
                             value != nullptr ? value : &scratch);
  }

  SetStatus Set(ObjectId key, std::string_view value,
                uint32_t ttl_seconds) override {
    return design().SetValue(key, value,
                             ttl_seconds == 0 ? 0 : now_fn_() + ttl_seconds);
  }

  bool stores_values() const override { return true; }

 private:
  Design& design() { return static_cast<Design&>(*inner_); }

  uint64_t (*now_fn_)();
};

// A lock-free design, built with the config's arena, behind the unified
// face: the value engine if it has one, else the metadata adapter.
template <typename Design>
std::unique_ptr<Cache> WrapLockFree(std::unique_ptr<Design> cache,
                                    const CacheConfig& config) {
  if (config.value_arena_bytes > 0) {
    return std::make_unique<QdlpdEngine<Design>>(std::move(cache),
                                                 config.now_fn);
  }
  return std::make_unique<ConcurrentCacheAdapter>(std::move(cache));
}

}  // namespace

std::unique_ptr<Cache> MakeCache(const CacheConfig& config) {
  QDLP_CHECK(config.capacity >= 1);
  const QdlpValueOptions values{.arena_bytes = config.value_arena_bytes,
                                .max_value_len = config.max_value_len};
  if (config.policy == "concurrent-qdlp-fifo") {
    return WrapLockFree(
        std::make_unique<ConcurrentQdLpFifo>(
            config.capacity, config.num_stripes, config.num_shards, values),
        config);
  }
  if (config.policy == "concurrent-clock") {
    return WrapLockFree(std::make_unique<ConcurrentClockCache>(
                            config.capacity, config.clock_bits,
                            config.num_stripes, config.num_shards, values),
                        config);
  }
  if (config.policy == "concurrent-s3fifo") {
    return WrapLockFree(
        std::make_unique<ConcurrentS3FifoCache>(
            config.capacity, config.num_stripes, config.num_shards, values),
        config);
  }
  // Only the lock-free designs keep a value store; a value arena on any
  // other policy is a configuration error, reported as unknown.
  if (config.value_arena_bytes > 0) {
    return nullptr;
  }
  if (config.policy == "global-lock-lru" || config.policy == "sharded-lru") {
    return std::make_unique<ConcurrentCacheAdapter>(
        std::make_unique<ShardedLruCache>(
            config.capacity,
            config.policy == "sharded-lru" ? config.num_shards : 1));
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
