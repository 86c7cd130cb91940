// Unified Cache API tests: MakeCache routing, adapter fidelity against the
// raw engines, the uniform Delete() oracle across every concurrent engine,
// and the value-storing engine over each lock-free design (bytes, TTLs,
// size limits).

#include "src/core/cache_api.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/concurrent/concurrent_qdlp_fifo.h"
#include "src/core/policy_factory.h"
#include "src/policies/eviction_policy.h"
#include "src/trace/generators.h"

namespace qdlp {
namespace {

// Injectable TTL clock: CacheConfig::now_fn is a plain function pointer,
// so the fake steps a file-level atomic.
std::atomic<uint64_t> g_fake_now{0};
uint64_t FakeNow() { return g_fake_now.load(std::memory_order_relaxed); }

// The lock-free designs, each of which serves values.
constexpr const char* kValueDesigns[] = {
    "concurrent-qdlp-fifo", "concurrent-clock", "concurrent-s3fifo"};

CacheConfig ValueConfig(const char* policy, size_t capacity) {
  CacheConfig config;
  config.policy = policy;
  config.capacity = capacity;
  config.num_stripes = 4;
  config.num_shards = 1;
  config.value_arena_bytes = 1 << 20;
  config.max_value_len = 4096;
  config.now_fn = &FakeNow;
  return config;
}

TEST(CacheApiTest, MakeCacheRoutesSerialPolicies) {
  CacheConfig config;
  config.policy = "lru";
  config.capacity = 64;
  std::unique_ptr<Cache> cache = MakeCache(config);
  ASSERT_NE(cache, nullptr);
  EXPECT_FALSE(cache->thread_safe());
  EXPECT_FALSE(cache->stores_values());
  EXPECT_EQ(cache->capacity(), 64u);
  EXPECT_FALSE(cache->GetOrAdmit(1));
  EXPECT_TRUE(cache->GetOrAdmit(1));
}

TEST(CacheApiTest, MakeCacheRoutesConcurrentEngines) {
  for (const char* name :
       {"concurrent-qdlp-fifo", "concurrent-clock", "concurrent-s3fifo",
        "global-lock-lru", "sharded-lru"}) {
    CacheConfig config;
    config.policy = name;
    config.capacity = 128;
    config.num_shards = 2;
    std::unique_ptr<Cache> cache = MakeCache(config);
    ASSERT_NE(cache, nullptr) << name;
    EXPECT_TRUE(cache->thread_safe()) << name;
    EXPECT_FALSE(cache->stores_values()) << name;
  }
}

TEST(CacheApiTest, MakeCacheRejectsBadConfigs) {
  CacheConfig config;
  config.capacity = 64;
  config.policy = "no-such-policy";
  EXPECT_EQ(MakeCache(config), nullptr);
  config.policy = "belady";  // requires a trace
  EXPECT_EQ(MakeCache(config), nullptr);
  // A value arena on a serial policy or an LRU is a config error.
  config.value_arena_bytes = 1 << 20;
  for (const char* policy : {"lru", "sharded-lru"}) {
    config.policy = policy;
    EXPECT_EQ(MakeCache(config), nullptr) << policy;
  }
}

// Caps a death-test child's address space at 2 GiB, so that a capacity
// check placed after the index allocation fails on that allocation, with
// another message, instead of drawing tens of GiB from the machine. ASan
// and TSan reserve terabytes of shadow address space up front, so under
// them the cap is left off.
void CapAddressSpace() {
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  const rlim_t bytes = rlim_t{2} << 30;
  const rlimit limit{bytes, bytes};
  setrlimit(RLIMIT_AS, &limit);
#endif
}

// Index values carry tag bits, so capacity stays below 2^30. Both cores
// check that before they size anything for the capacity: at 2^30 the
// index alone would take tens of GiB.
TEST(CacheApiDeathTest, CapacityBoundIsCheckedBeforeAnyAllocation) {
  for (const char* policy : {"concurrent-qdlp-fifo", "qd-lp-fifo"}) {
    CacheConfig config;
    config.policy = policy;
    config.capacity = size_t{1} << 30;
    EXPECT_DEATH(
        {
          CapAddressSpace();
          MakeCache(config);
        },
        "capacity must be below 2\\^30")
        << policy;
  }
}

TEST(CacheApiTest, MakeCacheRoutesValueEngine) {
  for (const char* policy : kValueDesigns) {
    std::unique_ptr<Cache> cache = MakeCache(ValueConfig(policy, 100));
    ASSERT_NE(cache, nullptr) << policy;
    EXPECT_EQ(cache->name(), policy);
    EXPECT_TRUE(cache->thread_safe()) << policy;
    EXPECT_TRUE(cache->stores_values()) << policy;
  }
}

// The serial adapter must be a transparent shim: replaying a trace through
// Cache::GetOrAdmit gives bit-identical hits and stats to driving the raw
// EvictionPolicy directly.
TEST(CacheApiTest, SerialAdapterMatchesRawPolicy) {
  ZipfTraceConfig trace_config;
  trace_config.num_requests = 20000;
  trace_config.num_objects = 2000;
  trace_config.seed = 7;
  const Trace trace = GenerateZipf(trace_config);
  for (const char* name : {"lru", "s3fifo", "qd-lp-fifo", "sieve"}) {
    CacheConfig config;
    config.policy = name;
    config.capacity = 200;
    std::unique_ptr<Cache> cache = MakeCache(config);
    ASSERT_NE(cache, nullptr) << name;
    std::unique_ptr<EvictionPolicy> raw = MakePolicy(name, 200);
    ASSERT_NE(raw, nullptr) << name;
    uint64_t raw_hits = 0;
    for (const ObjectId id : trace.requests) {
      raw_hits += raw->Access(id) ? 1 : 0;
    }
    const uint64_t api_hits = ReplayTrace(*cache, trace.requests);
    EXPECT_EQ(api_hits, raw_hits) << name;
    const CacheStats api_stats = cache->Stats();
    const CacheStats raw_stats = raw->Stats();
    EXPECT_EQ(api_stats.requests, raw_stats.requests) << name;
    EXPECT_EQ(api_stats.hits, raw_stats.hits) << name;
    EXPECT_EQ(api_stats.misses, raw_stats.misses) << name;
    EXPECT_EQ(api_stats.evictions, raw_stats.evictions) << name;
    EXPECT_EQ(api_stats.size, raw_stats.size) << name;
    cache->CheckInvariants();
  }
}

// Same for the concurrent adapter, against a raw ConcurrentQdLpFifo.
TEST(CacheApiTest, ConcurrentAdapterMatchesRawEngine) {
  ZipfTraceConfig trace_config;
  trace_config.num_requests = 20000;
  trace_config.num_objects = 2000;
  trace_config.seed = 11;
  const Trace trace = GenerateZipf(trace_config);
  CacheConfig config;
  config.policy = "concurrent-qdlp-fifo";
  config.capacity = 200;
  config.num_stripes = 4;
  config.num_shards = 1;
  std::unique_ptr<Cache> cache = MakeCache(config);
  ASSERT_NE(cache, nullptr);
  ConcurrentQdLpFifo raw(200, /*num_stripes=*/4, /*num_shards=*/1);
  uint64_t raw_hits = 0;
  for (const ObjectId id : trace.requests) {
    raw_hits += raw.Get(id) ? 1 : 0;
  }
  EXPECT_EQ(ReplayTrace(*cache, trace.requests), raw_hits);
  EXPECT_EQ(cache->Stats().hits, raw.Stats().hits);
  EXPECT_EQ(cache->Stats().size, raw.Stats().size);
}

// Every concurrent engine, and every serial engine of a design the
// concurrent caches share (CacheConfig's default, qd-lp-fifo, among them),
// supports Delete() uniformly — no SupportsRemoval() escape hatch.
// Fresh-key delete must succeed, double delete must fail, and deleting
// every key ever admitted must drain the cache to size 0 (exercising
// mid-queue unlink in every region under churn).
TEST(CacheApiTest, UniformDeleteOracleAcrossEngines) {
  for (const char* name :
       {"concurrent-qdlp-fifo", "concurrent-clock", "concurrent-s3fifo",
        "global-lock-lru", "sharded-lru", "fifo-reinsertion", "clock2",
        "s3fifo", "qd-lp-fifo"}) {
    CacheConfig config;
    config.policy = name;
    config.capacity = 100;
    config.num_stripes = 4;
    config.num_shards = 2;
    std::unique_ptr<Cache> cache = MakeCache(config);
    ASSERT_NE(cache, nullptr) << name;

    // A just-admitted key in an otherwise idle cache is always removable.
    for (ObjectId key = 1; key <= 20; ++key) {
      cache->Set(key, "", 0);
      EXPECT_TRUE(cache->Delete(key)) << name << " key " << key;
      EXPECT_FALSE(cache->Delete(key)) << name << " key " << key;
    }
    EXPECT_EQ(cache->Stats().size, 0u) << name;

    // Churn far past capacity, touching every other key twice so some are
    // promoted/accessed, then delete the whole universe.
    constexpr ObjectId kUniverse = 400;
    for (ObjectId key = 0; key < kUniverse; ++key) {
      cache->GetOrAdmit(key);
      if (key % 2 == 0) {
        cache->GetOrAdmit(key);
      }
    }
    for (ObjectId key = 0; key < kUniverse; ++key) {
      cache->Delete(key);  // true or false — the key may have been evicted
    }
    EXPECT_EQ(cache->Stats().size, 0u) << name;
    cache->CheckInvariants();
  }
}

// Metadata adapters route Set through the blocking Admit path, so the key
// is resident when Set returns — even though the lock-free Get miss path
// is best-effort under contention. Single-threaded, the stats must be
// pinned exactly as if Get had run: one miss for the Set, one hit after.
TEST(CacheApiTest, MetadataAdapterSetIsResidentOnReturn) {
  for (const char* name :
       {"concurrent-qdlp-fifo", "concurrent-clock", "concurrent-s3fifo",
        "global-lock-lru", "sharded-lru"}) {
    CacheConfig config;
    config.policy = name;
    config.capacity = 64;
    config.num_stripes = 4;
    config.num_shards = 2;
    std::unique_ptr<Cache> cache = MakeCache(config);
    ASSERT_NE(cache, nullptr) << name;
    EXPECT_EQ(cache->Set(7, "", 0), Cache::SetStatus::kOk) << name;
    EXPECT_TRUE(cache->GetOrAdmit(7)) << name;  // resident: a hit
    const CacheStats stats = cache->Stats();
    EXPECT_EQ(stats.hits, 1u) << name;
    EXPECT_EQ(stats.misses, 1u) << name;
    EXPECT_EQ(stats.inserts, 1u) << name;
    EXPECT_EQ(stats.size, 1u) << name;
    cache->CheckInvariants();
  }
}

// Regression: small values used to carve the arena into small buddy
// classes permanently — a later max-size SET would evict the entire shard
// and still fail kNoSpace. With coalescing, evictions reassemble a
// max-size chunk and the SET succeeds.
TEST(CacheApiTest, ValueEngineServesLargeValueAfterSmallChurn) {
  for (const char* policy : kValueDesigns) {
    CacheConfig config = ValueConfig(policy, 1024);
    config.value_arena_bytes = 32 << 10;
    config.max_value_len = 16 << 10;
    std::unique_ptr<Cache> cache = MakeCache(config);
    ASSERT_NE(cache, nullptr) << policy;
    for (ObjectId key = 1; key <= 600; ++key) {
      ASSERT_EQ(cache->Set(key, std::string(40, 'a'), 0),
                Cache::SetStatus::kOk)
          << policy << " key " << key;
    }
    const std::string big(16 << 10, 'B');
    EXPECT_EQ(cache->Set(9999, big, 0), Cache::SetStatus::kOk) << policy;
    std::string value;
    ASSERT_TRUE(cache->Get(9999, &value)) << policy;
    EXPECT_EQ(value, big) << policy;
    cache->CheckInvariants();
  }
}

TEST(CacheApiTest, ValueEngineServesBytes) {
  for (const char* policy : kValueDesigns) {
    std::unique_ptr<Cache> cache = MakeCache(ValueConfig(policy, 100));
    ASSERT_NE(cache, nullptr) << policy;
    EXPECT_EQ(cache->Set(1, "alpha", 0), Cache::SetStatus::kOk) << policy;
    EXPECT_EQ(cache->Set(2, std::string(1000, 'b'), 0),
              Cache::SetStatus::kOk)
        << policy;
    std::string value;
    ASSERT_TRUE(cache->Get(1, &value)) << policy;
    EXPECT_EQ(value, "alpha") << policy;
    ASSERT_TRUE(cache->Get(2, &value)) << policy;
    EXPECT_EQ(value, std::string(1000, 'b')) << policy;
    // Overwrite replaces the bytes.
    EXPECT_EQ(cache->Set(1, "alpha-v2", 0), Cache::SetStatus::kOk) << policy;
    ASSERT_TRUE(cache->Get(1, &value)) << policy;
    EXPECT_EQ(value, "alpha-v2") << policy;
    // Delete removes key and bytes.
    EXPECT_TRUE(cache->Delete(1)) << policy;
    EXPECT_FALSE(cache->Get(1, &value)) << policy;
    cache->CheckInvariants();
  }
}

// A serving GET carries nothing to store, so a miss must NOT admit —
// unlike GetOrAdmit. This is what makes the loopback differential
// (server_e2e_test) byte-identical: both sides count a miss and move on.
TEST(CacheApiTest, ValueEngineGetMissDoesNotAdmit) {
  for (const char* policy : kValueDesigns) {
    std::unique_ptr<Cache> cache = MakeCache(ValueConfig(policy, 100));
    std::string value;
    EXPECT_FALSE(cache->Get(42, &value)) << policy;
    const CacheStats stats = cache->Stats();
    EXPECT_EQ(stats.misses, 1u) << policy;
    EXPECT_EQ(stats.inserts, 0u) << policy;
    EXPECT_EQ(stats.size, 0u) << policy;
    EXPECT_FALSE(cache->Get(42, &value)) << policy;  // still absent
  }
}

TEST(CacheApiTest, ValueEngineHonorsTtl) {
  for (const char* policy : kValueDesigns) {
    g_fake_now.store(1000, std::memory_order_relaxed);
    std::unique_ptr<Cache> cache = MakeCache(ValueConfig(policy, 100));
    EXPECT_EQ(cache->Set(1, "expiring", /*ttl_seconds=*/10),
              Cache::SetStatus::kOk)
        << policy;
    EXPECT_EQ(cache->Set(2, "forever", /*ttl_seconds=*/0),
              Cache::SetStatus::kOk)
        << policy;
    std::string value;
    g_fake_now.store(1009, std::memory_order_relaxed);
    EXPECT_TRUE(cache->Get(1, &value)) << policy;
    EXPECT_EQ(value, "expiring") << policy;
    g_fake_now.store(1010, std::memory_order_relaxed);
    // Lazy expiry counts as a miss; ttl 0 never expires.
    EXPECT_FALSE(cache->Get(1, &value)) << policy;
    EXPECT_TRUE(cache->Get(2, &value)) << policy;
    EXPECT_EQ(value, "forever") << policy;
    // The expired object was removed, not just hidden: a re-set revives it.
    EXPECT_EQ(cache->Set(1, "reborn", 0), Cache::SetStatus::kOk) << policy;
    EXPECT_TRUE(cache->Get(1, &value)) << policy;
    EXPECT_EQ(value, "reborn") << policy;
    cache->CheckInvariants();
  }
  g_fake_now.store(0, std::memory_order_relaxed);
}

TEST(CacheApiTest, ValueEngineRejectsOversizedValues) {
  for (const char* policy : kValueDesigns) {
    CacheConfig config = ValueConfig(policy, 100);
    config.max_value_len = 64;
    std::unique_ptr<Cache> cache = MakeCache(config);
    EXPECT_EQ(cache->Set(1, std::string(65, 'x'), 0),
              Cache::SetStatus::kTooLarge)
        << policy;
    EXPECT_EQ(cache->Set(1, std::string(64, 'x'), 0), Cache::SetStatus::kOk)
        << policy;
    std::string value;
    EXPECT_TRUE(cache->Get(1, &value)) << policy;
    EXPECT_EQ(value, std::string(64, 'x')) << policy;
  }
}

// Value churn well past both object capacity and arena capacity: every
// surviving object must read back exactly the bytes last stored for it.
TEST(CacheApiTest, ValueEngineChurnKeepsValuesConsistent) {
  for (const char* policy : kValueDesigns) {
    CacheConfig config = ValueConfig(policy, 64);
    config.value_arena_bytes = 64 << 10;
    config.num_shards = 2;
    std::unique_ptr<Cache> cache = MakeCache(config);
    ASSERT_NE(cache, nullptr) << policy;
    constexpr ObjectId kUniverse = 256;
    std::vector<std::string> last(kUniverse);
    for (int round = 0; round < 4; ++round) {
      for (ObjectId key = 0; key < kUniverse; ++key) {
        std::string value = "r";
        value.append(std::to_string(round)).append("k");
        value.append(std::to_string(key));
        value.append(key % 97, static_cast<char>('A' + round));
        if (cache->Set(key, value, 0) == Cache::SetStatus::kOk) {
          last[key] = std::move(value);
        }
      }
      for (ObjectId key = 0; key < kUniverse; key += 3) {
        std::string value;
        if (cache->Get(key, &value)) {
          EXPECT_EQ(value, last[key])
              << policy << " round " << round << " key " << key;
        }
      }
      cache->CheckInvariants();
    }
  }
}

}  // namespace
}  // namespace qdlp
