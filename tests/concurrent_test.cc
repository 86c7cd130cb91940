// Thread-safe caches: single-thread semantics, multi-thread stress, and
// agreement with the sequential policies where applicable.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/concurrent/concurrent_clock.h"
#include "src/concurrent/concurrent_qdlp_fifo.h"
#include "src/concurrent/concurrent_s3fifo.h"
#include "src/concurrent/sharded_lru.h"
#include "src/policies/lru.h"
#include "src/trace/generators.h"
#include "src/util/random.h"
#include "src/util/zipf.h"

namespace qdlp {
namespace {

TEST(GlobalLockLruTest, MatchesSequentialLruSingleThreaded) {
  ZipfTraceConfig config;
  config.num_requests = 20000;
  config.num_objects = 500;
  config.seed = 401;
  const Trace trace = GenerateZipf(config);
  ShardedLruCache concurrent(100, 1);
  LruPolicy sequential(100);
  for (const ObjectId id : trace.requests) {
    ASSERT_EQ(concurrent.GetOrAdmit(id), sequential.Access(id));
  }
}

class ConcurrentStressTest
    : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<Cache> MakeCache(size_t capacity) {
    const std::string& kind = GetParam();
    if (kind == "global-lru") {
      return std::make_unique<ShardedLruCache>(capacity, 1);
    }
    if (kind == "sharded-lru") {
      return std::make_unique<ShardedLruCache>(capacity, 8);
    }
    if (kind == "qdlp") {
      return std::make_unique<ConcurrentQdLpFifo>(capacity, 8);
    }
    if (kind == "s3fifo") {
      return std::make_unique<ConcurrentS3FifoCache>(capacity, 8);
    }
    return std::make_unique<ConcurrentClockCache>(capacity, 1, 8);
  }
};

TEST_P(ConcurrentStressTest, ParallelHammerProducesSaneHitCounts) {
  constexpr size_t kCapacity = 2000;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 50000;
  auto cache = MakeCache(kCapacity);
  std::atomic<uint64_t> hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      ZipfSampler zipf(10000, 1.0);
      uint64_t local_hits = 0;
      for (int i = 0; i < kOpsPerThread; ++i) {
        local_hits += cache->GetOrAdmit(zipf.Sample(rng)) ? 1 : 0;
      }
      hits.fetch_add(local_hits);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const double hit_ratio = static_cast<double>(hits.load()) /
                           (static_cast<double>(kThreads) * kOpsPerThread);
  // Zipf(1.0) over 10k keys with a 2k cache: hit ratio lands well inside
  // (0.5, 0.99) for any sane policy; 0 or 1 would indicate corruption.
  EXPECT_GT(hit_ratio, 0.5);
  EXPECT_LT(hit_ratio, 0.99);
}

TEST_P(ConcurrentStressTest, DisjointKeySpacesDoNotInterfere) {
  constexpr size_t kCapacity = 4000;
  constexpr int kThreads = 4;
  auto cache = MakeCache(kCapacity);
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread loops over a private working set much smaller than its
      // fair share; after warmup, everything must be a hit.
      const ObjectId base = static_cast<ObjectId>(t) << 32;
      constexpr int kSetSize = 200;
      for (int round = 0; round < 50; ++round) {
        for (int k = 0; k < kSetSize; ++k) {
          const bool hit = cache->GetOrAdmit(base + static_cast<ObjectId>(k));
          if (round > 10 && !hit) {
            // A miss after warmup means another thread's keys displaced ours
            // (possible under global eviction, but should be rare with
            // capacity 4000 vs 800 live keys). Count gross failures only.
            failed.store(true);
          }
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_FALSE(failed.load());
}

INSTANTIATE_TEST_SUITE_P(Kinds, ConcurrentStressTest,
                         ::testing::Values("global-lru", "sharded-lru",
                                           "clock", "qdlp", "s3fifo"));

TEST(ConcurrentClockTest, SingleThreadBehavesLikeClock) {
  // With one shard and one thread the concurrent clock is a plain CLOCK; we
  // check the second-chance property rather than exact slot equivalence.
  ConcurrentClockCache cache(3, 1, 1);
  cache.GetOrAdmit(1);
  cache.GetOrAdmit(2);
  cache.GetOrAdmit(3);
  EXPECT_TRUE(cache.GetOrAdmit(1));   // protect 1
  EXPECT_FALSE(cache.GetOrAdmit(4));  // evicts 2 (first zero-counter after 1)
  EXPECT_TRUE(cache.GetOrAdmit(1));
  EXPECT_TRUE(cache.GetOrAdmit(3));
  EXPECT_TRUE(cache.GetOrAdmit(4));
}

// A removed object's slot is the next admission's (RefClock's holes, pinned
// with removals by RemovalDifferentialTest). Evicting a live object while a
// slot is free would lose object 1.
TEST(ConcurrentClockTest, RemovedSlotIsReusedBeforeEvicting) {
  ConcurrentClockCache cache(4, /*bits=*/1, /*num_stripes=*/1);
  for (ObjectId id = 1; id <= 4; ++id) {
    cache.GetOrAdmit(id);
  }
  ASSERT_TRUE(cache.Delete(2));
  EXPECT_FALSE(cache.GetOrAdmit(5));
  EXPECT_EQ(cache.Stats().size, 4u);
  EXPECT_TRUE(cache.GetOrAdmit(1));
  cache.CheckInvariants();
}

TEST(ConcurrentClockTest, CapacityEnforcedUnderThreads) {
  constexpr size_t kCapacity = 500;
  ConcurrentClockCache cache(kCapacity, 2, 8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(2000 + static_cast<uint64_t>(t));
      for (int i = 0; i < 30000; ++i) {
        cache.GetOrAdmit(rng.NextBounded(5000));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  // Every key must still be resolvable without crashes; spot-check gets.
  for (ObjectId id = 0; id < 100; ++id) {
    cache.GetOrAdmit(id);
  }
  SUCCEED();
}

TEST(ShardedLruTest, CapacityDistributedAcrossShards) {
  ShardedLruCache cache(10, 3);  // 4+3+3
  // Insert many keys; no crash, and hits work.
  for (ObjectId id = 0; id < 1000; ++id) {
    cache.GetOrAdmit(id);
  }
  cache.GetOrAdmit(999);
  SUCCEED();
}

// Regression: per-shard capacity must never truncate to zero and the shard
// capacities must sum to the requested total. With integer division alone,
// capacity 10 over 16 shards gave every shard zero slots (nothing was ever
// cacheable) and capacity 10 over 3 shards summed to 9.
TEST(ShardedLruTest, CapacityNotTruncatedWithMoreShardsThanObjects) {
  ShardedLruCache cache(10, 16);  // shards clamp to 10, one slot each
  EXPECT_FALSE(cache.GetOrAdmit(42));
  EXPECT_TRUE(cache.GetOrAdmit(42)) << "a just-admitted key must hit";
  cache.CheckInvariants();  // asserts sum(shard capacities) == 10
}

TEST(ShardedLruTest, RemainderCapacityIsDistributed) {
  // 7 over 3 shards: 3+2+2, not 2+2+2.
  ShardedLruCache cache(7, 3);
  cache.CheckInvariants();
  for (ObjectId id = 0; id < 100; ++id) {
    cache.GetOrAdmit(id);
  }
  cache.CheckInvariants();
  // Sum of shard sizes can reach the full 7 under a spread key set.
  ShardedLruCache one_each(5, 5);
  one_each.CheckInvariants();
}

// A zero capacity must be rejected before the shard count is clamped to
// it: a cache with no shards has nothing for GetOrAdmit() to hash into.
TEST(ShardedLruTest, ZeroCapacityIsACheckedError) {
  EXPECT_DEATH(ShardedLruCache(0, 4), "QDLP_CHECK failed");
  EXPECT_DEATH(ShardedLruCache(0, 1), "QDLP_CHECK failed");
}

}  // namespace
}  // namespace qdlp
