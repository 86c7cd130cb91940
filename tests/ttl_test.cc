// Removal support (FIFO/LRU/CLOCK) and the TTL layer.

#include <gtest/gtest.h>

#include <memory>

#include "src/core/policy_factory.h"
#include "src/core/ttl_cache.h"
#include "src/policies/fifo.h"
#include "src/policies/lru.h"
#include "src/util/random.h"

namespace qdlp {
namespace {

TEST(RemovalTest, LruRemove) {
  LruPolicy lru(4);
  lru.Access(1);
  lru.Access(2);
  EXPECT_TRUE(lru.Remove(1));
  EXPECT_FALSE(lru.Contains(1));
  EXPECT_EQ(lru.size(), 1u);
  EXPECT_FALSE(lru.Remove(1));  // already gone
  EXPECT_FALSE(lru.Access(1));  // re-admission works
}

TEST(RemovalTest, FifoRemoveWithStaleQueueRecords) {
  FifoPolicy fifo(3);
  fifo.Access(1);
  fifo.Access(2);
  fifo.Access(3);
  EXPECT_TRUE(fifo.Remove(2));
  EXPECT_EQ(fifo.size(), 2u);
  // Readmit 2: its stale queue record must not cause a premature eviction.
  fifo.Access(2);  // order is now 1, 3, 2
  fifo.Access(4);  // evicts 1
  EXPECT_FALSE(fifo.Contains(1));
  EXPECT_TRUE(fifo.Contains(3));
  EXPECT_TRUE(fifo.Contains(2));
  fifo.Access(5);  // evicts 3
  EXPECT_FALSE(fifo.Contains(3));
  EXPECT_TRUE(fifo.Contains(2));  // 2's new position is behind 3's
}

TEST(RemovalTest, ClockRemoveFreesSlot) {
  const auto clock = MakePolicy("fifo-reinsertion", 3);
  clock->Access(1);
  clock->Access(2);
  clock->Access(3);
  EXPECT_TRUE(clock->Remove(2));
  EXPECT_EQ(clock->size(), 2u);
  clock->Access(4);  // reuses the freed slot: no eviction
  EXPECT_EQ(clock->size(), 3u);
  EXPECT_TRUE(clock->Contains(1));
  EXPECT_TRUE(clock->Contains(3));
  EXPECT_TRUE(clock->Contains(4));
}

TEST(RemovalTest, ClockRemoveUnderChurn) {
  const auto clock = MakePolicy("clock2", 16);
  Rng rng(821);
  for (int i = 0; i < 20000; ++i) {
    const ObjectId id = rng.NextBounded(100);
    if (rng.NextBool(0.1)) {
      clock->Remove(id);
    } else {
      clock->Access(id);
    }
    ASSERT_LE(clock->size(), 16u);
  }
}

TEST(RemovalTest, DefaultPoliciesReportNoSupport) {
  auto arc = MakePolicy("arc", 10);
  EXPECT_FALSE(arc->SupportsRemoval());
  EXPECT_FALSE(arc->Remove(1));
}

TEST(TtlCacheTest, FreshHitThenExpiry) {
  TtlCache cache(std::make_unique<LruPolicy>(10));
  EXPECT_FALSE(cache.Access(1, /*ttl=*/5));
  EXPECT_TRUE(cache.Access(1, 5));  // t=2, expires at t=1+5=6
  EXPECT_TRUE(cache.ContainsFresh(1));
  // Let it expire: accesses to other ids advance the clock past 6.
  for (ObjectId id = 100; id < 105; ++id) {
    cache.Access(id, 100);
  }
  EXPECT_FALSE(cache.ContainsFresh(1));
  EXPECT_FALSE(cache.Access(1, 5));  // expired -> miss, re-admitted
  // LRU supports removal, so the expired object was eagerly reaped before
  // the re-access — the miss is a plain miss, not a stale-content hit.
  EXPECT_GE(cache.eager_expirations(), 1u);
  EXPECT_EQ(cache.expired_hits(), 0u);
  EXPECT_TRUE(cache.Access(1, 5));  // fresh again
}

TEST(TtlCacheTest, EagerExpirationFreesSpace) {
  // LRU supports removal, so expired objects leave promptly even without
  // being re-accessed. Capacity 400 keeps LRU evictions out of the picture.
  TtlCache cache(std::make_unique<LruPolicy>(400), 8);
  for (ObjectId id = 0; id < 50; ++id) {
    cache.Access(id, /*ttl=*/200);  // deadlines 201..250
  }
  EXPECT_EQ(cache.resident(), 50u);
  // 300 long-TTL accesses push the clock to 350: the whole first cohort
  // expires and must be reaped without ever being touched again.
  for (ObjectId id = 1000; id < 1300; ++id) {
    cache.Access(id, 100000);
  }
  EXPECT_EQ(cache.eager_expirations(), 50u);
  for (ObjectId id = 0; id < 50; ++id) {
    EXPECT_FALSE(cache.ContainsFresh(id));
  }
  EXPECT_EQ(cache.resident(), 300u);  // only the live cohort holds space
}

TEST(TtlCacheTest, LazyModeForNonRemovablePolicies) {
  TtlCache cache(MakePolicy("arc", 20), 8);
  cache.Access(1, 2);
  cache.Access(2, 100);
  cache.Access(3, 100);  // t=3: object 1 expired (expires at 3? t=1+2=3)
  cache.Access(4, 100);
  EXPECT_FALSE(cache.ContainsFresh(1));
  EXPECT_EQ(cache.eager_expirations(), 0u);  // no Remove support
  EXPECT_FALSE(cache.Access(1, 10));  // lazy: expired hit counted as miss
  EXPECT_EQ(cache.expired_hits(), 1u);
}

TEST(TtlCacheTest, HitsDoNotExtendTtl) {
  // Web semantics: the TTL is set when content is fetched; GETs don't
  // extend it.
  TtlCache cache(std::make_unique<LruPolicy>(10), 8);
  cache.Access(1, 3);            // t=1, expires at t=4
  EXPECT_TRUE(cache.Access(1, 100));  // t=2: fresh hit, deadline unchanged
  cache.Access(2, 100);
  cache.Access(3, 100);  // t=4: object 1's deadline passes
  EXPECT_FALSE(cache.ContainsFresh(1));
}

TEST(TtlCacheTest, ReadmissionSetsNewDeadlineAndOldHeapEntryIsStale) {
  TtlCache cache(std::make_unique<LruPolicy>(10), 8);
  cache.Access(1, 3);  // t=1, expires at t=4
  for (ObjectId id = 10; id < 16; ++id) {
    cache.Access(id, 100);  // clock to t=7; object 1 reaped
  }
  EXPECT_FALSE(cache.Access(1, 100));  // t=8: re-admitted, expires at 108
  for (ObjectId id = 20; id < 26; ++id) {
    cache.Access(id, 100);  // drain any stale heap entries for id 1
  }
  EXPECT_TRUE(cache.ContainsFresh(1));  // the old t=4 deadline must not bite
}

TEST(TtlCacheTest, ShortTtlActsAsQuickDemotion) {
  // Objects with short TTLs cannot pollute the cache for long — TTL is a
  // removal-driven form of demotion (§2/§5).
  TtlCache cache(std::make_unique<LruPolicy>(50), 8);
  Rng rng(823);
  uint64_t hot_hits = 0;
  uint64_t hot_requests = 0;
  for (int i = 0; i < 30000; ++i) {
    if (rng.NextBool(0.5)) {
      ++hot_requests;
      hot_hits += cache.Access(rng.NextBounded(40), 1000000) ? 1 : 0;
    } else {
      // Churn with 1-request TTLs: dead on arrival.
      cache.Access((1u << 28) + static_cast<ObjectId>(i), 1);
    }
  }
  // The hot set (40 objects, cache 50) should stay nearly fully resident
  // because expired churn is eagerly reaped.
  EXPECT_GT(static_cast<double>(hot_hits) / static_cast<double>(hot_requests),
            0.95);
}

}  // namespace
}  // namespace qdlp
