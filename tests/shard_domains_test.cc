// Sharded eviction domains (eviction_domains.h): with S > 1 each domain is
// an independent cache over its hash partition of the id space, so a
// single-threaded replay partitioned by ShardOf(id) must match S
// independent sequential reference models sized to the shards' capacity
// shares — the sharded generalization of the S == 1 oracle differential
// tests. Plus: capacity-share arithmetic (remainder distribution, tiny-cache
// clamping), the quiescent contention-counter identities that pin the
// telemetry's meaning (docs/OBSERVABILITY.md), and the drain path: a
// buffered miss is admitted by the next holder of its domain's lock.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/concurrent/concurrent_clock.h"
#include "src/concurrent/concurrent_qdlp_fifo.h"
#include "src/concurrent/concurrent_s3fifo.h"
#include "src/obs/cache_stats.h"
#include "src/trace/generators.h"
#include "tests/oracle/reference_models.h"

namespace qdlp {
namespace {

Trace MakeTrace(uint64_t seed) {
  ZipfTraceConfig config;
  config.num_requests = 25000;
  config.num_objects = 1200;
  config.skew = 0.9;
  config.seed = seed;
  return GenerateZipf(config);
}

// Mirrors ConcurrentQdLpFifo's per-share split (concurrent_qdlp_fifo.cc):
// probation = clamp(round(0.10 * share), 1, share - 1), main the rest,
// ghost as large as main.
size_t QdLpProbationShare(size_t share) {
  const size_t probation = std::max<size_t>(
      1,
      static_cast<size_t>(std::llround(static_cast<double>(share) * 0.10)));
  return std::min(probation, share - 1);
}

// Quiescent single-threaded identities: the miss path's try_lock always
// succeeds (nothing ever buffers or drops), so the contention counters
// must read as pure bookkeeping — one acquisition per miss and zeros
// everywhere else. These are the assertions that make buffer_drops
// and friends trustworthy when a concurrent run reports them nonzero.
void ExpectQuiescentContentionCounters(const CacheStats& stats,
                                       const char* label) {
  EXPECT_EQ(stats.lock_acquisitions, stats.misses) << label;
  EXPECT_EQ(stats.lock_failures, 0u) << label;
  EXPECT_EQ(stats.buffer_drops, 0u) << label;
  EXPECT_EQ(stats.drain_batch_le8, 0u) << label;
  EXPECT_EQ(stats.drain_batch_le64, 0u) << label;
  EXPECT_EQ(stats.drain_batch_gt64, 0u) << label;
}

// Replays `trace` through `cache` and through one sequential oracle per
// shard (requests routed by ShardOf), asserting per-request agreement.
template <typename CacheT>
void ExpectMatchesPerShardOracles(
    CacheT& cache,
    const std::vector<std::unique_ptr<oracle::ReferenceModel>>& oracles,
    const Trace& trace, const char* label) {
  ASSERT_EQ(oracles.size(), cache.num_shards()) << label;
  for (size_t i = 0; i < trace.requests.size(); ++i) {
    const ObjectId id = trace.requests[i];
    const size_t s = cache.ShardOf(id);
    ASSERT_EQ(cache.GetOrAdmit(id), oracles[s]->Access(id))
        << label << ": diverged at request " << i << " (shard " << s << ")";
    if (i % 4999 == 0) {
      cache.CheckInvariants();
    }
  }
  cache.CheckInvariants();
  size_t oracle_total = 0;
  for (const auto& oracle : oracles) {
    oracle_total += oracle->size();
  }
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.size, oracle_total) << label;
  ExpectQuiescentContentionCounters(stats, label);
}

class ShardSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ShardSweepTest, ClockMatchesPerShardReferences) {
  const size_t requested_shards = GetParam();
  constexpr size_t kCapacity = 240;
  ConcurrentClockCache cache(kCapacity, /*bits=*/1, /*num_stripes=*/16,
                             requested_shards);
  EXPECT_EQ(cache.num_shards(), requested_shards);
  std::vector<std::unique_ptr<oracle::ReferenceModel>> oracles;
  for (size_t s = 0; s < cache.num_shards(); ++s) {
    oracles.push_back(
        std::make_unique<oracle::RefClock>(cache.shard_capacity(s), 1));
  }
  const Trace trace = MakeTrace(7100 + requested_shards);
  ExpectMatchesPerShardOracles(cache, oracles, trace, "clock");
}

TEST_P(ShardSweepTest, S3FifoMatchesPerShardReferences) {
  const size_t requested_shards = GetParam();
  constexpr size_t kCapacity = 240;
  ConcurrentS3FifoCache cache(kCapacity, /*num_stripes=*/16,
                              requested_shards);
  EXPECT_EQ(cache.num_shards(), requested_shards);
  std::vector<std::unique_ptr<oracle::ReferenceModel>> oracles;
  for (size_t s = 0; s < cache.num_shards(); ++s) {
    oracles.push_back(std::make_unique<oracle::RefS3Fifo>(
        cache.shard_capacity(s), 0.10, 0.9));
  }
  const Trace trace = MakeTrace(7200 + requested_shards);
  ExpectMatchesPerShardOracles(cache, oracles, trace, "s3fifo");
}

TEST_P(ShardSweepTest, QdLpFifoMatchesPerShardReferences) {
  const size_t requested_shards = GetParam();
  constexpr size_t kCapacity = 240;
  ConcurrentQdLpFifo cache(kCapacity, /*num_stripes=*/16, requested_shards);
  EXPECT_EQ(cache.num_shards(), requested_shards);
  std::vector<std::unique_ptr<oracle::ReferenceModel>> oracles;
  for (size_t s = 0; s < cache.num_shards(); ++s) {
    const size_t share = cache.shard_capacity(s);
    const size_t probation = QdLpProbationShare(share);
    const size_t main = share - probation;
    oracles.push_back(
        std::make_unique<oracle::RefQdLpFifo>(probation, main, main));
  }
  const Trace trace = MakeTrace(7300 + requested_shards);
  ExpectMatchesPerShardOracles(cache, oracles, trace, "qd-lp-fifo");
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardSweepTest,
                         ::testing::Values(1, 2, 8));

TEST(ShardDomainsTest, CapacitySharesUseRemainderDistribution) {
  // 101 over 8 shards: 5 shards of 13, 3 of 12 — shares sum exactly and
  // never differ by more than one (ShardedLru's rule).
  ConcurrentClockCache cache(101, /*bits=*/1, /*num_stripes=*/16,
                             /*num_shards=*/8);
  ASSERT_EQ(cache.num_shards(), 8u);
  size_t total = 0;
  size_t min_share = static_cast<size_t>(-1);
  size_t max_share = 0;
  for (size_t s = 0; s < cache.num_shards(); ++s) {
    const size_t share = cache.shard_capacity(s);
    total += share;
    min_share = std::min(min_share, share);
    max_share = std::max(max_share, share);
  }
  EXPECT_EQ(total, 101u);
  EXPECT_EQ(min_share, 12u);
  EXPECT_EQ(max_share, 13u);
}

TEST(ShardDomainsTest, TinyCachesClampTheShardCount) {
  // QD-LP-FIFO needs >= 2 slots per shard (probation + main); a capacity-8
  // cache asked for 8 shards must degrade rather than create 1-slot shards.
  ConcurrentQdLpFifo tiny(8, /*num_stripes=*/16, /*num_shards=*/8);
  EXPECT_EQ(tiny.num_shards(), 4u);
  for (size_t s = 0; s < tiny.num_shards(); ++s) {
    EXPECT_GE(tiny.shard_capacity(s), 2u);
  }
  // Non-power-of-two requests round up (5 -> 8).
  ConcurrentClockCache rounded(1000, /*bits=*/1, /*num_stripes=*/16,
                               /*num_shards=*/5);
  EXPECT_EQ(rounded.num_shards(), 8u);
}

TEST(ShardDomainsTest, ShardSelectionIsStableAndInRange) {
  ConcurrentQdLpFifo cache(256, /*num_stripes=*/16, /*num_shards=*/8);
  for (ObjectId id = 0; id < 10000; ++id) {
    const size_t s = cache.ShardOf(id);
    EXPECT_LT(s, cache.num_shards());
    EXPECT_EQ(s, cache.ShardOf(id));  // pure function of the id
  }
}

// ConcurrentClockCache with its eviction-domain mutexes exposed, so a test
// can hold one while another thread misses into that domain.
class LockableClockCache : public ConcurrentClockCache {
 public:
  using ConcurrentClockCache::ConcurrentClockCache;
  std::mutex& ShardMutex(size_t s) { return core_.shard(s).mu; }
};

// The first id at or after `from` whose home is shard s.
ObjectId FirstIdOfShard(const LockableClockCache& cache, size_t s,
                        ObjectId from) {
  ObjectId id = from;
  while (cache.ShardOf(id) != s) {
    ++id;
  }
  return id;
}

// A miss that finds its domain locked is buffered, and only the next holder
// of that domain's lock admits it: a miss into another domain leaves it
// buffered, the next miss into its own domain admits it first.
TEST(ShardDomainsTest, BufferedMissWaitsForTheNextHolderOfItsLock) {
  LockableClockCache cache(1024, /*bits=*/1, /*num_stripes=*/8,
                           /*num_shards=*/4);
  ASSERT_EQ(cache.num_shards(), 4u);
  const ObjectId a = FirstIdOfShard(cache, 0, 0);
  const ObjectId b = FirstIdOfShard(cache, 0, a + 1);
  const ObjectId c = FirstIdOfShard(cache, 1, 0);

  {
    const std::lock_guard<std::mutex> hold(cache.ShardMutex(0));
    bool hit = true;
    std::thread([&] { hit = cache.GetOrAdmit(a); }).join();
    EXPECT_FALSE(hit);
  }
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.lock_failures, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_EQ(stats.buffer_drops, 0u);

  EXPECT_FALSE(cache.GetOrAdmit(c));
  stats = cache.Stats();
  EXPECT_EQ(stats.inserts, 1u);  // c only: a waits for shard 0's lock

  EXPECT_FALSE(cache.GetOrAdmit(b));
  stats = cache.Stats();
  EXPECT_EQ(stats.inserts, 3u);  // a drained, then b admitted
  EXPECT_EQ(stats.drain_batch_le8, 1u);
  EXPECT_TRUE(cache.GetOrAdmit(a));
  cache.CheckInvariants();
}

}  // namespace
}  // namespace qdlp
