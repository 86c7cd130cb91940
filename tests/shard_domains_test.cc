// Sharded eviction domains (eviction_domains.h): with S > 1 each domain is
// an independent cache over its hash partition of the id space, so a
// single-threaded replay partitioned by ShardOf(id) must match S
// independent sequential reference models sized to the shards' capacity
// shares — the sharded generalization of the S == 1 oracle differential
// tests. Plus: capacity-share arithmetic (remainder distribution, tiny-cache
// clamping), the quiescent contention-counter identities that pin the
// telemetry's meaning (docs/OBSERVABILITY.md), and the drain path: a
// buffered miss is admitted by the next holder of its domain's lock, and a
// backlogged domain's misses take that lock only to admit a batch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <mutex>
#include <semaphore>
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
// can hold one while another thread misses into that domain, and with its
// backlog marks and index membership readable.
class LockableClockCache : public ConcurrentClockCache {
 public:
  using ConcurrentClockCache::ConcurrentClockCache;
  std::mutex& ShardMutex(size_t s) { return core_.shard(s).mu; }
  bool Backlogged(size_t s) const {
    return core_.shard(s).backlog.load(std::memory_order_relaxed);
  }
  bool Resident(ObjectId id) const { return core_.index.Contains(id); }
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

// Misses `id` on a thread of its own while this thread holds the lock of
// id's domain, so the miss is buffered and the domain is backlogged.
void MissBehindHeldLock(LockableClockCache& cache, ObjectId id) {
  const std::lock_guard<std::mutex> hold(cache.ShardMutex(cache.ShardOf(id)));
  bool hit = true;
  std::thread([&] { hit = cache.GetOrAdmit(id); }).join();
  EXPECT_FALSE(hit);
}

// A miss that finds its domain locked is buffered, and only the next holder
// of that domain's lock admits it, once: a miss into another domain leaves
// it buffered, later misses into its own domain buffer behind it (the
// domain is backlogged), and the next holder of its lock, a blocking Set,
// admits it and them.
TEST(ShardDomainsTest, BufferedMissWaitsForTheNextHolderOfItsLock) {
  LockableClockCache cache(1024, /*bits=*/1, /*num_stripes=*/8,
                           /*num_shards=*/4);
  ASSERT_EQ(cache.num_shards(), 4u);
  const ObjectId a = FirstIdOfShard(cache, 0, 0);
  const ObjectId b = FirstIdOfShard(cache, 0, a + 1);
  const ObjectId d = FirstIdOfShard(cache, 0, b + 1);
  const ObjectId c = FirstIdOfShard(cache, 1, 0);

  MissBehindHeldLock(cache, a);
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.lock_failures, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_EQ(stats.buffer_drops, 0u);

  EXPECT_FALSE(cache.GetOrAdmit(c));
  stats = cache.Stats();
  EXPECT_EQ(stats.inserts, 1u);  // c only: a waits for shard 0's lock

  // Shard 0 is backlogged, so b and a second copy of a buffer behind a
  // without trying its free lock.
  EXPECT_FALSE(cache.GetOrAdmit(b));
  EXPECT_FALSE(cache.GetOrAdmit(a));
  stats = cache.Stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.lock_acquisitions, 1u);  // c's
  EXPECT_EQ(stats.lock_failures, 1u);

  cache.Set(d, {}, /*ttl_seconds=*/0);
  stats = cache.Stats();
  EXPECT_EQ(stats.inserts, 4u);  // a once and b drained, then d
  EXPECT_EQ(stats.drain_batch_le8, 1u);
  EXPECT_TRUE(cache.GetOrAdmit(a));
  EXPECT_TRUE(cache.GetOrAdmit(b));
  cache.CheckInvariants();
}

// A backlogged domain's misses skip its free lock and buffer until one
// thread's ring holds kDrainBatch ids; that miss drains every buffered id,
// in push order, in one lock hold and one drain batch.
TEST(ShardDomainsTest, BackloggedDomainAdmitsWhenARingHoldsABatch) {
  constexpr size_t kBatch = DomainCore::kDrainBatch;
  // Shard 0's share is below a batch, so the ids still resident after the
  // batch's admissions show the order they were admitted in: CLOCK with no
  // hits evicts the oldest first.
  LockableClockCache cache(64, /*bits=*/1, /*num_stripes=*/8,
                           /*num_shards=*/4);
  ASSERT_EQ(cache.num_shards(), 4u);
  const size_t share = cache.shard_capacity(0);
  ASSERT_LT(share, kBatch);
  std::vector<ObjectId> ids;
  for (ObjectId id = 0; ids.size() < kBatch; ++id) {
    if (cache.ShardOf(id) == 0) {
      ids.push_back(id);
    }
  }

  // One thread misses every id, so they share its ring; it pauses after
  // the first (buffered behind the held lock) and before the last.
  std::binary_semaphore go(0);
  std::binary_semaphore paused(0);
  cache.ShardMutex(0).lock();
  std::thread missing([&] {
    EXPECT_FALSE(cache.GetOrAdmit(ids[0]));
    paused.release();
    go.acquire();
    for (size_t i = 1; i + 1 < kBatch; ++i) {
      EXPECT_FALSE(cache.GetOrAdmit(ids[i]));
    }
    paused.release();
    go.acquire();
    EXPECT_FALSE(cache.GetOrAdmit(ids[kBatch - 1]));
  });
  paused.acquire();
  cache.ShardMutex(0).unlock();
  EXPECT_TRUE(cache.Backlogged(0));
  go.release();
  paused.acquire();

  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.misses, kBatch - 1);
  EXPECT_EQ(stats.lock_failures, 1u);  // ids[0]'s, behind the held lock
  EXPECT_EQ(stats.lock_acquisitions, 0u);
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_TRUE(cache.Backlogged(0));

  go.release();
  missing.join();
  stats = cache.Stats();
  EXPECT_EQ(stats.misses, kBatch);
  EXPECT_EQ(stats.lock_failures, 1u);
  EXPECT_EQ(stats.lock_acquisitions, 1u);
  EXPECT_EQ(stats.buffer_drops, 0u);
  EXPECT_EQ(stats.inserts, kBatch);
  EXPECT_EQ(stats.evictions, kBatch - share);
  EXPECT_EQ(
      stats.drain_batch_le8 + stats.drain_batch_le64 + stats.drain_batch_gt64,
      1u);
  EXPECT_FALSE(cache.Backlogged(0));
  for (size_t i = 0; i < kBatch; ++i) {
    EXPECT_EQ(cache.Resident(ids[i]), i >= kBatch - share) << "push " << i;
  }
  cache.CheckInvariants();
}

// A blocking holder of a backlogged domain's lock (Set, Delete or
// CheckInvariants) admits its partial backlog and clears the mark, so the
// domain's next miss takes the lock inline again.
TEST(ShardDomainsTest, BlockingHoldersDrainAPartialBacklog) {
  struct Holder {
    const char* name;
    void (*hold)(LockableClockCache& cache, ObjectId id);
  };
  const Holder holders[] = {
      {"Set",
       [](LockableClockCache& cache, ObjectId id) {
         cache.Set(id, {}, /*ttl_seconds=*/0);
       }},
      {"Delete", [](LockableClockCache& cache, ObjectId id) {
         cache.Delete(id);
       }},
      {"CheckInvariants",
       [](LockableClockCache& cache, ObjectId) { cache.CheckInvariants(); }},
  };
  for (const Holder& holder : holders) {
    LockableClockCache cache(1024, /*bits=*/1, /*num_stripes=*/8,
                             /*num_shards=*/4);
    const ObjectId a = FirstIdOfShard(cache, 0, 0);
    const ObjectId b = FirstIdOfShard(cache, 0, a + 1);
    const ObjectId held = FirstIdOfShard(cache, 0, b + 1);
    const ObjectId next = FirstIdOfShard(cache, 0, held + 1);

    MissBehindHeldLock(cache, a);
    EXPECT_FALSE(cache.GetOrAdmit(b));
    ASSERT_TRUE(cache.Backlogged(0)) << holder.name;
    EXPECT_EQ(cache.Stats().inserts, 0u) << holder.name;

    holder.hold(cache, held);
    EXPECT_FALSE(cache.Backlogged(0)) << holder.name;
    CacheStats stats = cache.Stats();
    EXPECT_EQ(stats.drain_batch_le8, 1u) << holder.name;
    EXPECT_TRUE(cache.Resident(a)) << holder.name;
    EXPECT_TRUE(cache.Resident(b)) << holder.name;

    const uint64_t acquisitions = stats.lock_acquisitions;
    const uint64_t inserts = stats.inserts;
    EXPECT_FALSE(cache.GetOrAdmit(next));
    stats = cache.Stats();
    EXPECT_EQ(stats.lock_acquisitions, acquisitions + 1) << holder.name;
    EXPECT_EQ(stats.inserts, inserts + 1) << holder.name;
    EXPECT_EQ(stats.lock_failures, 1u) << holder.name;
    EXPECT_TRUE(cache.Resident(next)) << holder.name;
    EXPECT_FALSE(cache.Backlogged(0)) << holder.name;
  }
}

// Threads that take turns on one cache, never overlapping, never find a
// lock held: every miss is admitted inline, nothing is buffered, each
// request agrees with the per-shard oracles, and the quiescent identities
// hold as they do on one thread.
TEST(ShardDomainsTest, ThreadsTakingTurnsNeverBuffer) {
  ConcurrentQdLpFifo cache(240, /*num_stripes=*/16, /*num_shards=*/4);
  ASSERT_EQ(cache.num_shards(), 4u);
  const Trace trace = MakeTrace(7400);
  constexpr size_t kTurns = 8;
  std::vector<char> hits(trace.requests.size());
  const size_t per_turn = trace.requests.size() / kTurns + 1;
  for (size_t first = 0; first < trace.requests.size(); first += per_turn) {
    std::thread([&] {
      const size_t last = std::min(first + per_turn, trace.requests.size());
      for (size_t i = first; i < last; ++i) {
        hits[i] = cache.GetOrAdmit(trace.requests[i]) ? 1 : 0;
      }
    }).join();
  }
  std::vector<std::unique_ptr<oracle::ReferenceModel>> oracles;
  for (size_t s = 0; s < cache.num_shards(); ++s) {
    const size_t share = cache.shard_capacity(s);
    const size_t probation = QdLpProbationShare(share);
    const size_t main = share - probation;
    oracles.push_back(
        std::make_unique<oracle::RefQdLpFifo>(probation, main, main));
  }
  for (size_t i = 0; i < trace.requests.size(); ++i) {
    const ObjectId id = trace.requests[i];
    ASSERT_EQ(hits[i] != 0, oracles[cache.ShardOf(id)]->Access(id))
        << "diverged at request " << i;
  }
  ExpectQuiescentContentionCounters(cache.Stats(), "turns");
  cache.CheckInvariants();
}

}  // namespace
}  // namespace qdlp
