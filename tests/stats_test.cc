// The telemetry layer's correctness gate (docs/OBSERVABILITY.md).
//
// Pins the counters no observer should ever have to doubt:
//  * Stats().hits/misses equal externally tallied Access() outcomes for
//    every registered policy across trace shapes (the oracle-style pinning;
//    the full lockstep runs live in oracle_differential_test.cc);
//  * the AccessEvent sink observes exactly the events the counters count,
//    with monotone logical timestamps;
//  * the QD composition's per-queue flow adds up (probation departures =
//    promotions + demotions, occupancy = probation + main);
//  * the concurrent caches, driven single-threaded, count exactly;
//  * Remove() counts as an eviction and the removal API answers honestly
//    (SupportsRemoval() false => Remove() is a no-op returning false).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/concurrent/concurrent_clock.h"
#include "src/concurrent/concurrent_qdlp_fifo.h"
#include "src/concurrent/concurrent_s3fifo.h"
#include "src/concurrent/sharded_lru.h"
#include "src/core/policy_factory.h"
#include "src/core/qd_cache.h"
#include "src/obs/access_event.h"
#include "src/obs/cache_stats.h"
#include "src/trace/generators.h"

namespace qdlp {
namespace {

std::vector<ObjectId> BuildTrace(const std::string& shape, uint64_t seed) {
  constexpr uint64_t kRequests = 6000;
  if (shape == "zipf") {
    ZipfTraceConfig config;
    config.num_requests = kRequests;
    config.num_objects = 2000;
    config.skew = 1.0;
    config.seed = seed;
    return GenerateZipf(config).requests;
  }
  if (shape == "web") {
    PopularityDecayConfig config;
    config.num_requests = kRequests;
    config.initial_objects = 400;
    config.seed = seed;
    return GeneratePopularityDecay(config).requests;
  }
  if (shape == "block") {
    ScanLoopConfig config;
    config.num_requests = kRequests;
    config.hot_objects = 1200;
    config.hot_drift_objects = 300;
    config.scan_length_min = 40;
    config.scan_length_max = 300;
    config.loop_region = 60;
    config.seed = seed;
    return GenerateScanLoop(config).requests;
  }
  ADD_FAILURE() << "unknown shape " << shape;
  return {};
}

const std::vector<std::string>& Shapes() {
  static const std::vector<std::string> shapes = {"zipf", "web", "block"};
  return shapes;
}

// ---------------------------------------------------------------------------
// Oracle-pinned counts: the policy's own hits/misses must equal what the
// replay loop observes, for every policy name the factory knows.

using StatsCase = std::tuple<std::string, std::string>;

class StatsPinningTest : public ::testing::TestWithParam<StatsCase> {};

TEST_P(StatsPinningTest, CountersMatchExternalTally) {
  const auto& [policy_name, shape] = GetParam();
  const std::vector<ObjectId> trace = BuildTrace(shape, 0xC0FFEEu);
  ASSERT_FALSE(trace.empty());
  constexpr size_t kCacheSize = 101;

  auto policy = MakePolicy(policy_name, kCacheSize, &trace);
  ASSERT_NE(policy, nullptr) << policy_name;

  uint64_t external_hits = 0;
  for (const ObjectId id : trace) {
    external_hits += policy->Access(id) ? 1 : 0;
  }

  const CacheStats stats = policy->Stats();
  EXPECT_EQ(stats.requests, trace.size());
  EXPECT_EQ(stats.hits, external_hits);
  EXPECT_EQ(stats.misses, trace.size() - external_hits);
  EXPECT_EQ(stats.hits + stats.misses, stats.requests);
  EXPECT_EQ(stats.size, policy->size());
  EXPECT_EQ(stats.inserts - stats.evictions, stats.size);
  EXPECT_LE(stats.inserts, stats.misses);
  EXPECT_LE(stats.ghost_hits, stats.misses);
  // The full consistency battery (aborts on violation).
  policy->CheckInvariants();
}

std::string StatsCaseName(const ::testing::TestParamInfo<StatsCase>& info) {
  std::string name = std::get<0>(info.param) + "_" + std::get<1>(info.param);
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, StatsPinningTest,
    ::testing::Combine(::testing::ValuesIn(KnownPolicyNames()),
                       ::testing::ValuesIn(Shapes())),
    StatsCaseName);

// Counters are monotone: sampled along the replay, no flow counter ever
// decreases and the identities hold at every sample point.
TEST(StatsMonotonicityTest, FlowCountersNeverDecrease) {
  const std::vector<ObjectId> trace = BuildTrace("zipf", 0xBEEFu);
  for (const std::string name : {"lru", "qd-lp-fifo", "s3fifo", "arc"}) {
    auto policy = MakePolicy(name, 64);
    ASSERT_NE(policy, nullptr) << name;
    CacheStats prev;
    for (size_t i = 0; i < trace.size(); ++i) {
      policy->Access(trace[i]);
      if (i % 97 != 0) {
        continue;
      }
      const CacheStats cur = policy->Stats();
      EXPECT_GE(cur.requests, prev.requests) << name;
      EXPECT_GE(cur.hits, prev.hits) << name;
      EXPECT_GE(cur.misses, prev.misses) << name;
      EXPECT_GE(cur.inserts, prev.inserts) << name;
      EXPECT_GE(cur.evictions, prev.evictions) << name;
      EXPECT_GE(cur.promotions, prev.promotions) << name;
      EXPECT_GE(cur.demotions, prev.demotions) << name;
      EXPECT_GE(cur.ghost_hits, prev.ghost_hits) << name;
      EXPECT_EQ(cur.hits + cur.misses, cur.requests) << name;
      EXPECT_EQ(cur.inserts - cur.evictions, cur.size) << name;
      prev = cur;
    }
  }
}

// ---------------------------------------------------------------------------
// Event sink: the hook stream and the counters are two views of the same
// events — they must agree exactly, and logical time must be monotone.

struct CountingSink : AccessEventSink {
  CacheStats seen;  // event tallies, same fields as the counters
  uint64_t last_time = 0;
  bool time_monotone = true;

  void Note(uint64_t time) {
    if (time < last_time) {
      time_monotone = false;
    }
    last_time = time;
  }
  void OnHit(ObjectId, uint64_t time) override {
    ++seen.hits;
    Note(time);
  }
  void OnMiss(ObjectId, uint64_t time) override {
    ++seen.misses;
    Note(time);
  }
  void OnInsert(ObjectId, uint64_t time) override {
    ++seen.inserts;
    Note(time);
  }
  void OnEvict(ObjectId, uint64_t time) override {
    ++seen.evictions;
    Note(time);
  }
  void OnPromote(ObjectId, uint64_t time) override {
    ++seen.promotions;
    Note(time);
  }
  void OnDemote(ObjectId, uint64_t time) override {
    ++seen.demotions;
    Note(time);
  }
  void OnGhostHit(ObjectId, uint64_t time) override {
    ++seen.ghost_hits;
    Note(time);
  }
};

TEST(AccessEventSinkTest, SinkSeesExactlyWhatCountersCount) {
  const std::vector<ObjectId> trace = BuildTrace("web", 0xABCDu);
  for (const std::string name :
       {"lru", "sieve", "qd-lp-fifo", "s3fifo", "slru", "arc"}) {
    auto policy = MakePolicy(name, 101);
    ASSERT_NE(policy, nullptr) << name;
    CountingSink sink;
    policy->set_event_sink(&sink);
    for (const ObjectId id : trace) {
      policy->Access(id);
    }
    const CacheStats stats = policy->Stats();
    EXPECT_EQ(sink.seen.hits, stats.hits) << name;
    EXPECT_EQ(sink.seen.misses, stats.misses) << name;
    EXPECT_EQ(sink.seen.inserts, stats.inserts) << name;
    EXPECT_EQ(sink.seen.evictions, stats.evictions) << name;
    EXPECT_EQ(sink.seen.promotions, stats.promotions) << name;
    EXPECT_EQ(sink.seen.demotions, stats.demotions) << name;
    EXPECT_EQ(sink.seen.ghost_hits, stats.ghost_hits) << name;
    EXPECT_TRUE(sink.time_monotone) << name;
    EXPECT_LE(sink.last_time, policy->now()) << name;
    policy->set_event_sink(nullptr);
  }
}

// Detaching the sink stops the stream; the counters keep counting.
TEST(AccessEventSinkTest, DetachedSinkSeesNothingMore) {
  auto policy = MakePolicy("lru", 8);
  ASSERT_NE(policy, nullptr);
  CountingSink sink;
  policy->set_event_sink(&sink);
  policy->Access(1);
  policy->Access(1);
  EXPECT_EQ(sink.seen.misses, 1u);
  EXPECT_EQ(sink.seen.hits, 1u);
  policy->set_event_sink(nullptr);
  policy->Access(2);
  EXPECT_EQ(sink.seen.misses, 1u);  // unchanged
  EXPECT_EQ(policy->Stats().misses, 2u);
}

// QD-LP-FIFO's main CLOCK laps reach a sink as OnLap, and no counter
// counts them: a lap keeps the object in place, so it is not a promotion.
TEST(AccessEventSinkTest, MainLapsReachTheSinkOnly) {
  struct LapSink : CountingSink {
    std::vector<ObjectId> lapped;
    void OnLap(ObjectId id, uint64_t time) override {
      lapped.push_back(id);
      Note(time);
    }
  };
  auto policy = MakePolicy("qd-lp-fifo", 10);  // probation 1, main 9
  ASSERT_NE(policy, nullptr);
  LapSink sink;
  policy->set_event_sink(&sink);
  // Each id is re-read on probation, so the next admission promotes it:
  // main fills with 1..9 in slot order, and only 1 is hit there.
  policy->Access(1);
  policy->Access(1);
  policy->Access(2);  // promotes 1
  policy->Access(1);  // main hit: 1's counter goes to 1
  policy->Access(2);
  for (ObjectId id = 3; id <= 10; ++id) {
    policy->Access(id);  // promotes id - 1
    policy->Access(id);
  }
  // Promoting 10 into the full main region runs the hand: it laps 1 and
  // evicts 2.
  policy->Access(11);
  EXPECT_EQ(sink.lapped, std::vector<ObjectId>{1});
  EXPECT_TRUE(policy->Contains(1));
  EXPECT_FALSE(policy->Contains(2));
  const CacheStats stats = policy->Stats();
  EXPECT_EQ(stats.promotions, 10u);
  EXPECT_EQ(sink.seen.promotions, stats.promotions);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_TRUE(sink.time_monotone);
  policy->set_event_sink(nullptr);
}

// ---------------------------------------------------------------------------
// QD flow: the paper's §4 probation -> {main, ghost} split must add up.

TEST(QdFlowStatsTest, ProbationFlowAddsUp) {
  const std::vector<ObjectId> trace = BuildTrace("block", 0x5EEDu);
  auto policy = MakePolicy("qd-lp-fifo", 200, &trace);
  ASSERT_NE(policy, nullptr);
  for (const ObjectId id : trace) {
    policy->Access(id);
  }
  const CacheStats stats = policy->Stats();
  // Per-queue occupancy fills in and is consistent with the total.
  EXPECT_EQ(stats.probation_size + stats.main_size, stats.size);
  EXPECT_GT(stats.demotions, 0u);
  // Every ghost hit consumed an entry some quick demotion wrote.
  EXPECT_LE(stats.ghost_hits, stats.demotions);
  // Quick demotions leave cache space: demotions are a subset of evictions.
  EXPECT_LE(stats.demotions, stats.evictions);
  // The generic QD wrapper over clock2 makes the same flow, and its QdCache
  // accessors are aliases of the same counters.
  auto composed = MakePolicy("qd-clock2", 200, &trace);
  ASSERT_NE(composed, nullptr);
  for (const ObjectId id : trace) {
    composed->Access(id);
  }
  const CacheStats composed_stats = composed->Stats();
  EXPECT_EQ(composed_stats.promotions, stats.promotions);
  EXPECT_EQ(composed_stats.demotions, stats.demotions);
  EXPECT_EQ(composed_stats.ghost_hits, stats.ghost_hits);
  const auto* qd = dynamic_cast<const QdCache*>(composed.get());
  ASSERT_NE(qd, nullptr);
  EXPECT_EQ(qd->promotions(), composed_stats.promotions);
  EXPECT_EQ(qd->quick_demotions(), composed_stats.demotions);
  EXPECT_EQ(qd->ghost_admissions(), composed_stats.ghost_hits);
}

TEST(QdFlowStatsTest, S3FifoOccupancyAddsUp) {
  const std::vector<ObjectId> trace = BuildTrace("zipf", 0x51u);
  auto policy = MakePolicy("s3fifo", 150);
  ASSERT_NE(policy, nullptr);
  for (const ObjectId id : trace) {
    policy->Access(id);
  }
  const CacheStats stats = policy->Stats();
  EXPECT_EQ(stats.probation_size + stats.main_size, stats.size);
  EXPECT_GT(stats.ghost_size, 0u);
}

// ---------------------------------------------------------------------------
// Concurrent caches, single-threaded: counting must be exact (no dropped
// admissions without contention), and Stats() must agree with an external
// tally just like the sequential policies.

template <typename MakeCache>
void ExpectConcurrentCountsExact(const char* label, MakeCache make,
                                 bool has_eviction_domains = false) {
  const std::vector<ObjectId> trace = BuildTrace("zipf", 0xACE5u);
  auto cache = make();
  uint64_t external_hits = 0;
  for (const ObjectId id : trace) {
    external_hits += cache->GetOrAdmit(id) ? 1 : 0;
  }
  const CacheStats stats = cache->Stats();
  EXPECT_EQ(stats.requests, trace.size()) << label;
  EXPECT_EQ(stats.hits, external_hits) << label;
  EXPECT_EQ(stats.misses, trace.size() - external_hits) << label;
  EXPECT_EQ(stats.hits + stats.misses, stats.requests) << label;
  // Single-threaded nothing is buffered or dropped: every miss admits.
  EXPECT_EQ(stats.inserts, stats.misses) << label;
  EXPECT_EQ(stats.inserts - stats.evictions, stats.size) << label;
  if (has_eviction_domains) {
    // Quiescent contention identities (docs/OBSERVABILITY.md): a
    // single-threaded caller's try_lock always succeeds, so there is
    // exactly one acquisition per miss and every failure-path counter —
    // failed try-locks, ring-full drops, the drain histogram — must be
    // zero.
    EXPECT_EQ(stats.lock_acquisitions, stats.misses) << label;
    EXPECT_EQ(stats.lock_failures, 0u) << label;
    EXPECT_EQ(stats.buffer_drops, 0u) << label;
    EXPECT_EQ(stats.drain_batch_le8 + stats.drain_batch_le64 +
                  stats.drain_batch_gt64,
              0u)
        << label;
  }
  cache->CheckInvariants();
}

TEST(ConcurrentStatsTest, SingleThreadedCountsAreExact) {
  static constexpr size_t kCapacity = 101;
  ExpectConcurrentCountsExact("global-lock-lru", [] {
    return std::make_unique<ShardedLruCache>(kCapacity, 1);
  });
  ExpectConcurrentCountsExact("sharded-lru", [] {
    return std::make_unique<ShardedLruCache>(kCapacity, 4);
  });
  ExpectConcurrentCountsExact(
      "concurrent-clock",
      [] { return std::make_unique<ConcurrentClockCache>(kCapacity, 1, 4); },
      /*has_eviction_domains=*/true);
  ExpectConcurrentCountsExact(
      "concurrent-s3fifo",
      [] {
        return std::make_unique<ConcurrentS3FifoCache>(kCapacity, 4);
      },
      /*has_eviction_domains=*/true);
  ExpectConcurrentCountsExact(
      "concurrent-qdlp-fifo",
      [] { return std::make_unique<ConcurrentQdLpFifo>(kCapacity, 4); },
      /*has_eviction_domains=*/true);
  // Sharded miss paths keep the same identities: misses route to their home
  // domain but the single thread still acquires on every one.
  ExpectConcurrentCountsExact(
      "concurrent-clock/8-shards",
      [] {
        return std::make_unique<ConcurrentClockCache>(kCapacity, 1, 16, 8);
      },
      /*has_eviction_domains=*/true);
  ExpectConcurrentCountsExact(
      "concurrent-qdlp-fifo/8-shards",
      [] { return std::make_unique<ConcurrentQdLpFifo>(kCapacity, 16, 8); },
      /*has_eviction_domains=*/true);
}

TEST(ConcurrentStatsTest, QdLpOccupancyAddsUp) {
  const std::vector<ObjectId> trace = BuildTrace("zipf", 0x77u);
  ConcurrentQdLpFifo cache(101, 4);
  for (const ObjectId id : trace) {
    cache.GetOrAdmit(id);
  }
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.probation_size + stats.main_size, stats.size);
  EXPECT_GT(stats.demotions, 0u);
  EXPECT_LE(stats.ghost_hits, stats.demotions);
}

// ---------------------------------------------------------------------------
// Removal API.

TEST(RemovalStatsTest, SerialRemoveCountsAsEviction) {
  for (const std::string name :
       {"lru", "fifo", "clock2", "s3fifo", "qd-lp-fifo"}) {
    auto policy = MakePolicy(name, 16);
    ASSERT_NE(policy, nullptr) << name;
    ASSERT_TRUE(policy->SupportsRemoval()) << name;
    policy->Access(42);
    const uint64_t evictions_before = policy->Stats().evictions;
    EXPECT_TRUE(policy->Remove(42)) << name;
    EXPECT_FALSE(policy->Contains(42)) << name;
    EXPECT_EQ(policy->Stats().evictions, evictions_before + 1) << name;
    EXPECT_FALSE(policy->Remove(42)) << name;  // already gone
    EXPECT_EQ(policy->Stats().evictions, evictions_before + 1) << name;
    policy->CheckInvariants();  // inserts - evictions == size still holds
  }
}

TEST(RemovalStatsTest, PoliciesWithoutRemovalSaySo) {
  auto policy = MakePolicy("arc", 16);
  ASSERT_NE(policy, nullptr);
  EXPECT_FALSE(policy->SupportsRemoval());
  policy->Access(7);
  EXPECT_FALSE(policy->Remove(7));
  EXPECT_TRUE(policy->Contains(7));  // untouched
}

TEST(RemovalStatsTest, ShardedLruRemoveWorks) {
  ShardedLruCache cache(64, 4);
  cache.GetOrAdmit(5);
  ASSERT_TRUE(cache.GetOrAdmit(5));  // now resident
  const uint64_t evictions_before = cache.Stats().evictions;
  EXPECT_TRUE(cache.Delete(5));
  EXPECT_EQ(cache.Stats().evictions, evictions_before + 1);
  EXPECT_FALSE(cache.Delete(5));
  EXPECT_FALSE(cache.GetOrAdmit(5));  // miss: readmitted fresh
  cache.CheckInvariants();
}

TEST(RemovalStatsTest, ConcurrentRemoveCountsAsEviction) {
  // Removal is part of the Cache interface proper — every thread-safe
  // engine, not just the LRU ones, unlinks and counts an eviction.
  ConcurrentClockCache clock(16, 1, 4);
  clock.GetOrAdmit(3);
  const uint64_t evictions_before = clock.Stats().evictions;
  EXPECT_TRUE(clock.Delete(3));
  EXPECT_EQ(clock.Stats().evictions, evictions_before + 1);
  EXPECT_FALSE(clock.Delete(3));
  EXPECT_FALSE(clock.GetOrAdmit(3));  // miss: readmitted fresh
  clock.CheckInvariants();
}

}  // namespace
}  // namespace qdlp
