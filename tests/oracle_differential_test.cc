// Randomized differential testing of the policy zoo against model-based
// oracles (tests/oracle/). Every deterministic policy — and every concurrent
// cache driven single-threaded — must agree with its obviously-correct
// reference model request-for-request across workload shapes and cache
// sizes; adaptive policies get bounded-divergence treatment plus the
// oracle-independent self-consistency checks.
//
// The slow build of this file (oracle_differential_slow_test, ctest label
// "slow") replays 8x longer traces and one extra cache size per suite.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/concurrent/concurrent_clock.h"
#include "src/concurrent/concurrent_qdlp_fifo.h"
#include "src/concurrent/concurrent_s3fifo.h"
#include "src/concurrent/sharded_lru.h"
#include "src/core/policy_factory.h"
#include "src/trace/generators.h"
#include "src/util/random.h"
#include "tests/oracle/differential_runner.h"
#include "tests/oracle/reference_models.h"

namespace qdlp {
namespace {

#ifdef QDLP_ORACLE_SLOW
constexpr uint64_t kRequests = 64000;
const std::vector<size_t> kCacheSizes = {16, 101, 512, 1024};
const std::vector<size_t> kRemovalCacheSizes = {4, 17, 100, 1000};
#else
constexpr uint64_t kRequests = 8000;
const std::vector<size_t> kCacheSizes = {16, 101, 512};
const std::vector<size_t> kRemovalCacheSizes = {4, 17, 100};
#endif

const std::vector<std::string> kShapes = {"zipf", "web", "block", "kv",
                                          "phase"};

// Deterministic per-case seed: distinct per (shape, size) so different
// cases exercise different request streams.
uint64_t SeedFor(const std::string& shape, size_t cache_size) {
  uint64_t seed = 0x9e3779b97f4a7c15ull;
  for (const char c : shape) {
    seed = seed * 31 + static_cast<uint64_t>(c);
  }
  return seed ^ (cache_size * 7919);
}

std::vector<ObjectId> BuildTrace(const std::string& shape, uint64_t seed) {
  if (shape == "zipf") {
    ZipfTraceConfig config;
    config.num_requests = kRequests;
    config.num_objects = 4000;
    config.skew = 1.0;
    config.seed = seed;
    return GenerateZipf(config).requests;
  }
  if (shape == "web") {
    PopularityDecayConfig config;
    config.num_requests = kRequests;
    config.initial_objects = 500;
    config.seed = seed;
    return GeneratePopularityDecay(config).requests;
  }
  if (shape == "block") {
    ScanLoopConfig config;
    config.num_requests = kRequests;
    config.hot_objects = 2000;
    config.hot_drift_objects = 500;
    config.scan_length_min = 50;
    config.scan_length_max = 400;
    config.loop_region = 80;
    config.seed = seed;
    return GenerateScanLoop(config).requests;
  }
  if (shape == "kv") {
    HighReuseKvConfig config;
    config.num_requests = kRequests;
    config.num_objects = 1500;
    config.seed = seed;
    return GenerateHighReuseKv(config).requests;
  }
  if (shape == "phase") {
    PhaseChangeConfig config;
    config.num_requests = kRequests;
    config.working_set = 800;
    config.phase_length = 1500;
    config.seed = seed;
    return GeneratePhaseChange(config).requests;
  }
  ADD_FAILURE() << "unknown shape " << shape;
  return {};
}

using DiffCase = std::tuple<std::string, std::string, size_t>;

// gtest names allow no '-'.
std::string TestName(std::string name) {
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name;
}

std::string CaseName(const ::testing::TestParamInfo<DiffCase>& info) {
  const auto& [subject, shape, cache_size] = info.param;
  return TestName(subject + "_" + shape + "_c" + std::to_string(cache_size));
}

// ---------------------------------------------------------------------------
// Exact lockstep: sequential policies with a deterministic spec.

class ExactDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(ExactDifferentialTest, MatchesOracleRequestForRequest) {
  const auto& [policy_name, shape, cache_size] = GetParam();
  const std::vector<ObjectId> trace =
      BuildTrace(shape, SeedFor(shape, cache_size));
  ASSERT_FALSE(trace.empty());

  const auto policy = MakePolicy(policy_name, cache_size);
  ASSERT_NE(policy, nullptr) << policy_name;
  const auto model = oracle::MakeExactOracle(policy_name, cache_size);
  ASSERT_NE(model, nullptr) << policy_name;

  oracle::PolicySubject subject(*policy);
  const oracle::DiffOutcome outcome =
      oracle::RunDifferential(subject, *model, trace);
  ASSERT_TRUE(outcome.ok) << policy_name << ": " << outcome.failure;
  EXPECT_EQ(outcome.subject_hits, outcome.oracle_hits);
  // The policy's own telemetry is pinned to the runner's external tally.
  const CacheStats stats = policy->Stats();
  EXPECT_EQ(stats.requests, outcome.requests) << policy_name;
  EXPECT_EQ(stats.hits, outcome.subject_hits) << policy_name;
  EXPECT_EQ(stats.misses, outcome.requests - outcome.subject_hits)
      << policy_name;
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ExactDifferentialTest,
    ::testing::Combine(
        ::testing::Values("fifo", "lru", "lfu", "fifo-reinsertion", "clock2",
                          "clock3", "sieve", "s3fifo", "qd-lp-fifo"),
        ::testing::ValuesIn(kShapes), ::testing::ValuesIn(kCacheSizes)),
    CaseName);

// ---------------------------------------------------------------------------
// Exact lockstep: concurrent caches driven from a single thread must behave
// exactly like their sequential specification.

class ConcurrentDifferentialTest : public ::testing::TestWithParam<DiffCase> {
};

TEST_P(ConcurrentDifferentialTest, MatchesOracleRequestForRequest) {
  const auto& [cache_name, shape, cache_size] = GetParam();
  const std::vector<ObjectId> trace =
      BuildTrace(shape, SeedFor(shape, cache_size));
  ASSERT_FALSE(trace.empty());

  std::unique_ptr<Cache> cache;
  std::unique_ptr<oracle::ReferenceModel> model;
  if (cache_name == "concurrent-s3fifo") {
    cache = std::make_unique<ConcurrentS3FifoCache>(cache_size,
                                                    /*num_stripes=*/4);
    model = std::make_unique<oracle::RefS3Fifo>(cache_size, 0.10, 0.9);
  } else if (cache_name == "concurrent-clock") {
    cache = std::make_unique<ConcurrentClockCache>(cache_size, /*bits=*/1,
                                                   /*num_shards=*/4);
    model = std::make_unique<oracle::RefClock>(cache_size, /*bits=*/1);
  } else if (cache_name == "concurrent-qdlp-fifo") {
    cache = std::make_unique<ConcurrentQdLpFifo>(cache_size, /*num_stripes=*/4);
    model = oracle::MakeExactOracle("qd-lp-fifo", cache_size);
  } else if (cache_name == "sharded-lru") {
    // One shard: sharded LRU degenerates to exact global LRU, which is also
    // what MakeCache builds for global-lock-lru.
    cache = std::make_unique<ShardedLruCache>(cache_size, /*num_shards=*/1);
    model = std::make_unique<oracle::RefLru>(cache_size);
  }
  ASSERT_NE(cache, nullptr) << cache_name;

  oracle::ConcurrentSubject subject(*cache);
  const oracle::DiffOutcome outcome =
      oracle::RunDifferential(subject, *model, trace);
  ASSERT_TRUE(outcome.ok) << cache_name << ": " << outcome.failure;
  EXPECT_EQ(outcome.subject_hits, outcome.oracle_hits);
  // Single-threaded, the concurrent caches' telemetry is exact too.
  const CacheStats stats = cache->Stats();
  EXPECT_EQ(stats.requests, outcome.requests) << cache_name;
  EXPECT_EQ(stats.hits, outcome.subject_hits) << cache_name;
  EXPECT_EQ(stats.misses, outcome.requests - outcome.subject_hits)
      << cache_name;
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ConcurrentDifferentialTest,
    ::testing::Combine(::testing::Values("concurrent-s3fifo",
                                         "concurrent-clock",
                                         "concurrent-qdlp-fifo",
                                         "sharded-lru"),
                       ::testing::ValuesIn(kShapes),
                       ::testing::ValuesIn(kCacheSizes)),
    CaseName);

// ---------------------------------------------------------------------------
// Exact lockstep with removals: every lane of each design with one
// implementation — the lock-free caches' Regions for the FIFO designs,
// LruPolicy for LRU — takes the same access/removal stream as the oracle:
// MakePolicy's serial policy, MakeDensePolicy's sweep-lane variant and the
// concurrent cache at one shard.

using RemovalCase = std::tuple<std::string, size_t>;

std::unique_ptr<Cache> MakeOneShardCache(const std::string& name,
                                         size_t capacity) {
  if (name == "fifo-reinsertion" || name == "clock2") {
    return std::make_unique<ConcurrentClockCache>(
        capacity, /*bits=*/name == "clock2" ? 2 : 1, /*num_stripes=*/4);
  }
  if (name == "s3fifo") {
    return std::make_unique<ConcurrentS3FifoCache>(capacity,
                                                   /*num_stripes=*/4);
  }
  if (name == "qd-lp-fifo") {
    return std::make_unique<ConcurrentQdLpFifo>(capacity, /*num_stripes=*/4);
  }
  if (name == "lru") {
    return std::make_unique<ShardedLruCache>(capacity, /*num_shards=*/1);
  }
  return nullptr;
}

class RemovalDifferentialTest : public ::testing::TestWithParam<RemovalCase> {
};

TEST_P(RemovalDifferentialTest, EveryLaneMatchesOracleWithRemovals) {
  const auto& [name, capacity] = GetParam();
  const uint64_t keyspace = 2 * capacity;
  const auto flat = MakePolicy(name, capacity);
  const auto dense = MakeDensePolicy(name, capacity, keyspace);
  const auto cache = MakeOneShardCache(name, capacity);
  const auto model = oracle::MakeExactOracle(name, capacity);
  ASSERT_NE(flat, nullptr);
  ASSERT_NE(dense, nullptr);
  ASSERT_NE(cache, nullptr);
  ASSERT_NE(model, nullptr);
  // Removals one op in ten, so freed locations are reused constantly. A
  // CLOCK design's seed tag is its bit width.
  const uint64_t seed_tag = name == "fifo-reinsertion" ? 1
                            : name == "clock2"         ? 2
                            : name == "s3fifo"         ? 3
                            : name == "lru"            ? 5
                                                       : 4;
  Rng rng(0xC10C + capacity * 10 + seed_tag);
  for (int op = 0; op < 200000; ++op) {
    const ObjectId id = rng.NextBounded(keyspace);
    const bool remove = rng.NextBounded(10) == 0;
    const bool expected = remove ? model->Remove(id) : model->Access(id);
    ASSERT_EQ(remove ? flat->Remove(id) : flat->Access(id), expected)
        << "flat lane, op " << op;
    ASSERT_EQ(remove ? dense->Remove(id) : dense->Access(id), expected)
        << "dense lane, op " << op;
    ASSERT_EQ(remove ? cache->Delete(id) : cache->GetOrAdmit(id), expected)
        << "concurrent lane, op " << op;
    ASSERT_EQ(flat->size(), model->size()) << "op " << op;
    ASSERT_EQ(dense->size(), model->size()) << "op " << op;
    if (op % 10007 == 0) {
      flat->CheckInvariants();
      dense->CheckInvariants();
      cache->CheckInvariants();
    }
  }
  flat->CheckInvariants();
  dense->CheckInvariants();
  cache->CheckInvariants();
  const CacheStats flat_stats = flat->Stats();
  for (const CacheStats& stats : {dense->Stats(), cache->Stats()}) {
    EXPECT_EQ(stats.size, model->size());
    EXPECT_EQ(stats.inserts, flat_stats.inserts);
    EXPECT_EQ(stats.evictions, flat_stats.evictions);
    EXPECT_EQ(stats.promotions, flat_stats.promotions);
    EXPECT_EQ(stats.demotions, flat_stats.demotions);
    EXPECT_EQ(stats.ghost_hits, flat_stats.ghost_hits);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Regions, RemovalDifferentialTest,
    ::testing::Combine(::testing::Values("fifo-reinsertion", "clock2",
                                         "s3fifo", "qd-lp-fifo", "lru"),
                       ::testing::ValuesIn(kRemovalCacheSizes)),
    [](const ::testing::TestParamInfo<RemovalCase>& info) {
      return TestName(std::get<0>(info.param) + "_c" +
                      std::to_string(std::get<1>(info.param)));
    });

// The same three lanes on a scripted stream that removes the head (the next
// victim), a middle entry, the tail (the newest) and a sole entry of each
// region — probation (S3-FIFO's small queue) and main — then keeps
// admitting so the freed locations are reused.
class RemovalPositionTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RemovalPositionTest, EveryLaneMatchesOracleAtEachQueuePosition) {
  const std::string& name = GetParam();
  // Both designs split 50 into a 5-entry probation or small target and a
  // main region that no step below fills.
  constexpr size_t kCapacity = 50;
  constexpr uint64_t kKeyspace = 512;
  const auto flat = MakePolicy(name, kCapacity);
  const auto dense = MakeDensePolicy(name, kCapacity, kKeyspace);
  const auto cache = MakeOneShardCache(name, kCapacity);
  const auto model = oracle::MakeExactOracle(name, kCapacity);
  ASSERT_NE(flat, nullptr);
  ASSERT_NE(dense, nullptr);
  ASSERT_NE(cache, nullptr);
  ASSERT_NE(model, nullptr);

  size_t step = 0;
  const auto access = [&](ObjectId first, ObjectId last) {
    for (ObjectId id = first; id <= last; ++id, ++step) {
      const bool expected = model->Access(id);
      EXPECT_EQ(flat->Access(id), expected) << "flat lane, step " << step;
      EXPECT_EQ(dense->Access(id), expected) << "dense lane, step " << step;
      EXPECT_EQ(cache->GetOrAdmit(id), expected)
          << "concurrent lane, step " << step;
    }
  };
  // Removes `id`, which the script placed in `region`, from every lane.
  const auto remove = [&](ObjectId id, uint64_t CacheStats::*region) {
    const uint64_t before = flat->Stats().*region;
    EXPECT_TRUE(model->Remove(id)) << id;
    EXPECT_TRUE(flat->Remove(id)) << "flat lane, id " << id;
    EXPECT_TRUE(dense->Remove(id)) << "dense lane, id " << id;
    EXPECT_TRUE(cache->Delete(id)) << "concurrent lane, id " << id;
    EXPECT_EQ(flat->Stats().*region, before - 1) << id;
    for (const CacheStats& stats :
         {flat->Stats(), dense->Stats(), cache->Stats()}) {
      EXPECT_EQ(stats.size, model->size()) << id;
    }
    flat->CheckInvariants();
    dense->CheckInvariants();
    cache->CheckInvariants();
  };
  constexpr uint64_t CacheStats::*kProbation = &CacheStats::probation_size;
  constexpr uint64_t CacheStats::*kMain = &CacheStats::main_size;

  // Probation: 1..5, oldest first.
  access(1, 5);
  remove(1, kProbation);  // head
  remove(3, kProbation);  // middle
  remove(5, kProbation);  // tail
  remove(2, kProbation);
  remove(4, kProbation);  // sole
  access(6, 15);

  // Main: 20..24, re-read while on probation, are promoted in that order by
  // a flood of new ids (S3-FIFO first fills its capacity, so the flood is
  // one capacity long).
  access(20, 24);
  access(20, 24);
  access(100, 100 + kCapacity - 1);
  remove(20, kMain);  // head
  remove(22, kMain);  // middle
  remove(24, kMain);  // tail
  remove(21, kMain);
  remove(23, kMain);  // sole

  // The freed main locations are reused by the next promotions, the freed
  // probation ones by every admission.
  access(30, 34);
  access(30, 34);
  access(200, 200 + kCapacity - 1);
  access(30, 34);
  access(1, 300);
  EXPECT_EQ(flat->size(), model->size());
  const CacheStats flat_stats = flat->Stats();
  EXPECT_GT(flat_stats.main_size, 0u);
  for (const CacheStats& stats : {dense->Stats(), cache->Stats()}) {
    EXPECT_EQ(stats.size, model->size());
    EXPECT_EQ(stats.inserts, flat_stats.inserts);
    EXPECT_EQ(stats.evictions, flat_stats.evictions);
    EXPECT_EQ(stats.promotions, flat_stats.promotions);
    EXPECT_EQ(stats.demotions, flat_stats.demotions);
    EXPECT_EQ(stats.ghost_hits, flat_stats.ghost_hits);
  }
  flat->CheckInvariants();
  dense->CheckInvariants();
  cache->CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(Regions, RemovalPositionTest,
                         ::testing::Values("s3fifo", "qd-lp-fifo"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return TestName(info.param);
                         });

// ---------------------------------------------------------------------------
// Bounded divergence: adaptive policies legitimately differ from any naive
// oracle per-request. Replaying against reference LRU still catches
// catastrophic breakage (hit-ratio collapse, always-miss bugs) while the
// oracle-independent checks — hit iff resident before, occupancy within
// capacity, structural invariants — run at full strength.

class BoundedDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(BoundedDifferentialTest, StaysWithinDivergenceBudgetOfLru) {
  const auto& [policy_name, shape, cache_size] = GetParam();
  const std::vector<ObjectId> trace =
      BuildTrace(shape, SeedFor(shape, cache_size));
  ASSERT_FALSE(trace.empty());

  const auto policy = MakePolicy(policy_name, cache_size);
  ASSERT_NE(policy, nullptr) << policy_name;
  oracle::RefLru model(cache_size);

  oracle::DiffOptions options;
  options.divergence_slack = 0.35;
  options.divergence_grace = 300;

  oracle::PolicySubject subject(*policy);
  const oracle::DiffOutcome outcome =
      oracle::RunDifferential(subject, model, trace, options);
  ASSERT_TRUE(outcome.ok) << policy_name << ": " << outcome.failure;
  // Even without per-request oracle agreement, the adaptive policies'
  // counters must match the runner's external tally of their own outcomes.
  const CacheStats stats = policy->Stats();
  EXPECT_EQ(stats.requests, outcome.requests) << policy_name;
  EXPECT_EQ(stats.hits, outcome.subject_hits) << policy_name;
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, BoundedDifferentialTest,
    ::testing::Combine(::testing::Values("arc", "arc-fixed", "lirs",
                                         "clockpro", "wtinylfu", "2q", "slru",
                                         "mq", "car", "lru2"),
                       ::testing::ValuesIn(kShapes),
                       ::testing::ValuesIn(kCacheSizes)),
    CaseName);

}  // namespace
}  // namespace qdlp
