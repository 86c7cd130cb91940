// Size-aware subsystem: sized traces, byte-budget policies, GDSF, the
// size-aware QD-LP-FIFO, and shared property sweeps.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/sized/gdsf.h"
#include "src/sized/sized_basic.h"
#include "src/sized/sized_factory.h"
#include "src/sized/sized_qdlp.h"
#include "src/sized/sized_trace.h"
#include "src/util/random.h"

namespace qdlp {
namespace {

SizedTrace WebTrace(uint64_t seed = 601, uint64_t requests = 30000) {
  SizedWebConfig config;
  config.num_requests = requests;
  config.num_objects = 3000;
  config.seed = seed;
  return GenerateSizedWeb(config);
}

TEST(SizedTraceTest, SizesAreStablePerObject) {
  const SizedTrace trace = WebTrace();
  std::unordered_map<ObjectId, uint64_t> seen;
  for (const SizedRequest& request : trace.requests) {
    const auto [it, inserted] = seen.try_emplace(request.id, request.size);
    ASSERT_EQ(it->second, request.size) << "object changed size mid-trace";
  }
  EXPECT_EQ(trace.num_objects, seen.size());
}

TEST(SizedTraceTest, SizesWithinBounds) {
  SizedWebConfig config;
  config.num_requests = 20000;
  config.min_size = 100;
  config.max_size = 10000;
  config.seed = 603;
  const SizedTrace trace = GenerateSizedWeb(config);
  for (const SizedRequest& request : trace.requests) {
    ASSERT_GE(request.size, 100u);
    ASSERT_LE(request.size, 10000u);
  }
}

TEST(SizedTraceTest, SizeDistributionHasHeavyTail) {
  const SizedTrace trace = WebTrace(605);
  uint64_t max_size = 0;
  double sum = 0.0;
  std::vector<uint64_t> sizes;
  for (const SizedRequest& request : trace.requests) {
    max_size = std::max(max_size, request.size);
    sum += static_cast<double>(request.size);
    sizes.push_back(request.size);
  }
  std::sort(sizes.begin(), sizes.end());
  const uint64_t median = sizes[sizes.size() / 2];
  const double mean = sum / static_cast<double>(sizes.size());
  EXPECT_GT(mean, static_cast<double>(median));  // right-skew
  EXPECT_GT(max_size, median * 50);              // heavy tail
}

TEST(SizedTraceTest, FromUniformPreservesRequests) {
  Trace uniform;
  uniform.requests = {1, 2, 1};
  uniform.num_objects = 2;
  const SizedTrace sized = FromUniform(uniform, 4096);
  ASSERT_EQ(sized.requests.size(), 3u);
  EXPECT_EQ(sized.requests[0].id, 1u);
  EXPECT_EQ(sized.requests[0].size, 4096u);
  EXPECT_EQ(sized.total_object_bytes, 2u * 4096u);
}

class SizedPolicyPropertyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SizedPolicyPropertyTest, BytesNeverExceedCapacity) {
  const SizedTrace trace = WebTrace(607);
  constexpr uint64_t kCapacity = 2 << 20;  // 2 MiB
  auto policy = MakeSizedPolicy(GetParam(), kCapacity);
  ASSERT_NE(policy, nullptr);
  for (const SizedRequest& request : trace.requests) {
    policy->Access(request);
    ASSERT_LE(policy->used_bytes(), kCapacity);
  }
}

TEST_P(SizedPolicyPropertyTest, OversizedObjectsBypassed) {
  auto policy = MakeSizedPolicy(GetParam(), 1000);
  ASSERT_NE(policy, nullptr);
  EXPECT_FALSE(policy->Access(1, 5000));  // larger than the cache
  EXPECT_FALSE(policy->Contains(1));
  EXPECT_EQ(policy->used_bytes(), 0u);
}

TEST_P(SizedPolicyPropertyTest, HitAfterAdmission) {
  auto policy = MakeSizedPolicy(GetParam(), 1 << 20);
  ASSERT_NE(policy, nullptr);
  EXPECT_FALSE(policy->Access(42, 1000));
  EXPECT_TRUE(policy->Contains(42));
  EXPECT_TRUE(policy->Access(42, 1000));
}

TEST_P(SizedPolicyPropertyTest, DeterministicReplay) {
  const SizedTrace trace = WebTrace(609, 10000);
  const auto run = [&] {
    auto policy = MakeSizedPolicy(GetParam(), 4 << 20);
    return ReplaySizedTrace(*policy, trace).hits;
  };
  EXPECT_EQ(run(), run());
}

TEST_P(SizedPolicyPropertyTest, ByteAndObjectRatiosInRange) {
  const SizedTrace trace = WebTrace(611, 15000);
  auto policy = MakeSizedPolicy(GetParam(), 4 << 20);
  const SizedSimResult result = ReplaySizedTrace(*policy, trace);
  EXPECT_GE(result.object_miss_ratio(), 0.0);
  EXPECT_LE(result.object_miss_ratio(), 1.0);
  EXPECT_GE(result.byte_miss_ratio(), 0.0);
  EXPECT_LE(result.byte_miss_ratio(), 1.0);
  EXPECT_GT(result.hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSized, SizedPolicyPropertyTest,
    ::testing::ValuesIn(KnownSizedPolicyNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

TEST(SizedLruTest, EvictsUntilFits) {
  SizedLruPolicy lru(1000);
  lru.Access(1, 400);
  lru.Access(2, 400);
  lru.Access(3, 500);  // evicts LRU object 1; 400 + 500 then fits
  EXPECT_FALSE(lru.Contains(1));
  EXPECT_TRUE(lru.Contains(2));
  EXPECT_TRUE(lru.Contains(3));
  EXPECT_EQ(lru.used_bytes(), 900u);

  lru.Access(4, 900);  // needs the whole budget: evicts both survivors
  EXPECT_FALSE(lru.Contains(2));
  EXPECT_FALSE(lru.Contains(3));
  EXPECT_TRUE(lru.Contains(4));
  EXPECT_EQ(lru.used_bytes(), 900u);
}

TEST(SizedClockTest, ReinsertionProtectsAccessed) {
  SizedClockPolicy clock(1000, 1);
  clock.Access(1, 400);
  clock.Access(2, 400);
  clock.Access(1, 400);  // protect 1
  clock.Access(3, 400);  // sweep: 1 reinserted, 2 evicted
  EXPECT_TRUE(clock.Contains(1));
  EXPECT_FALSE(clock.Contains(2));
  EXPECT_TRUE(clock.Contains(3));
}

TEST(GdsfTest, PrefersSmallObjectsAtEqualFrequency) {
  // Two candidates with equal frequency: the larger has lower priority
  // (frequency/size), so it is evicted first.
  GdsfPolicy gdsf(1000);
  gdsf.Access(1, 100);  // small
  gdsf.Access(2, 800);  // large
  gdsf.Access(3, 500);  // needs 400 bytes freed: evicts 2 (lowest f/s)
  EXPECT_TRUE(gdsf.Contains(1));
  EXPECT_FALSE(gdsf.Contains(2));
  EXPECT_TRUE(gdsf.Contains(3));
}

TEST(GdsfTest, FrequencyOvercomesSize) {
  GdsfPolicy gdsf(1000);
  gdsf.Access(2, 600);
  for (int i = 0; i < 20; ++i) {
    gdsf.Access(2, 600);  // drive 2's frequency up: priority 21/600
  }
  gdsf.Access(1, 100);  // priority 1/100 < 21/600
  gdsf.Access(3, 400);  // needs 100 bytes freed: evicts 1, not frequent 2
  EXPECT_TRUE(gdsf.Contains(2));
  EXPECT_FALSE(gdsf.Contains(1));
  EXPECT_TRUE(gdsf.Contains(3));
}

TEST(GdsfTest, InflationMonotonicallyIncreases) {
  GdsfPolicy gdsf(2000);
  Rng rng(613);
  double last = 0.0;
  for (int i = 0; i < 5000; ++i) {
    gdsf.Access(rng.NextBounded(500), 100 + rng.NextBounded(400));
    ASSERT_GE(gdsf.inflation(), last);
    last = gdsf.inflation();
  }
}

TEST(SizedGhostTest, ByteBudgetEnforced) {
  SizedGhost ghost(1000);
  for (ObjectId id = 0; id < 100; ++id) {
    ghost.Insert(id, 100);
    ASSERT_LE(ghost.charged_bytes(), 1000u);
  }
  // Only the ~10 most recent fit.
  EXPECT_FALSE(ghost.Contains(0));
  EXPECT_TRUE(ghost.Contains(99));
}

TEST(SizedGhostTest, ConsumeReleasesCharge) {
  SizedGhost ghost(1000);
  ghost.Insert(1, 600);
  ghost.Insert(2, 400);
  EXPECT_EQ(ghost.charged_bytes(), 1000u);
  EXPECT_TRUE(ghost.Consume(1));
  EXPECT_EQ(ghost.charged_bytes(), 400u);
  EXPECT_FALSE(ghost.Consume(1));
}

TEST(SizedGhostTest, ConsumeChurnKeepsOneRecordPerLiveEntry) {
  // A million ids ghosted and consumed behind one old live entry: each
  // consumed id must leave no record behind.
  SizedGhost ghost(100);
  ghost.Insert(0, 1);
  for (ObjectId id = 1; id <= 1000000; ++id) {
    ghost.Insert(id, 1);
    ASSERT_TRUE(ghost.Consume(id));
  }
  EXPECT_TRUE(ghost.Contains(0));
  EXPECT_EQ(ghost.charged_bytes(), 1u);
  SizedGhost full(1024);
  for (ObjectId id = 0; id < 1024; ++id) {
    full.Insert(id, 1);
  }
  EXPECT_LE(ghost.ApproxMetadataBytes(), full.ApproxMetadataBytes());
}

TEST(SizedQdLpFifoTest, FlowCountersBehave) {
  SizedQdLpFifo cache(10000, 0.10);  // probation = 1000 bytes
  cache.Access(1, 300);
  cache.Access(1, 300);  // accessed bit
  cache.Access(2, 300);
  cache.Access(3, 300);
  cache.Access(4, 300);  // probation over 1000: evicts 1 -> promoted
  EXPECT_GE(cache.promotions(), 1u);
  EXPECT_TRUE(cache.main().Contains(1));
  EXPECT_TRUE(cache.Contains(1));
}

TEST(SizedQdLpFifoTest, GhostRescueGoesToMain) {
  SizedQdLpFifo cache(10000, 0.10);
  cache.Access(1, 300);
  cache.Access(2, 300);
  cache.Access(3, 300);
  cache.Access(4, 300);  // 1 quick-demoted -> ghost
  ASSERT_FALSE(cache.Contains(1));
  EXPECT_FALSE(cache.Access(1, 300));  // ghost hit: miss but straight to main
  EXPECT_TRUE(cache.main().Contains(1));
  EXPECT_EQ(cache.ghost_admissions(), 1u);
}

TEST(SizedQdLpFifoTest, OversizedForProbationGoesToMain) {
  SizedQdLpFifo cache(10000, 0.10);  // probation 1000 bytes
  EXPECT_FALSE(cache.Access(7, 5000));
  EXPECT_TRUE(cache.main().Contains(7));
}

TEST(SizedQdLpFifoTest, FiltersOneHitWondersByBytes) {
  SizedQdLpFifo cache(1 << 20, 0.10);
  for (ObjectId id = 0; id < 5000; ++id) {
    cache.Access(id, 1000);  // one-touch stream, all probation-sized
  }
  EXPECT_EQ(cache.promotions(), 0u);
  EXPECT_EQ(cache.main().object_count(), 0u);
}

TEST(SizedComparisonTest, QdLpBeatsLruOnWonderHeavyWeb) {
  SizedWebConfig config;
  config.num_requests = 60000;
  config.num_objects = 5000;
  config.one_hit_wonder_fraction = 0.25;
  config.seed = 615;
  const SizedTrace trace = GenerateSizedWeb(config);
  const uint64_t capacity = trace.total_object_bytes / 20;
  auto lru = MakeSizedPolicy("sized-lru", capacity);
  auto qdlp = MakeSizedPolicy("sized-qd-lp-fifo", capacity);
  const auto lru_result = ReplaySizedTrace(*lru, trace);
  const auto qdlp_result = ReplaySizedTrace(*qdlp, trace);
  EXPECT_LT(qdlp_result.object_miss_ratio(), lru_result.object_miss_ratio());
}

}  // namespace
}  // namespace qdlp
