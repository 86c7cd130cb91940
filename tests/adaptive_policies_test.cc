// LeCaR and CACHEUS: expert-weight behaviour and general sanity, plus the
// bounded metadata of the Fig-5 adaptive policies.

#include <gtest/gtest.h>

#include <memory>

#include "src/policies/arc.h"
#include "src/policies/cacheus.h"
#include "src/policies/lecar.h"
#include "src/policies/lhd.h"
#include "src/policies/lfu.h"
#include "src/policies/lru.h"
#include "src/trace/generators.h"
#include "src/util/random.h"

namespace qdlp {
namespace {

TEST(LecarTest, BasicHitMissAndCapacity) {
  LecarPolicy lecar(4);
  EXPECT_FALSE(lecar.Access(1));
  EXPECT_FALSE(lecar.Access(2));
  EXPECT_TRUE(lecar.Access(1));
  for (ObjectId id = 10; id < 100; ++id) {
    lecar.Access(id);
    ASSERT_LE(lecar.size(), 4u);
  }
}

TEST(LecarTest, WeightsStayNormalized) {
  LecarPolicy lecar(8);
  ZipfTraceConfig config;
  config.num_requests = 20000;
  config.num_objects = 300;
  config.seed = 61;
  const Trace trace = GenerateZipf(config);
  for (const ObjectId id : trace.requests) {
    lecar.Access(id);
    ASSERT_GE(lecar.lru_weight(), 0.0);
    ASSERT_LE(lecar.lru_weight(), 1.0);
  }
}

TEST(LecarTest, LfuFriendlyWorkloadShiftsWeightAwayFromLru) {
  // Workload: a hot set accessed frequently plus a churning one-touch
  // stream. Evicting hot objects (which LRU's recency view tolerates once
  // the churn floods the list) is a mistake LeCaR should learn from.
  LecarPolicy lecar(50);
  Rng rng(63);
  ObjectId churn = 1u << 24;
  for (int i = 0; i < 60000; ++i) {
    if (rng.NextBool(0.4)) {
      lecar.Access(rng.NextBounded(30));  // hot, high frequency
    } else {
      lecar.Access(churn++);
    }
  }
  EXPECT_LT(lecar.lru_weight(), 0.5);
}

TEST(LecarTest, DeterministicForSeed) {
  const auto run = [] {
    LecarPolicy lecar(16);
    ZipfTraceConfig config;
    config.num_requests = 5000;
    config.num_objects = 100;
    config.seed = 65;
    const Trace trace = GenerateZipf(config);
    uint64_t hits = 0;
    for (const ObjectId id : trace.requests) {
      hits += lecar.Access(id) ? 1 : 0;
    }
    return hits;
  };
  EXPECT_EQ(run(), run());
}

TEST(CacheusTest, BasicHitMissAndCapacity) {
  CacheusPolicy cacheus(4);
  EXPECT_FALSE(cacheus.Access(1));
  EXPECT_TRUE(cacheus.Access(1));
  for (ObjectId id = 10; id < 100; ++id) {
    cacheus.Access(id);
    ASSERT_LE(cacheus.size(), 4u);
  }
}

TEST(CacheusTest, LearningRateStaysInBounds) {
  CacheusPolicy cacheus(32);
  ZipfTraceConfig config;
  config.num_requests = 50000;
  config.num_objects = 1000;
  config.seed = 67;
  const Trace trace = GenerateZipf(config);
  for (const ObjectId id : trace.requests) {
    cacheus.Access(id);
    ASSERT_GE(cacheus.learning_rate(), 1e-3);
    ASSERT_LE(cacheus.learning_rate(), 1.0);
  }
}

TEST(CacheusTest, LearningRateAdapts) {
  CacheusPolicy cacheus(32);
  ScanLoopConfig config;
  config.num_requests = 50000;
  config.hot_objects = 200;
  config.seed = 69;
  const Trace trace = GenerateScanLoop(config);
  const double initial = cacheus.learning_rate();
  bool changed = false;
  for (const ObjectId id : trace.requests) {
    cacheus.Access(id);
    if (cacheus.learning_rate() != initial) {
      changed = true;
    }
  }
  EXPECT_TRUE(changed);
}

TEST(AdaptiveTest, NoWorseThanWorstExpertOnMixedWorkload) {
  // On a workload blending recency-friendly and frequency-friendly phases,
  // the adaptive combiners should land at least near the better expert.
  ZipfTraceConfig zipf_config;
  zipf_config.num_requests = 30000;
  zipf_config.num_objects = 600;
  zipf_config.skew = 0.8;
  zipf_config.seed = 71;
  const Trace trace = GenerateZipf(zipf_config);
  constexpr size_t kCapacity = 60;

  const auto hits_of = [&](EvictionPolicy& policy) {
    uint64_t hits = 0;
    for (const ObjectId id : trace.requests) {
      hits += policy.Access(id) ? 1 : 0;
    }
    return hits;
  };
  LruPolicy lru(kCapacity);
  LfuPolicy lfu(kCapacity);
  LecarPolicy lecar(kCapacity);
  CacheusPolicy cacheus(kCapacity);
  const uint64_t lru_hits = hits_of(lru);
  const uint64_t lfu_hits = hits_of(lfu);
  const uint64_t lecar_hits = hits_of(lecar);
  const uint64_t cacheus_hits = hits_of(cacheus);
  const uint64_t worst = std::min(lru_hits, lfu_hits);
  // Allow 10% slack: the combiner pays some exploration cost.
  EXPECT_GT(lecar_hits * 10, worst * 9);
  EXPECT_GT(cacheus_hits * 10, worst * 9);
}

// A loop over one more id than the cache holds misses on nearly every
// request, so each eviction feeds a ghost list or history whose ids keep
// coming back. The metadata must stop growing once those fill: the same
// ApproxMetadataBytes() after 10x the requests. (A history that kept a
// stale record per ghost hit would grow by about 16 bytes a request.)
TEST(AdaptiveMetadataTest, StaysBoundedUnderGhostHitChurn) {
#ifdef QDLP_CHECK_INVARIANTS
  constexpr uint64_t kRequests = 50000;  // O(size) check per access
#else
  constexpr uint64_t kRequests = 2000000;
#endif
  constexpr size_t kCapacity = 100;
  std::unique_ptr<EvictionPolicy> policies[] = {
      std::make_unique<ArcPolicy>(kCapacity),
      std::make_unique<LecarPolicy>(kCapacity),
      std::make_unique<CacheusPolicy>(kCapacity),
      std::make_unique<LhdPolicy>(kCapacity),
  };
  for (const auto& policy : policies) {
    size_t bytes_at_tenth = 0;
    for (uint64_t i = 0; i < kRequests; ++i) {
      policy->Access(i % (kCapacity + 1));
      if (i + 1 == kRequests / 10) {
        bytes_at_tenth = policy->ApproxMetadataBytes();
      }
    }
    EXPECT_GT(bytes_at_tenth, 0u) << policy->name();
    EXPECT_EQ(policy->ApproxMetadataBytes(), bytes_at_tenth) << policy->name();
    policy->CheckInvariants();
  }
}

}  // namespace
}  // namespace qdlp
