// QdCache (the paper's QD construction), QD-LP-FIFO, the policy factory,
// S3-FIFO, and SIEVE.

#include <gtest/gtest.h>

#include <memory>

#include "src/core/policy_factory.h"
#include "src/core/qd_cache.h"
#include "src/core/sieve.h"
#include "src/policies/fifo.h"
#include "src/policies/lru.h"
#include "src/trace/generators.h"
#include "src/util/random.h"

namespace qdlp {
namespace {

std::unique_ptr<QdCache> MakeQdLru(size_t probation, size_t main) {
  return std::make_unique<QdCache>(probation,
                                   std::make_unique<LruPolicy>(main));
}

TEST(QdCacheTest, MissEntersProbation) {
  auto qd = MakeQdLru(2, 8);
  EXPECT_FALSE(qd->Access(1));
  EXPECT_EQ(qd->probation_size(), 1u);
  EXPECT_EQ(qd->main().size(), 0u);
  EXPECT_TRUE(qd->Contains(1));
}

TEST(QdCacheTest, ProbationHitSetsBitWithoutMoving) {
  auto qd = MakeQdLru(2, 8);
  qd->Access(1);
  EXPECT_TRUE(qd->Access(1));
  EXPECT_EQ(qd->probation_size(), 1u);
  EXPECT_EQ(qd->main().size(), 0u);  // promotion is lazy: at eviction time
}

TEST(QdCacheTest, AccessedEvicteePromotedToMain) {
  auto qd = MakeQdLru(2, 8);
  qd->Access(1);
  qd->Access(1);  // mark accessed
  qd->Access(2);
  qd->Access(3);  // probation full (2): evicts 1 -> promoted to main
  EXPECT_EQ(qd->promotions(), 1u);
  EXPECT_TRUE(qd->main().Contains(1));
  EXPECT_TRUE(qd->Contains(1));
}

TEST(QdCacheTest, UntouchedEvicteeGoesToGhost) {
  auto qd = MakeQdLru(2, 8);
  qd->Access(1);
  qd->Access(2);
  qd->Access(3);  // evicts 1 (never re-accessed) -> ghost
  EXPECT_EQ(qd->quick_demotions(), 1u);
  EXPECT_FALSE(qd->Contains(1));
  EXPECT_TRUE(qd->InGhost(1));
}

TEST(QdCacheTest, GhostHitAdmitsDirectlyToMain) {
  auto qd = MakeQdLru(2, 8);
  qd->Access(1);
  qd->Access(2);
  qd->Access(3);  // 1 -> ghost
  ASSERT_TRUE(qd->InGhost(1));
  EXPECT_FALSE(qd->Access(1));  // still a miss...
  EXPECT_TRUE(qd->main().Contains(1));  // ...but admitted straight to main
  EXPECT_EQ(qd->ghost_admissions(), 1u);
  EXPECT_FALSE(qd->InGhost(1));  // consumed
}

TEST(QdCacheTest, TotalSizeBounded) {
  auto qd = MakeQdLru(3, 12);
  Rng rng(103);
  for (int i = 0; i < 20000; ++i) {
    qd->Access(rng.NextBounded(200));
    ASSERT_LE(qd->size(), 15u);
    ASSERT_LE(qd->probation_size(), 3u);
  }
}

TEST(QdCacheTest, FiltersOneHitWonders) {
  // One-hit wonders must never reach the main cache.
  auto qd = MakeQdLru(5, 45);
  for (ObjectId id = 0; id < 10000; ++id) {
    qd->Access(id);  // every object touched exactly once
  }
  EXPECT_EQ(qd->main().size(), 0u);
  EXPECT_EQ(qd->promotions(), 0u);
  EXPECT_EQ(qd->ghost_admissions(), 0u);
}

TEST(PolicyFactoryTest, BuildsEveryKnownPolicy) {
  ZipfTraceConfig config;
  config.num_requests = 200;
  config.num_objects = 50;
  config.seed = 105;
  const Trace trace = GenerateZipf(config);
  for (const std::string& name : KnownPolicyNames()) {
    auto policy = MakePolicy(name, 20, &trace.requests);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_EQ(policy->capacity(), 20u) << name;
  }
}

TEST(PolicyFactoryTest, UnknownNameReturnsNull) {
  EXPECT_EQ(MakePolicy("no-such-policy", 10), nullptr);
  EXPECT_EQ(MakePolicy("qd-no-such-policy", 10), nullptr);
}

TEST(PolicyFactoryTest, BeladyRequiresTrace) {
  EXPECT_EQ(MakePolicy("belady", 10, nullptr), nullptr);
}

TEST(PolicyFactoryTest, QdSplitIsTenPercent) {
  auto policy = MakePolicy("qd-lru", 100);
  ASSERT_NE(policy, nullptr);
  auto* qd = dynamic_cast<QdCache*>(policy.get());
  ASSERT_NE(qd, nullptr);
  EXPECT_EQ(qd->probation_capacity(), 10u);
  EXPECT_EQ(qd->main().capacity(), 90u);
  EXPECT_EQ(qd->name(), "qd-lru");
}

// The main region is a 2-bit CLOCK: qd-lp-fifo decides request for request
// as the generic QD wrapper over clock2 does, and unlike the wrappers over
// 1-bit and 3-bit CLOCK.
TEST(PolicyFactoryTest, QdLpFifoUsesTwoBitClockMain) {
  auto policy = MakePolicy("qd-lp-fifo", 100);
  ASSERT_NE(policy, nullptr);
  EXPECT_EQ(policy->name(), "qd-lp-fifo");
  auto two_bit = MakePolicy("qd-clock2", 100);
  auto one_bit = MakePolicy("qd-clock1", 100);
  auto three_bit = MakePolicy("qd-clock3", 100);
  ZipfTraceConfig config;
  config.num_requests = 20000;
  config.num_objects = 1000;
  config.seed = 109;
  size_t differs_from_one_bit = 0;
  size_t differs_from_three_bit = 0;
  for (const ObjectId id : GenerateZipf(config).requests) {
    const bool hit = policy->Access(id);
    ASSERT_EQ(hit, two_bit->Access(id));
    differs_from_one_bit += hit != one_bit->Access(id) ? 1 : 0;
    differs_from_three_bit += hit != three_bit->Access(id) ? 1 : 0;
  }
  EXPECT_GT(differs_from_one_bit, 0u);
  EXPECT_GT(differs_from_three_bit, 0u);
}

TEST(S3FifoTest, BasicFlow) {
  const auto s3 = MakePolicy("s3fifo", 10);  // small = 1, main = 9
  EXPECT_FALSE(s3->Access(1));
  EXPECT_EQ(s3->Stats().probation_size, 1u);
  EXPECT_TRUE(s3->Access(1));  // freq bump
  s3->Access(2);  // small over its share -> 1 promoted to main (freq >= 1)
  EXPECT_TRUE(s3->Contains(1));
}

TEST(S3FifoTest, OneHitWondersFiltered) {
  const auto s3 = MakePolicy("s3fifo", 50);  // small fraction 0.10
  for (ObjectId id = 0; id < 5000; ++id) {
    s3->Access(id);
  }
  EXPECT_EQ(s3->Stats().main_size, 0u);  // nothing ever proved reuse
  EXPECT_LE(s3->size(), 50u);
}

TEST(S3FifoTest, GhostHitGoesToMain) {
  const auto s3 = MakePolicy("s3fifo", 20);  // small fraction 0.10
  s3->Access(1);
  // Flood small queue so 1 is quick-demoted into the ghost.
  for (ObjectId id = 100; id < 120; ++id) {
    s3->Access(id);
  }
  ASSERT_FALSE(s3->Contains(1));
  EXPECT_FALSE(s3->Access(1));  // ghost hit -> main
  EXPECT_GT(s3->Stats().main_size, 0u);
  EXPECT_TRUE(s3->Contains(1));
}

TEST(S3FifoTest, CapacityRespected) {
  const auto s3 = MakePolicy("s3fifo", 16);
  Rng rng(107);
  for (int i = 0; i < 30000; ++i) {
    s3->Access(rng.NextBounded(300));
    ASSERT_LE(s3->size(), 16u);
  }
}

TEST(SieveTest, VisitedObjectsSurviveTheHand) {
  SievePolicy sieve(3);
  sieve.Access(1);
  sieve.Access(2);
  sieve.Access(3);
  sieve.Access(1);  // visited
  sieve.Access(4);  // hand sweeps from tail: 1 spared, 2 evicted
  EXPECT_TRUE(sieve.Contains(1));
  EXPECT_FALSE(sieve.Contains(2));
  EXPECT_TRUE(sieve.Contains(3));
  EXPECT_TRUE(sieve.Contains(4));
}

TEST(SieveTest, HandDoesNotMoveSurvivors) {
  // After sparing 1 the hand rests just before it (toward head); the next
  // eviction continues from there rather than rescanning the tail.
  SievePolicy sieve(3);
  sieve.Access(1);
  sieve.Access(2);
  sieve.Access(3);
  sieve.Access(1);  // visit 1 (tail)
  sieve.Access(4);  // evict 2; hand now at 3
  sieve.Access(1);  // visit 1 again — but hand is already past it
  sieve.Access(5);  // evict 3 (hand position), not re-protected 1
  EXPECT_TRUE(sieve.Contains(1));
  EXPECT_FALSE(sieve.Contains(3));
}

TEST(SieveTest, CapacityRespected) {
  SievePolicy sieve(16);
  Rng rng(109);
  for (int i = 0; i < 30000; ++i) {
    sieve.Access(rng.NextBounded(300));
    ASSERT_LE(sieve.size(), 16u);
  }
}

TEST(SieveTest, AllVisitedWrapsAndEvicts) {
  SievePolicy sieve(3);
  sieve.Access(1);
  sieve.Access(2);
  sieve.Access(3);
  sieve.Access(1);
  sieve.Access(2);
  sieve.Access(3);  // all visited
  sieve.Access(4);  // must clear bits and evict someone
  EXPECT_EQ(sieve.size(), 3u);
  EXPECT_TRUE(sieve.Contains(4));
}

}  // namespace
}  // namespace qdlp
