// Flash-cache model: miss ratios, write amplification, and the §2 ordering
// (FIFO WA = 1 < CLOCK < LRU-with-GC). flash_golden_test pins every
// design's counts; QD-LP-FIFO's and the LRUs' decisions are the registry
// policies' own.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/core/policy_factory.h"
#include "src/flash/flash_model.h"
#include "src/policies/fifo.h"
#include "src/trace/generators.h"
#include "src/util/random.h"
#include "src/util/zipf.h"

namespace qdlp {
namespace {

Trace FlashTrace(uint64_t seed = 1201) {
  ZipfTraceConfig config;
  config.num_requests = 100000;
  config.num_objects = 8000;
  config.skew = 0.9;
  config.seed = seed;
  return GenerateZipf(config);
}

// The design MakeFlashDesigns names `name`.
std::unique_ptr<FlashCache> Design(const std::string& name, size_t capacity,
                                   size_t segment) {
  for (auto& design : MakeFlashDesigns(capacity, segment)) {
    if (design->name() == name) {
      return std::move(design);
    }
  }
  return nullptr;
}

TEST(LogFlashTest, FifoWriteAmplificationIsExactlyOne) {
  const auto cache = Design("flash-fifo", 1000, 100);
  const Trace trace = FlashTrace();
  for (const ObjectId id : trace.requests) {
    cache->Access(id);
  }
  EXPECT_DOUBLE_EQ(cache->stats().write_amplification(), 1.0);
  EXPECT_GT(cache->stats().segments_erased, 0u);
}

TEST(LogFlashTest, FifoMissRatioMatchesPolicyFifo) {
  // Segment-batched reclaim frees a whole segment at once, so occupancy
  // oscillates in [capacity - segment + 1, capacity]; the steady-state miss
  // ratio must still track exact FIFO closely.
  const auto flash = Design("flash-fifo", 1000, 100);
  FifoPolicy fifo(1000);
  const Trace trace = FlashTrace(1203);
  uint64_t flash_hits = 0;
  uint64_t fifo_hits = 0;
  for (const ObjectId id : trace.requests) {
    flash_hits += flash->Access(id) ? 1 : 0;
    fifo_hits += fifo.Access(id) ? 1 : 0;
  }
  const double denom = static_cast<double>(trace.requests.size());
  EXPECT_NEAR(static_cast<double>(flash_hits) / denom,
              static_cast<double>(fifo_hits) / denom, 0.02);
}

TEST(LogFlashTest, ClockPaysForReinsertions) {
  const auto clock_flash = Design("flash-clock1", 1000, 100);
  const Trace trace = FlashTrace(1205);
  for (const ObjectId id : trace.requests) {
    clock_flash->Access(id);
  }
  EXPECT_GT(clock_flash->stats().write_amplification(), 1.0);
  // ...but buys a lower miss ratio than flash-FIFO.
  const auto fifo_flash = Design("flash-fifo", 1000, 100);
  for (const ObjectId id : trace.requests) {
    fifo_flash->Access(id);
  }
  EXPECT_LT(clock_flash->stats().miss_ratio(),
            fifo_flash->stats().miss_ratio());
}

TEST(LogFlashTest, ClockMissRatioMatchesPolicyClock) {
  // Segment-batched reclaim with reinsertion is still CLOCK semantically?
  // Not exactly request-for-request (the hand moves a segment at a time),
  // but the steady-state miss ratio must land very close.
  const auto flash = Design("flash-clock1", 2000, 100);
  const auto clock = MakePolicy("fifo-reinsertion", 2000);
  const Trace trace = FlashTrace(1207);
  uint64_t flash_hits = 0;
  uint64_t clock_hits = 0;
  for (const ObjectId id : trace.requests) {
    flash_hits += flash->Access(id) ? 1 : 0;
    clock_hits += clock->Access(id) ? 1 : 0;
  }
  const double flash_ratio =
      static_cast<double>(flash_hits) / static_cast<double>(trace.requests.size());
  const double clock_ratio =
      static_cast<double>(clock_hits) / static_cast<double>(trace.requests.size());
  EXPECT_NEAR(flash_ratio, clock_ratio, 0.02);
}

TEST(LruFlashTest, ResidencyBoundedAndGcRuns) {
  const auto cache = Design("flash-lru", 1000, 100);
  const Trace trace = FlashTrace(1209);
  for (const ObjectId id : trace.requests) {
    cache->Access(id);
    ASSERT_LE(cache->resident(), 1000u);
  }
  EXPECT_GT(cache->stats().segments_erased, 0u);
  EXPECT_GT(cache->stats().write_amplification(), 1.0);  // GC rewrites
}

TEST(QdLpFlashTest, WonderHeavyTrafficIsWriteCheap) {
  // Quick demotion drops one-hit wonders with their segment: they cost one
  // write each and no reinsertions, so WA stays near 1 even under churn.
  const auto cache = Design("flash-qd-lp-fifo", 1000, 100);
  Rng rng(1213);
  ObjectId wonder = 1u << 22;
  ZipfSampler zipf(700, 1.0);
  for (int i = 0; i < 100000; ++i) {
    cache->Access(rng.NextBool(0.5) ? zipf.Sample(rng) : wonder++);
  }
  EXPECT_LT(cache->stats().write_amplification(), 1.3);
  EXPECT_GT(cache->stats().hits, 0u);
}

TEST(RipqLruFlashTest, HotObjectsRewrittenEveryLap) {
  // A hot working set plus one-touch churn: the churn drives device laps,
  // and every lap must rewrite the (retained) hot set — WA well above 1.
  const auto cache = Design("flash-lru-ripq", 1000, 100);
  for (ObjectId id = 0; id < 900; ++id) {
    cache->Access(id);  // establish the hot set
  }
  Rng rng(1219);
  for (int i = 0; i < 50000; ++i) {
    if (rng.NextBool(0.5)) {
      cache->Access(rng.NextBounded(900));
    } else {
      cache->Access((1u << 23) + static_cast<ObjectId>(i));  // churn
    }
  }
  EXPECT_GT(cache->stats().write_amplification(), 2.0);
}

TEST(FlashOrderingTest, WriteAmplificationOrdersAsSection2Claims) {
  // The §2 ordering on a cache-shaped workload: FIFO (=1) <= QD-LP-FIFO and
  // CLOCK, all far below RIPQ-style exact LRU, which rewrites every
  // retained object once per device lap.
  const Trace trace = FlashTrace(1215);
  const auto fifo = Design("flash-fifo", 1000, 100);
  const auto clock = Design("flash-clock1", 1000, 100);
  const auto qdlp = Design("flash-qd-lp-fifo", 1000, 100);
  const auto ripq = Design("flash-lru-ripq", 1000, 100);
  for (const ObjectId id : trace.requests) {
    fifo->Access(id);
    clock->Access(id);
    qdlp->Access(id);
    ripq->Access(id);
  }
  EXPECT_DOUBLE_EQ(fifo->stats().write_amplification(), 1.0);
  EXPECT_LE(fifo->stats().write_amplification(),
            qdlp->stats().write_amplification());
  EXPECT_LT(qdlp->stats().write_amplification(),
            ripq->stats().write_amplification());
  EXPECT_LT(clock->stats().write_amplification(),
            ripq->stats().write_amplification());
}

}  // namespace
}  // namespace qdlp
