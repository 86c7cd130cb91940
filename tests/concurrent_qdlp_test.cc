// Concurrent QD-LP-FIFO: sequential equivalence against the composed
// MakePolicy("qd-lp-fifo") spec + multi-thread stress with invariant checks.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/concurrent/concurrent_qdlp_fifo.h"
#include "src/core/policy_factory.h"
#include "src/trace/generators.h"
#include "src/util/random.h"
#include "src/util/zipf.h"

namespace qdlp {
namespace {

class QdLpFifoEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QdLpFifoEquivalenceTest, SingleThreadMatchesSequentialPolicy) {
  ZipfTraceConfig config;
  config.num_requests = 30000;
  config.num_objects = 1000;
  config.skew = 0.9;
  config.seed = GetParam();
  const Trace trace = GenerateZipf(config);
  constexpr size_t kCapacity = 120;
  const auto sequential = MakePolicy("qd-lp-fifo", kCapacity);
  ASSERT_NE(sequential, nullptr);
  ConcurrentQdLpFifo concurrent(kCapacity, /*num_stripes=*/4);
  for (size_t i = 0; i < trace.requests.size(); ++i) {
    const ObjectId id = trace.requests[i];
    ASSERT_EQ(concurrent.Get(id), sequential->Access(id))
        << "diverged at request " << i;
    if (i % 997 == 0) {
      concurrent.CheckInvariants();
    }
  }
  concurrent.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, QdLpFifoEquivalenceTest,
                         ::testing::Values(901, 902, 903, 904));

TEST(ConcurrentQdLpFifoTest, CapacitySplitMatchesFactory) {
  // probation = clamp(round(0.10 * cap), 1, cap - 1); main = the rest.
  ConcurrentQdLpFifo tiny(2);
  EXPECT_EQ(tiny.probation_capacity(), 1u);
  EXPECT_EQ(tiny.main_capacity(), 1u);
  ConcurrentQdLpFifo small(16);
  EXPECT_EQ(small.probation_capacity(), 2u);
  EXPECT_EQ(small.main_capacity(), 14u);
  ConcurrentQdLpFifo big(1000);
  EXPECT_EQ(big.probation_capacity(), 100u);
  EXPECT_EQ(big.main_capacity(), 900u);
  EXPECT_EQ(big.capacity(), 1000u);
}

TEST(ConcurrentQdLpFifoTest, CapacityBoundedUnderThreads) {
  constexpr size_t kCapacity = 1000;
  ConcurrentQdLpFifo cache(kCapacity, /*num_stripes=*/8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(920 + static_cast<uint64_t>(t));
      ZipfSampler zipf(20000, 1.0);
      for (int i = 0; i < 40000; ++i) {
        cache.Get(zipf.Sample(rng));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  cache.CheckInvariants();
  EXPECT_LE(cache.size(), kCapacity);
  EXPECT_GE(cache.size(), kCapacity / 2);  // steady state: mostly full
}

TEST(ConcurrentQdLpFifoTest, HitRatioSaneUnderThreads) {
  constexpr size_t kCapacity = 2000;
  ConcurrentQdLpFifo cache(kCapacity, /*num_stripes=*/8);
  std::atomic<uint64_t> hits{0};
  constexpr int kThreads = 6;
  constexpr int kOps = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(930 + static_cast<uint64_t>(t));
      ZipfSampler zipf(10000, 1.0);
      uint64_t local = 0;
      for (int i = 0; i < kOps; ++i) {
        local += cache.Get(zipf.Sample(rng)) ? 1 : 0;
      }
      hits.fetch_add(local);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  cache.CheckInvariants();
  const double hit_ratio = static_cast<double>(hits.load()) /
                           (static_cast<double>(kThreads) * kOps);
  EXPECT_GT(hit_ratio, 0.5);
  EXPECT_LT(hit_ratio, 0.99);
}

TEST(ConcurrentQdLpFifoTest, GhostResurrectionAdmitsIntoMain) {
  ConcurrentQdLpFifo cache(20);  // probation 2, main 18, ghost 18
  cache.Get(1);
  // Flood the probation FIFO so 1 is quick-demoted into the ghost.
  for (ObjectId id = 100; id < 110; ++id) {
    cache.Get(id);
  }
  EXPECT_FALSE(cache.Get(1));  // ghost hit is still a miss...
  EXPECT_TRUE(cache.Get(1));   // ...but 1 is now resident in main
  cache.CheckInvariants();
}

TEST(ConcurrentQdLpFifoTest, LazyPromotionKeepsReaccessedObjects) {
  ConcurrentQdLpFifo cache(20);  // probation 2
  cache.Get(1);
  EXPECT_TRUE(cache.Get(1));  // sets the probation accessed bit
  // Push 1 out of probation; the accessed bit promotes it into main.
  cache.Get(2);
  cache.Get(3);
  EXPECT_TRUE(cache.Get(1));
  cache.CheckInvariants();
}

// A slot freed by Remove() in the main CLOCK is the next main admission's,
// as in the sequential QdCache's CLOCK: nothing live is evicted while it
// is free.
TEST(ConcurrentQdLpFifoTest, RemovedMainSlotIsReusedBeforeEvicting) {
  ConcurrentQdLpFifo cache(20);  // probation 2, main 18, ghost 18
  for (ObjectId id = 0; id < 40; ++id) {
    cache.Get(id);  // 20..37 end up in the ghost, 38 and 39 on probation
  }
  for (ObjectId id = 20; id < 38; ++id) {
    cache.Get(id);  // ghost hits: main fills with 20..37
  }
  ASSERT_TRUE(cache.Remove(30));
  for (ObjectId id = 100; id < 104; ++id) {
    cache.Get(id);  // quick-demotes 38, 39, 100 and 101 into the ghost
  }
  EXPECT_FALSE(cache.Get(38));  // ghost hit: admitted into main
  EXPECT_EQ(cache.Stats().size, 20u);
  EXPECT_TRUE(cache.Get(20));
  cache.CheckInvariants();
}

// Removing a probation entry frees its slot and moves nothing else: every
// other resident keeps the value cell it owned, with its bytes.
TEST(ConcurrentQdLpFifoTest, ProbationRemovalMovesNoOtherValueCell) {
  QdlpValueOptions value_options;
  value_options.arena_bytes = 1u << 20;
  ConcurrentQdLpFifo cache(100, /*num_stripes=*/4, /*num_shards=*/1,
                           value_options);  // probation 10, main 90
  SlabStore* store = cache.value_store();
  ASSERT_NE(store, nullptr);
  // 0..9 are re-read on probation, so 10..19 promote them into main and
  // then fill probation, oldest first.
  for (ObjectId id = 0; id < 20; ++id) {
    ASSERT_EQ(cache.SetValue(id, std::string("v").append(std::to_string(id)),
                             /*expiry_s=*/0),
              SetStatus::kOk);
    if (id < 10) {
      ASSERT_TRUE(cache.Get(id));
    }
  }
  ASSERT_EQ(cache.Stats().probation_size, 10u);
  ASSERT_EQ(cache.Stats().main_size, 10u);
  std::string value;
  std::map<ObjectId, uint32_t> cells;
  for (uint32_t cell = 0; cell < store->num_cells(); ++cell) {
    for (ObjectId id = 0; id < 20; ++id) {
      if (store->Read(cell, id, /*now_s=*/0, &value) ==
          SlabStore::ReadResult::kHit) {
        ASSERT_TRUE(cells.emplace(id, cell).second) << id;
      }
    }
  }
  ASSERT_EQ(cells.size(), 20u);

  ASSERT_TRUE(cache.Remove(15));  // the middle of probation's 10..19
  for (const auto& [id, cell] : cells) {
    if (id == 15) {
      continue;
    }
    ASSERT_EQ(store->Read(cell, id, /*now_s=*/0, &value),
              SlabStore::ReadResult::kHit)
        << "id " << id << " left cell " << cell;
    EXPECT_EQ(value, std::string("v").append(std::to_string(id)));
  }
  cache.CheckInvariants();
}

// The ghost remembers at most its capacity of ids, however many it has
// recorded and consumed: on a key set just above the cache size, where
// ghost hits keep the ghost below capacity, metadata stays flat.
TEST(ConcurrentQdLpFifoTest, GhostMemoryStaysBounded) {
  ConcurrentQdLpFifo cache(100);
  Rng rng(0x6405);
  size_t bytes_at_100k = 0;
  for (int i = 1; i <= 1000000; ++i) {
    cache.Get(rng.NextBounded(150));
    if (i == 100000) {
      bytes_at_100k = cache.ApproxMetadataBytes();
    }
  }
  EXPECT_GT(cache.Stats().ghost_hits, 0u);
  EXPECT_LE(cache.ApproxMetadataBytes(), bytes_at_100k * 11 / 10);
  cache.CheckInvariants();
}

TEST(ConcurrentQdLpFifoTest, ReportsMetadataBytes) {
  ConcurrentQdLpFifo cache(1000);
  EXPECT_GT(cache.ApproxMetadataBytes(), 0u);
}

}  // namespace
}  // namespace qdlp
