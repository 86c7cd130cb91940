// Concurrent S3-FIFO: sequential equivalence oracle + multi-thread stress.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/concurrent/concurrent_s3fifo.h"
#include "src/core/policy_factory.h"
#include "src/trace/generators.h"
#include "src/util/random.h"
#include "src/util/zipf.h"

namespace qdlp {
namespace {

class S3FifoEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(S3FifoEquivalenceTest, SingleThreadMatchesSequentialPolicy) {
  ZipfTraceConfig config;
  config.num_requests = 30000;
  config.num_objects = 1000;
  config.skew = 0.9;
  config.seed = GetParam();
  const Trace trace = GenerateZipf(config);
  constexpr size_t kCapacity = 120;
  const auto sequential = MakePolicy("s3fifo", kCapacity);
  ConcurrentS3FifoCache concurrent(kCapacity, 4);
  for (size_t i = 0; i < trace.requests.size(); ++i) {
    const ObjectId id = trace.requests[i];
    ASSERT_EQ(concurrent.GetOrAdmit(id), sequential->Access(id))
        << "diverged at request " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, S3FifoEquivalenceTest,
                         ::testing::Values(801, 802, 803, 804));

TEST(ConcurrentS3FifoTest, CapacityBoundedUnderThreads) {
  constexpr size_t kCapacity = 1000;
  ConcurrentS3FifoCache cache(kCapacity, 8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(900 + static_cast<uint64_t>(t));
      ZipfSampler zipf(20000, 1.0);
      for (int i = 0; i < 40000; ++i) {
        cache.GetOrAdmit(zipf.Sample(rng));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_LE(cache.size(), kCapacity);
  EXPECT_GE(cache.size(), kCapacity / 2);  // steady state: mostly full
}

TEST(ConcurrentS3FifoTest, HitRatioSaneUnderThreads) {
  constexpr size_t kCapacity = 2000;
  ConcurrentS3FifoCache cache(kCapacity, 8);
  std::atomic<uint64_t> hits{0};
  constexpr int kThreads = 6;
  constexpr int kOps = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(910 + static_cast<uint64_t>(t));
      ZipfSampler zipf(10000, 1.0);
      uint64_t local = 0;
      for (int i = 0; i < kOps; ++i) {
        local += cache.GetOrAdmit(zipf.Sample(rng)) ? 1 : 0;
      }
      hits.fetch_add(local);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const double hit_ratio = static_cast<double>(hits.load()) /
                           (static_cast<double>(kThreads) * kOps);
  EXPECT_GT(hit_ratio, 0.5);
  EXPECT_LT(hit_ratio, 0.99);
}

// The ghost remembers at most its capacity of ids, however many it has
// recorded and consumed: on a loop just longer than the cache, where ghost
// hits keep the ghost below capacity, metadata stays flat.
TEST(ConcurrentS3FifoTest, GhostMemoryStaysBounded) {
  ConcurrentS3FifoCache cache(100);
  size_t bytes_at_100k = 0;
  for (int i = 1; i <= 1000000; ++i) {
    cache.GetOrAdmit(static_cast<ObjectId>(i % 105));
    if (i == 100000) {
      bytes_at_100k = cache.ApproxMetadataBytes();
    }
  }
  EXPECT_GT(cache.Stats().ghost_hits, 0u);
  EXPECT_LE(cache.ApproxMetadataBytes(), bytes_at_100k * 11 / 10);
  cache.CheckInvariants();
}

TEST(ConcurrentS3FifoTest, GhostPathWorks) {
  ConcurrentS3FifoCache cache(20, 2);
  cache.GetOrAdmit(1);
  // Flood so 1 is quick-demoted to the ghost, then returns via main.
  for (ObjectId id = 100; id < 140; ++id) {
    cache.GetOrAdmit(id);
  }
  EXPECT_FALSE(cache.GetOrAdmit(1));  // ghost hit is still a miss
  EXPECT_TRUE(cache.GetOrAdmit(1));   // but now resident (admitted into main)
}

}  // namespace
}  // namespace qdlp
