#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <latch>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/util/random.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/util/thread_ordinal.h"
#include "src/util/thread_pool.h"
#include "src/util/zipf.h"

namespace qdlp {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    equal += a.Next() == b.Next() ? 1 : 0;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, NextBoundedInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedCoversSmallRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.NextBounded(4));
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanIsHalf) {
  Rng rng(13);
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    sum += rng.NextDouble();
  }
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(RngTest, NextBoolProbability) {
  Rng rng(15);
  int trues = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    trues += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(trues) / kSamples, 0.3, 0.01);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(17);
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    sum += static_cast<double>(rng.NextExponential(50.0));
  }
  EXPECT_NEAR(sum / kSamples, 50.0, 2.0);
}

TEST(SplitMix64Test, IsDeterministicAndMixes) {
  EXPECT_EQ(SplitMix64(1), SplitMix64(1));
  EXPECT_NE(SplitMix64(1), SplitMix64(2));
  // Adjacent inputs should differ in roughly half the bits.
  const uint64_t diff = SplitMix64(100) ^ SplitMix64(101);
  EXPECT_GT(__builtin_popcountll(diff), 16);
}

class ZipfAgreementTest : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(ZipfAgreementTest, RejectionSamplerMatchesTableOracle) {
  const auto [n, skew] = GetParam();
  ZipfSampler fast(n, skew);
  ZipfTable oracle(n, skew);
  constexpr int kSamples = 200000;
  std::vector<double> fast_counts(n, 0.0);
  std::vector<double> oracle_counts(n, 0.0);
  Rng rng_fast(21);
  Rng rng_oracle(22);
  for (int i = 0; i < kSamples; ++i) {
    const uint64_t a = fast.Sample(rng_fast);
    const uint64_t b = oracle.Sample(rng_oracle);
    ASSERT_LT(a, n);
    ASSERT_LT(b, n);
    fast_counts[a] += 1;
    oracle_counts[b] += 1;
  }
  // Compare the head of the distribution (ranks with solid mass).
  for (uint64_t rank = 0; rank < std::min<uint64_t>(n, 5); ++rank) {
    const double pf = fast_counts[rank] / kSamples;
    const double po = oracle_counts[rank] / kSamples;
    EXPECT_NEAR(pf, po, 0.01) << "rank " << rank;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ZipfAgreementTest,
    ::testing::Values(std::make_tuple(10ULL, 0.6), std::make_tuple(10ULL, 1.0),
                      std::make_tuple(100ULL, 0.8),
                      std::make_tuple(100ULL, 1.0),
                      std::make_tuple(1000ULL, 1.2),
                      std::make_tuple(1000ULL, 0.5)));

TEST(ZipfTest, RankZeroIsMostPopular) {
  ZipfSampler zipf(1000, 1.0);
  Rng rng(23);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[10]);
  EXPECT_GT(counts[10], counts[100]);
}

TEST(ZipfTest, SingleObjectAlwaysRankZero) {
  ZipfSampler zipf(1, 1.0);
  Rng rng(25);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(zipf.Sample(rng), 0u);
  }
}

TEST(ZipfTest, HighSkewConcentrates) {
  ZipfSampler mild(1000, 0.5);
  ZipfSampler steep(1000, 1.5);
  Rng rng_a(27);
  Rng rng_b(27);
  int mild_head = 0;
  int steep_head = 0;
  for (int i = 0; i < 50000; ++i) {
    mild_head += mild.Sample(rng_a) < 10 ? 1 : 0;
    steep_head += steep.Sample(rng_b) < 10 ? 1 : 0;
  }
  EXPECT_GT(steep_head, mild_head * 2);
}

TEST(StreamingStatsTest, BasicMoments) {
  StreamingStats stats;
  for (double x : {1.0, 2.0, 3.0, 4.0}) {
    stats.Add(x);
  }
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 10.0);
  EXPECT_NEAR(stats.variance(), 1.25, 1e-12);
}

TEST(StreamingStatsTest, EmptyIsZero) {
  StreamingStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(PercentileSummaryTest, QuantilesOfKnownData) {
  PercentileSummary summary;
  for (int i = 1; i <= 100; ++i) {
    summary.Add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(summary.Min(), 1.0);
  EXPECT_DOUBLE_EQ(summary.Max(), 100.0);
  EXPECT_NEAR(summary.Median(), 50.5, 1e-9);
  EXPECT_NEAR(summary.Quantile(0.25), 25.75, 1e-9);
  EXPECT_NEAR(summary.Mean(), 50.5, 1e-9);
}

TEST(PercentileSummaryTest, EmptyReturnsZero) {
  PercentileSummary summary;
  EXPECT_EQ(summary.Quantile(0.5), 0.0);
  EXPECT_EQ(summary.Mean(), 0.0);
}

TEST(PercentileSummaryTest, AddAfterQuantileStillSorted) {
  PercentileSummary summary;
  summary.Add(3.0);
  summary.Add(1.0);
  EXPECT_DOUBLE_EQ(summary.Min(), 1.0);
  summary.Add(0.5);
  EXPECT_DOUBLE_EQ(summary.Min(), 0.5);
  EXPECT_DOUBLE_EQ(summary.Max(), 3.0);
}

TEST(TablePrinterTest, RendersAlignedTable) {
  TablePrinter table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22"});
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TablePrinterTest, CsvOutput) {
  TablePrinter table({"a", "b"});
  table.AddRow({"1", "2"});
  std::ostringstream os;
  table.WriteCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TablePrinterTest, FormatHelpers) {
  EXPECT_EQ(TablePrinter::Fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::FmtPercent(0.1234, 1), "12.3%");
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

// Regression: a throwing task used to escape WorkerLoop — std::terminate on
// the spot, or a forever-wedged Wait() because in_flight_ was never
// decremented. Wait() must instead drain the queue and rethrow the first
// captured exception.
TEST(ThreadPoolTest, ThrowingTaskIsRethrownFromWait) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  pool.Submit([] { throw std::runtime_error("task failed"); });
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&completed] { completed.fetch_add(1); });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // All non-throwing tasks still ran; the pool did not wedge or lose work.
  EXPECT_EQ(completed.load(), 100);
}

TEST(ThreadPoolTest, FirstOfManyExceptionsWinsAndPoolStaysUsable) {
  ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) {
    pool.Submit([] { throw std::runtime_error("boom"); });
  }
  bool threw = false;
  try {
    pool.Wait();
  } catch (const std::runtime_error& e) {
    threw = true;
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_TRUE(threw);
  // The error was consumed: the pool accepts and runs new work, and the
  // next Wait() returns cleanly.
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, NonExceptionTasksUnaffectedByEarlierThrow) {
  ThreadPool pool(4);
  pool.Submit([] { throw 42; });  // non-std::exception payloads work too
  EXPECT_THROW(pool.Wait(), int);
  pool.Wait();  // cleared: no rethrow
  SUCCEED();
}

// An exited thread's ordinal goes back to the pool, so a process that starts
// and joins many threads keeps its live ordinals below the counters' 64
// exclusive cells, while threads alive together never share one.
TEST(ThreadOrdinalTest, LiveThreadsKeepDenseOrdinals) {
  std::vector<uint32_t> sequential;
  for (int i = 0; i < 200; ++i) {
    std::thread([&sequential] { sequential.push_back(ThreadOrdinal()); })
        .join();
  }
  for (const uint32_t ordinal : sequential) {
    EXPECT_LT(ordinal, 64u);
  }

  constexpr int kLive = 8;
  std::latch all_recorded(kLive);
  std::vector<uint32_t> live(kLive);
  std::vector<std::thread> threads;
  for (int t = 0; t < kLive; ++t) {
    threads.emplace_back([&, t] {
      live[t] = ThreadOrdinal();
      all_recorded.arrive_and_wait();  // hold every ordinal at once
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(std::set<uint32_t>(live.begin(), live.end()).size(),
            static_cast<size_t>(kLive));
}

}  // namespace
}  // namespace qdlp
