// Simulator, sweeps, residency accounting, MRC.

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/policy_factory.h"
#include "src/policies/lru.h"
#include "src/sim/mrc.h"
#include "src/sim/residency.h"
#include "src/sim/simulator.h"
#include "src/sim/sweep.h"
#include "src/trace/generators.h"
#include "src/trace/registry.h"

namespace qdlp {
namespace {

Trace SmallZipfTrace(uint64_t seed = 301) {
  ZipfTraceConfig config;
  config.num_requests = 20000;
  config.num_objects = 1000;
  config.seed = seed;
  return GenerateZipf(config);
}

TEST(SimulatorTest, CountsAddUp) {
  const Trace trace = SmallZipfTrace();
  LruPolicy lru(100);
  const SimResult result = ReplayTrace(lru, trace);
  EXPECT_EQ(result.requests, trace.requests.size());
  EXPECT_EQ(result.hits + result.misses(), result.requests);
  EXPECT_GT(result.hits, 0u);
  EXPECT_GT(result.misses(), 0u);
  EXPECT_NEAR(result.miss_ratio() + result.hit_ratio(), 1.0, 1e-12);
}

TEST(SimulatorTest, SimulatePolicyMatchesmanualReplay) {
  const Trace trace = SmallZipfTrace();
  LruPolicy lru(100);
  const SimResult manual = ReplayTrace(lru, trace);
  const SimResult factory = SimulatePolicy("lru", trace, 100);
  EXPECT_EQ(manual.hits, factory.hits);
}

TEST(SimulatorTest, CacheSizesMatchPaperFractions) {
  Trace trace;
  trace.num_objects = 100000;
  const CacheSizes sizes = CacheSizesFor(trace);
  EXPECT_EQ(sizes.small, 100u);   // 0.1%
  EXPECT_EQ(sizes.large, 10000u);  // 10%
}

TEST(SimulatorTest, CacheSizeFloor) {
  Trace trace;
  trace.num_objects = 100;
  EXPECT_EQ(CacheSizeForFraction(trace, 0.001), 10u);  // floor of 10
}

TEST(SimulatorTest, BiggerCacheNeverWorseForLru) {
  // LRU has the inclusion property: strictly larger caches cannot miss more.
  const Trace trace = SmallZipfTrace(303);
  const double mr_small = SimulatePolicy("lru", trace, 50).miss_ratio();
  const double mr_large = SimulatePolicy("lru", trace, 200).miss_ratio();
  EXPECT_LE(mr_large, mr_small);
}

TEST(SweepTest, GridIsCompleteAndDeterministicOrder) {
  std::vector<Trace> traces;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Trace trace = SmallZipfTrace(seed);
    trace.name = "t" + std::to_string(seed);
    trace.dataset = "testset";
    traces.push_back(std::move(trace));
  }
  SweepConfig config;
  config.policies = {"lru", "fifo"};
  config.size_fractions = {0.01, 0.10};
  config.num_threads = 4;
  const auto points = RunSweep(traces, config);
  ASSERT_EQ(points.size(), 3u * 2u * 2u);
  // Trace-major deterministic layout.
  EXPECT_EQ(points[0].trace, "t1");
  EXPECT_EQ(points[0].policy, "lru");
  EXPECT_EQ(points[1].policy, "fifo");
  for (const auto& point : points) {
    EXPECT_GT(point.miss_ratio, 0.0);
    EXPECT_LE(point.miss_ratio, 1.0);
    EXPECT_GT(point.cache_size, 0u);
  }
}

TEST(SweepTest, ParallelMatchesSerial) {
  std::vector<Trace> traces;
  for (uint64_t seed = 11; seed <= 14; ++seed) {
    Trace trace = SmallZipfTrace(seed);
    trace.name = "t" + std::to_string(seed);
    traces.push_back(std::move(trace));
  }
  SweepConfig config;
  config.policies = {"lru", "fifo-reinsertion", "arc"};
  config.size_fractions = {0.05};
  config.num_threads = 1;
  const auto serial = RunSweep(traces, config);
  config.num_threads = 8;
  const auto parallel = RunSweep(traces, config);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].trace, parallel[i].trace);
    EXPECT_EQ(serial[i].policy, parallel[i].policy);
    EXPECT_DOUBLE_EQ(serial[i].miss_ratio, parallel[i].miss_ratio);
  }
}

TEST(SweepTest, WinFractionBasics) {
  std::vector<SweepPoint> points;
  const auto add = [&](const std::string& trace, const std::string& policy,
                       double mr) {
    SweepPoint point;
    point.trace = trace;
    point.dataset = "d";
    point.policy = policy;
    point.size_fraction = 0.1;
    point.miss_ratio = mr;
    points.push_back(point);
  };
  add("t1", "a", 0.2);
  add("t1", "b", 0.3);  // a wins
  add("t2", "a", 0.4);
  add("t2", "b", 0.4);  // tie -> 0.5
  add("t3", "a", 0.5);
  add("t3", "b", 0.1);  // a loses
  EXPECT_DOUBLE_EQ(WinFraction(points, "a", "b", 0.1), 1.5 / 3.0);
  EXPECT_DOUBLE_EQ(WinFraction(points, "b", "a", 0.1), 1.5 / 3.0);
}

// Regression: ties used to require bit-exact equality, but two policies
// that behave identically can accumulate their miss ratios through
// different float paths and differ in the last ulp — the tie then silently
// became a win for one side. Ties are now epsilon-based (1e-9).
TEST(SweepTest, WinFractionTiesAreEpsilonBased) {
  std::vector<SweepPoint> points;
  const auto add = [&](const std::string& trace, const std::string& policy,
                       double mr) {
    SweepPoint point;
    point.trace = trace;
    point.dataset = "d";
    point.policy = policy;
    point.size_fraction = 0.1;
    point.miss_ratio = mr;
    points.push_back(point);
  };
  // Differ by one ulp-ish amount, far below the 1e-9 tie epsilon.
  const double base = 0.3;
  add("t1", "a", base);
  add("t1", "b", base + 1e-12);
  EXPECT_DOUBLE_EQ(WinFraction(points, "a", "b", 0.1), 0.5);
  EXPECT_DOUBLE_EQ(WinFraction(points, "b", "a", 0.1), 0.5);
  // A real difference (above epsilon) is still a win, not a tie.
  add("t2", "a", 0.2);
  add("t2", "b", 0.2001);
  EXPECT_DOUBLE_EQ(WinFraction(points, "a", "b", 0.1), 1.5 / 2.0);
  EXPECT_DOUBLE_EQ(WinFraction(points, "b", "a", 0.1), 0.5 / 2.0);
}

TEST(SweepTest, ReductionsVsBaseline) {
  std::vector<SweepPoint> points;
  SweepPoint p;
  p.trace = "t1";
  p.size_fraction = 0.1;
  p.policy = "x";
  p.miss_ratio = 0.25;
  points.push_back(p);
  p.policy = "fifo";
  p.miss_ratio = 0.50;
  points.push_back(p);
  const auto reductions = ReductionsVsBaseline(points, "x", "fifo", 0.1);
  ASSERT_EQ(reductions.size(), 1u);
  EXPECT_DOUBLE_EQ(reductions[0], 0.5);
}

TEST(ResidencyTest, AccountantTracksResidency) {
  ResidencyAccountant accountant;
  accountant.OnInsert(1, 10);
  accountant.OnEvict(1, 25);
  EXPECT_EQ(accountant.ResidencyOf(1), 15u);
  accountant.OnInsert(1, 30);  // second residency
  accountant.OnEvict(1, 40);
  EXPECT_EQ(accountant.ResidencyOf(1), 25u);
  EXPECT_DOUBLE_EQ(accountant.TotalResidency(), 25.0);
}

TEST(ResidencyTest, FinalizeClosesOpenResidencies) {
  ResidencyAccountant accountant;
  accountant.OnInsert(7, 5);
  accountant.FinalizeAt(20);
  EXPECT_EQ(accountant.ResidencyOf(7), 15u);
}

TEST(ResidencyTest, ListenerIntegrationConservation) {
  // Total residency over the replay must equal (roughly) cache_size x
  // elapsed time once the cache is full: the cache is always exactly full,
  // so all its space-time goes somewhere.
  const Trace trace = SmallZipfTrace(305);
  constexpr size_t kCapacity = 100;
  auto policy = MakePolicy("lru", kCapacity, &trace.requests);
  ResidencyAccountant accountant;
  policy->set_event_sink(&accountant);
  ReplayTrace(*policy, trace);
  accountant.FinalizeAt(policy->now());
  const double elapsed = static_cast<double>(policy->now());
  const double expected = static_cast<double>(kCapacity) * elapsed;
  // Warmup (cache not yet full) makes the true value slightly smaller.
  EXPECT_LE(accountant.TotalResidency(), expected + 1.0);
  EXPECT_GE(accountant.TotalResidency(), expected * 0.9);
}

TEST(ResidencyTest, DecileSharesSumToOne) {
  const Trace trace = SmallZipfTrace(307);
  const ResidencyReport report =
      RunResidencyExperiment("lru", trace, 100);
  double sum = 0.0;
  for (const double share : report.decile_share) {
    EXPECT_GE(share, 0.0);
    sum += share;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(report.miss_ratio, 0.0);
}

TEST(ResidencyTest, BeladySpendsLessOnUnpopularThanLru) {
  // The Fig-3 headline: efficient algorithms spend fewer resources on
  // unpopular objects. Compare the bottom-half share of Belady vs LRU.
  const Trace trace = SmallZipfTrace(309);
  const ResidencyReport lru = RunResidencyExperiment("lru", trace, 50);
  const ResidencyReport belady = RunResidencyExperiment("belady", trace, 50);
  const auto bottom_half = [](const ResidencyReport& report) {
    double sum = 0.0;
    for (size_t decile = 5; decile < kNumDeciles; ++decile) {
      sum += report.decile_share[decile];
    }
    return sum;
  };
  EXPECT_LT(bottom_half(belady), bottom_half(lru));
  EXPECT_LT(belady.miss_ratio, lru.miss_ratio);
}

TEST(MrcTest, CurveHasRequestedPoints) {
  const Trace trace = SmallZipfTrace(311);
  const std::vector<double> fractions = {0.01, 0.05, 0.2};
  const auto curve = ComputeMrc("lru", trace, fractions);
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_LT(curve[2].miss_ratio, curve[0].miss_ratio + 1e-12);
  EXPECT_GT(curve[2].cache_size, curve[0].cache_size);
  // Each point is exactly a per-fraction replay.
  for (size_t i = 0; i < curve.size(); ++i) {
    EXPECT_EQ(curve[i].size_fraction, fractions[i]);
    EXPECT_EQ(curve[i].cache_size, CacheSizeForFraction(trace, fractions[i]));
    EXPECT_EQ(curve[i].miss_ratio,
              SimulatePolicy("lru", trace, curve[i].cache_size).miss_ratio())
        << fractions[i];
  }
}

TEST(MrcTest, DefaultFractionsAreSorted) {
  const auto fractions = DefaultMrcFractions();
  for (size_t i = 1; i < fractions.size(); ++i) {
    EXPECT_GT(fractions[i], fractions[i - 1]);
  }
}

TEST(SimulatorDeathTest, UnknownPolicyDiesNamingItAndTheRegistry) {
  // The abort message must name the offending policy and list the known
  // names, so a typo in a harness config is diagnosable from the output.
  const Trace trace = SmallZipfTrace();
  EXPECT_DEATH(SimulatePolicy("lru-typo", trace, 100),
               "unknown policy \"lru-typo\".*known:.*qd-lp-fifo");
}

TEST(SimulatorDeathTest, BeladyWithoutTraceDiesExplainingWhy) {
  EXPECT_DEATH(MakePolicyOrDie("belady", 100, nullptr),
               "\"belady\" requires the request stream");
}

TEST(IntegrationTest, RegistrySmokeSweep) {
  // End-to-end: a miniature registry swept with the core comparison set.
  const auto traces = MaterializeRegistry(0.02);
  SweepConfig config;
  config.policies = {"lru", "fifo", "fifo-reinsertion", "qd-lp-fifo"};
  config.size_fractions = {0.01};
  const auto points = RunSweep(traces, config);
  EXPECT_EQ(points.size(), traces.size() * 4);
  for (const auto& point : points) {
    EXPECT_GE(point.miss_ratio, 0.0);
    EXPECT_LE(point.miss_ratio, 1.0);
  }
}

}  // namespace
}  // namespace qdlp
