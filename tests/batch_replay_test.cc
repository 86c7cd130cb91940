// Batched replay differential: one interleaved pass over the dense
// stream must be observationally identical to replaying each cell alone
// over the original trace — bit-identical hit counts, hence bit-identical
// miss ratios, for every serial policy across every lane of the engine
// (dense index + dense ids, flat index + dense ids, flat index + original
// ids). RunSweep is likewise pinned against per-cell SimulatePolicy,
// points compared field by field in order.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/policy_factory.h"
#include "src/sim/batch_replay.h"
#include "src/sim/simulator.h"
#include "src/sim/sweep.h"
#include "src/trace/dense_trace.h"
#include "src/trace/generators.h"
#include "src/trace/trace.h"

namespace qdlp {
namespace {

// QDLP_CHECK_INVARIANTS (on in the debug and sanitizer presets) re-runs
// CheckInvariants() after every Access, which is O(resident state) on the
// flat policies and O(universe) on the dense-index lane. At full size that
// turns this suite's millions of replayed requests into an hour-scale run,
// so those builds replay the same grid — every policy, every lane, every
// shape — at 1/8 scale, mirroring how oracle_differential_test sizes
// itself. CacheSizeForFraction floors at 10, so no cell degenerates.
#ifdef QDLP_CHECK_INVARIANTS
constexpr uint64_t kScale = 8;
#else
constexpr uint64_t kScale = 1;
#endif

// The five workload shapes (src/trace/generators.h), sized down so the
// full-policy differential stays inside the tier-1 budget.
std::vector<Trace> TestTraces() {
  std::vector<Trace> traces;
  {
    ZipfTraceConfig config;
    config.num_requests = 20000 / kScale;
    config.num_objects = 3000 / kScale;
    traces.push_back(GenerateZipf(config));
  }
  {
    PopularityDecayConfig config;
    config.num_requests = 20000 / kScale;
    config.initial_objects = 800 / kScale;
    traces.push_back(GeneratePopularityDecay(config));
  }
  {
    ScanLoopConfig config;
    config.num_requests = 20000 / kScale;
    config.hot_objects = 2000 / kScale;
    config.hot_drift_objects = 500 / kScale;
    traces.push_back(GenerateScanLoop(config));
  }
  {
    PhaseChangeConfig config;
    config.num_requests = 20000 / kScale;
    config.working_set = 800 / kScale;
    config.phase_length = 4000 / kScale;
    traces.push_back(GeneratePhaseChange(config));
  }
  {
    HighReuseKvConfig config;
    config.num_requests = 20000 / kScale;
    config.num_objects = 1500 / kScale;
    traces.push_back(GenerateHighReuseKv(config));
  }
  return traces;
}

constexpr double kFractions[] = {0.001, 0.01, 0.10};

// Every registered policy, batched against its own per-cell replay, across
// 5 trace shapes x 3 size fractions. EXPECT_EQ on integer hit counts: the
// engines must agree exactly, not approximately.
TEST(BatchReplayTest, MatchesPerCellReplayForAllPolicies) {
  const std::vector<std::string> policies = KnownPolicyNames();
  for (const Trace& trace : TestTraces()) {
    const DenseTrace dense = DensifyTrace(trace);
    std::vector<BatchCellSpec> cells;
    for (const double fraction : kFractions) {
      const size_t cache_size = CacheSizeForFraction(trace, fraction);
      for (const std::string& policy : policies) {
        cells.push_back(BatchCellSpec{policy, cache_size});
      }
    }
    const std::vector<SimResult> batched =
        BatchReplayTrace(dense, cells, {}, &trace.requests);
    ASSERT_EQ(batched.size(), cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
      auto policy =
          MakePolicyOrDie(cells[i].policy, cells[i].cache_size, &trace.requests);
      const SimResult reference = ReplayTrace(*policy, trace);
      EXPECT_EQ(batched[i].hits, reference.hits)
          << trace.name << " " << cells[i].policy << " size "
          << cells[i].cache_size;
      EXPECT_EQ(batched[i].requests, reference.requests);
      EXPECT_EQ(batched[i].cache_size, reference.cache_size);
      EXPECT_EQ(batched[i].policy, reference.policy);
    }
  }
}

// Forcing max_dense_universe = 0 pushes every remap-invariant policy onto
// the flat-index + dense-ids lane; results must not move.
TEST(BatchReplayTest, FlatIndexLaneMatchesDenseIndexLane) {
  ZipfTraceConfig config;
  config.num_requests = 30000 / kScale;
  config.num_objects = 4000 / kScale;
  const Trace trace = GenerateZipf(config);
  const DenseTrace dense = DensifyTrace(trace);
  std::vector<BatchCellSpec> cells;
  for (const char* policy :
       {"fifo", "lru", "fifo-reinsertion", "clock2", "clock3", "sieve",
        "s3fifo", "qd-lp-fifo"}) {
    ASSERT_TRUE(HasDenseVariant(policy)) << policy;
    cells.push_back(BatchCellSpec{policy, 400 / kScale});
  }
  BatchReplayOptions flat_lane;
  flat_lane.max_dense_universe = 0;
  const std::vector<SimResult> with_dense_index =
      BatchReplayTrace(dense, cells, {}, &trace.requests);
  const std::vector<SimResult> with_flat_index =
      BatchReplayTrace(dense, cells, flat_lane, &trace.requests);
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(with_dense_index[i].hits, with_flat_index[i].hits)
        << cells[i].policy;
  }
}

// Odd chunk sizes exercise the tail-chunk handling.
TEST(BatchReplayTest, BatchSizeDoesNotChangeResults) {
  HighReuseKvConfig config;
  config.num_requests = 10000 / kScale;
  config.num_objects = 900 / kScale;
  const Trace trace = GenerateHighReuseKv(config);
  const DenseTrace dense = DensifyTrace(trace);
  const size_t cache_size = 90 / kScale;
  const std::vector<BatchCellSpec> cells = {{"qd-lp-fifo", cache_size},
                                            {"lhd", cache_size},
                                            {"belady", cache_size}};
  std::vector<SimResult> reference =
      BatchReplayTrace(dense, cells, {}, &trace.requests);
  for (const size_t chunk_size : {size_t{1}, size_t{7}, size_t{100000}}) {
    BatchReplayOptions options;
    options.chunk_size = chunk_size;
    const std::vector<SimResult> results =
        BatchReplayTrace(dense, cells, options, &trace.requests);
    for (size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(results[i].hits, reference[i].hits)
          << cells[i].policy << " chunk " << chunk_size;
    }
  }
}

// Dense policy variants are drop-in equivalent: built directly (no engine
// in between), a dense-backed policy fed dense ids produces the same hit
// sequence as the flat-backed one fed the original ids.
TEST(BatchReplayTest, DensePolicyVariantsMatchFlatDirectly) {
  ScanLoopConfig config;
  config.num_requests = 15000 / kScale;
  config.hot_objects = 1500 / kScale;
  const Trace trace = GenerateScanLoop(config);
  const DenseTrace dense = DensifyTrace(trace);
  const size_t cache_size = 150 / kScale;
  for (const char* name :
       {"fifo", "lru", "clock2", "sieve", "s3fifo", "qd-lp-fifo"}) {
    auto dense_policy = MakeDensePolicy(name, cache_size, dense.num_objects());
    ASSERT_NE(dense_policy, nullptr) << name;
    auto flat_policy = MakePolicyOrDie(name, cache_size);
    EXPECT_EQ(dense_policy->name(), flat_policy->name());
    EXPECT_EQ(dense_policy->capacity(), flat_policy->capacity());
    uint64_t dense_hits = 0;
    uint64_t flat_hits = 0;
    for (size_t i = 0; i < trace.requests.size(); ++i) {
      const bool dense_hit = dense_policy->Access(dense.requests[i]);
      const bool flat_hit = flat_policy->Access(trace.requests[i]);
      ASSERT_EQ(dense_hit, flat_hit) << name << " at request " << i;
      dense_hits += dense_hit ? 1 : 0;
      flat_hits += flat_hit ? 1 : 0;
    }
    EXPECT_EQ(dense_hits, flat_hits);
    dense_policy->CheckInvariants();
    flat_policy->CheckInvariants();
  }
}

// RunSweep must emit exactly the points of a per-cell SimulatePolicy
// replay, in (trace, fraction, policy) order — every field, miss ratios
// compared as exact doubles. Belady keeps RunSweep's pass-through of the
// original stream covered.
TEST(BatchReplayTest, RunSweepMatchesPerCellSimulatePolicy) {
  const std::vector<Trace> traces = TestTraces();
  SweepConfig config;
  config.policies = {"fifo",   "lru",        "clock2", "sieve", "s3fifo",
                     "random", "qd-lp-fifo", "arc",    "belady"};
  config.size_fractions = {0.001, 0.01, 0.10};
  config.num_threads = 2;
  const std::vector<SweepPoint> points = RunSweep(traces, config);

  ASSERT_EQ(points.size(), traces.size() * config.size_fractions.size() *
                               config.policies.size());
  size_t i = 0;
  for (const Trace& trace : traces) {
    for (const double fraction : config.size_fractions) {
      const size_t cache_size = CacheSizeForFraction(trace, fraction);
      for (const std::string& policy : config.policies) {
        const SweepPoint& point = points[i];
        EXPECT_EQ(point.trace, trace.name) << i;
        EXPECT_EQ(point.dataset, trace.dataset) << i;
        EXPECT_EQ(point.cls, trace.cls) << i;
        EXPECT_EQ(point.size_fraction, fraction) << i;
        EXPECT_EQ(point.cache_size, cache_size) << i;
        EXPECT_EQ(point.policy, policy) << i;
        // Bit-identical, not approximately equal: both sides accumulate
        // integer hit counts and divide once.
        EXPECT_EQ(point.miss_ratio,
                  SimulatePolicy(policy, trace, cache_size).miss_ratio())
            << trace.name << " " << policy;
        ++i;
      }
    }
  }
}

}  // namespace
}  // namespace qdlp
