// Streaming replay engine (sim/stream_replay.h): streamed miss ratios must
// be byte-identical to the materialized BatchReplayTrace path across
// policies, chunk sizes, and mapper budgets; the streamed sweep must
// reproduce RunSweep's grid; and the single pass's SHARDS curve must match
// a standalone profiling pass.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/core/policy_factory.h"
#include "src/sim/batch_replay.h"
#include "src/sim/simulator.h"
#include "src/sim/stack_distance.h"
#include "src/sim/stream_replay.h"
#include "src/sim/sweep.h"
#include "src/trace/dense_trace.h"
#include "src/trace/generators.h"
#include "src/trace/trace.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"

namespace qdlp {
namespace {

// QDLP_CHECK_INVARIANTS (on in the debug and sanitizer presets) re-runs
// CheckInvariants() after every Access — O(universe) on the dense-index
// lane — so those builds replay the same grids at 1/8 scale, the same
// trick as batch_replay_test. CacheSizeForFraction floors at 10 and the
// fixed cell sizes stay as-is, so no cell degenerates.
#ifdef QDLP_CHECK_INVARIANTS
constexpr uint64_t kScale = 8;
#else
constexpr uint64_t kScale = 1;
#endif

Trace TestTrace(uint64_t seed = 5, size_t requests = 60000,
                uint64_t objects = 4000) {
  ZipfTraceConfig config;
  config.num_requests = requests / kScale;
  config.num_objects = objects / kScale;
  config.skew = 0.9;
  config.seed = seed;
  Trace trace = GenerateZipf(config);
  trace.name = "stream-test";
  return trace;
}

// An in-memory TraceSource over a materialized trace, so the equivalence
// tests need no files.
class VectorTraceSource : public TraceSource {
 public:
  explicit VectorTraceSource(const std::vector<ObjectId>& ids) : ids_(ids) {}

  size_t NextChunk(ObjectId* out, size_t max) override {
    const size_t len = std::min(max, ids_.size() - pos_);
    for (size_t i = 0; i < len; ++i) {
      out[i] = ids_[pos_ + i];
    }
    pos_ += len;
    return len;
  }
  bool ok() const override { return true; }
  std::string error() const override { return ""; }

 private:
  const std::vector<ObjectId>& ids_;
  size_t pos_ = 0;
};

// Every policy the sweep grids use, spanning all three replay lanes:
// dense-capable, sampling (original-id), and adaptive.
const char* kPolicies[] = {"fifo",   "lru",        "clock",     "sieve",
                           "s3fifo", "qd-lp-fifo", "random",    "lru-2rand",
                           "arc",    "lirs",       "tinylfu-wc"};

class StreamChunkTest : public ::testing::TestWithParam<size_t> {};

TEST_P(StreamChunkTest, StreamedEqualsMaterializedAcrossPolicies) {
  const Trace trace = TestTrace();
  const DenseTrace dense = DensifyTrace(trace);

  std::vector<BatchCellSpec> cells;
  for (const char* policy : kPolicies) {
    if (MakePolicy(policy, 16) == nullptr) {
      continue;  // keep the list robust to registry changes
    }
    cells.push_back(BatchCellSpec{policy, 100});
    cells.push_back(BatchCellSpec{policy, 800});
  }
  ASSERT_GE(cells.size(), 16u);
  const std::vector<SimResult> expected =
      BatchReplayTrace(dense, cells, {}, &trace.requests);

  StreamReplayOptions options;
  options.chunk_size = GetParam();
  options.dense_universe = trace.num_objects;
  VectorTraceSource source(trace.requests);
  const StreamReplayResult streamed =
      StreamReplayTrace(source, trace.name, cells, options);
  ASSERT_TRUE(streamed.ok) << streamed.error;
  EXPECT_EQ(streamed.num_requests, trace.requests.size());
  EXPECT_EQ(streamed.num_objects, trace.num_objects);

  ASSERT_EQ(streamed.cells.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(streamed.cells[i].hits, expected[i].hits)
        << cells[i].policy << " @ " << cells[i].cache_size
        << " chunk=" << GetParam();
    EXPECT_EQ(streamed.cells[i].requests, expected[i].requests);
    EXPECT_EQ(streamed.cells[i].policy, expected[i].policy);
  }
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, StreamChunkTest,
                         ::testing::Values(1, 7, 1024));

TEST(StreamReplayTest, BudgetedMapperDoesNotChangeResults) {
  const Trace trace = TestTrace(8, 80000, 20000);
  const DenseTrace dense = DensifyTrace(trace);
  std::vector<BatchCellSpec> cells = {{"lru", 200},       {"sieve", 200},
                                      {"qd-lp-fifo", 200}, {"random", 200},
                                      {"lru", 2000},      {"s3fifo", 2000}};
  const std::vector<SimResult> expected =
      BatchReplayTrace(dense, cells, {}, &trace.requests);

  StreamReplayOptions options;
  options.mem_budget_bytes = 64 << 10;  // small enough to force spills
  VectorTraceSource source(trace.requests);
  const StreamReplayResult streamed =
      StreamReplayTrace(source, trace.name, cells, options);
  ASSERT_TRUE(streamed.ok) << streamed.error;
  // The trace's id table is many times the budget, so epochs spilled...
  EXPECT_GT(streamed.mapper_spilled_epochs, 0u);
  EXPECT_LE(streamed.mapper_peak_bytes, options.mem_budget_bytes);
  // ...and results are still bit-identical.
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(streamed.cells[i].hits, expected[i].hits) << cells[i].policy;
  }
}

TEST(StreamReplayTest, DenseUniverseHintKeepsResultsIdentical) {
  const Trace trace = TestTrace(3);
  std::vector<BatchCellSpec> cells = {{"lru", 400}, {"s3fifo", 400}};

  StreamReplayOptions flat;  // no hint: flat-index lane
  VectorTraceSource source1(trace.requests);
  const StreamReplayResult without =
      StreamReplayTrace(source1, trace.name, cells, flat);
  ASSERT_TRUE(without.ok);

  StreamReplayOptions hinted;
  hinted.dense_universe = trace.num_objects;  // dense direct-indexed lane
  VectorTraceSource source2(trace.requests);
  const StreamReplayResult with =
      StreamReplayTrace(source2, trace.name, cells, hinted);
  ASSERT_TRUE(with.ok);

  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(without.cells[i].hits, with.cells[i].hits);
  }
}

TEST(StreamReplayTest, ShardsCurveMatchesStandaloneProfiler) {
  const Trace trace = TestTrace(4);
  StreamReplayOptions options;
  options.shards_sample_rate = 0.1;
  options.mrc_sizes = {50, 400, 2000};
  std::vector<BatchCellSpec> cells = {{"lru", 400}};
  VectorTraceSource source(trace.requests);
  const StreamReplayResult streamed =
      StreamReplayTrace(source, trace.name, cells, options);
  ASSERT_TRUE(streamed.ok);

  ShardsProfiler reference(0.1);
  for (const ObjectId id : trace.requests) {
    reference.Record(id);
  }
  ASSERT_EQ(streamed.lru_mrc.size(), options.mrc_sizes.size());
  for (size_t i = 0; i < options.mrc_sizes.size(); ++i) {
    EXPECT_EQ(streamed.lru_mrc[i].first, options.mrc_sizes[i]);
    EXPECT_DOUBLE_EQ(streamed.lru_mrc[i].second,
                     reference.MissRatioAt(options.mrc_sizes[i]));
  }
}

TEST(StreamReplayTest, SourceErrorSurfacesInResult) {
  // A truncated QDT1 stream must fail the replay, not shorten it silently.
  Trace trace = TestTrace(6, 5000, 500);
  char tmpl[] = "/tmp/qdlp-streamtest-XXXXXX";
  const int fd = mkstemp(tmpl);
  ASSERT_GE(fd, 0);
  close(fd);
  const std::string path = std::string(tmpl) + ".bin";
  std::remove(tmpl);
  ASSERT_TRUE(WriteTraceBinary(trace, path));
  // Chop the final 5 bytes (header is 12 bytes, then 8 per id).
  const off_t full = 12 + static_cast<off_t>(trace.requests.size()) * 8;
  ASSERT_EQ(truncate(path.c_str(), full - 5), 0);

  std::string error;
  auto source = OpenTraceSource(path, &error);
  ASSERT_NE(source, nullptr) << error;
  std::vector<BatchCellSpec> cells = {{"lru", 100}};
  const StreamReplayResult streamed =
      StreamReplayTrace(*source, "truncated", cells, {});
  EXPECT_FALSE(streamed.ok);
  EXPECT_FALSE(streamed.error.empty());
  EXPECT_TRUE(streamed.cells.empty());
  std::remove(path.c_str());
}

// A replay with no cells is the counting pre-pass.
TEST(StreamCountTest, CountsMatchTraceMetadata) {
  const Trace trace = TestTrace(7);
  VectorTraceSource source(trace.requests);
  const StreamReplayResult counted =
      StreamReplayTrace(source, trace.name, {}, {});
  ASSERT_TRUE(counted.ok);
  EXPECT_TRUE(counted.cells.empty());
  EXPECT_EQ(counted.num_requests, trace.requests.size());
  EXPECT_EQ(counted.num_objects, trace.num_objects);
}

// The dense-index cells are sized from the dense_universe hint, so a hint
// one below the true count must abort rather than index past them.
TEST(StreamReplayDeathTest, UndercountedHintAborts) {
  const Trace trace = TestTrace(9, 5000, 500);
  StreamReplayOptions options;
  options.dense_universe = trace.num_objects - 1;
  const std::vector<BatchCellSpec> cells = {{"lru", 50}};
  EXPECT_DEATH(
      {
        VectorTraceSource source(trace.requests);
        StreamReplayTrace(source, trace.name, cells, options);
      },
      "more distinct ids than the dense_universe hint promised");
}

// Belady is built from the whole future request stream, which a stream
// replay does not have.
TEST(StreamReplayDeathTest, BeladyCellAborts) {
  const Trace trace = TestTrace(9, 5000, 500);
  const std::vector<BatchCellSpec> cells = {{"lru", 50}, {"belady", 50}};
  EXPECT_DEATH(
      {
        VectorTraceSource source(trace.requests);
        StreamReplayTrace(source, trace.name, cells, {});
      },
      "\"belady\" requires the request stream");
}

// --- streamed sweep vs in-memory sweep -------------------------------------

class SweepFileFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int t = 0; t < 2; ++t) {
      Trace trace = TestTrace(20 + t, 40000, 3000);
      trace.name = "sweep-trace-" + std::to_string(t);
      trace.dataset = "synthetic";
      char tmpl[] = "/tmp/qdlp-sweeptest-XXXXXX";
      const int fd = mkstemp(tmpl);
      ASSERT_GE(fd, 0);
      close(fd);
      const std::string path = std::string(tmpl) + ".bin";
      std::remove(tmpl);
      ASSERT_TRUE(WriteTraceBinary(trace, path));
      traces_.push_back(std::move(trace));
      paths_.push_back(path);
    }
  }
  void TearDown() override {
    for (const std::string& path : paths_) {
      std::remove(path.c_str());
    }
  }

  std::vector<Trace> traces_;
  std::vector<std::string> paths_;
};

TEST_F(SweepFileFixture, RunSweepStreamedMatchesRunSweep) {
  SweepConfig config;
  config.policies = {"lru", "sieve", "qd-lp-fifo", "random"};
  config.size_fractions = {0.001, 0.10};
  config.num_threads = 2;

  const std::vector<SweepPoint> expected = RunSweep(traces_, config);

  std::vector<StreamTraceSpec> specs;
  for (size_t t = 0; t < traces_.size(); ++t) {
    StreamTraceSpec spec;
    spec.path = paths_[t];
    spec.name = traces_[t].name;
    spec.dataset = traces_[t].dataset;
    specs.push_back(spec);
  }
  const std::vector<SweepPoint> streamed = RunSweepStreamed(specs, config);

  ASSERT_EQ(streamed.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(streamed[i].trace, expected[i].trace);
    EXPECT_EQ(streamed[i].policy, expected[i].policy);
    EXPECT_EQ(streamed[i].cache_size, expected[i].cache_size);
    EXPECT_DOUBLE_EQ(streamed[i].miss_ratio, expected[i].miss_ratio)
        << expected[i].trace << "/" << expected[i].policy << "@"
        << expected[i].size_fraction;
  }
}

TEST_F(SweepFileFixture, StreamedSweepHonorsMapperBudget) {
  SweepConfig config;
  config.policies = {"lru", "s3fifo"};
  config.size_fractions = {0.01};
  config.num_threads = 1;
  config.stream_mem_budget_bytes = 256 << 10;

  std::vector<StreamTraceSpec> specs;
  StreamTraceSpec spec;
  spec.path = paths_[0];
  spec.name = traces_[0].name;
  specs.push_back(spec);
  const std::vector<SweepPoint> streamed = RunSweepStreamed(specs, config);
  ASSERT_EQ(streamed.size(), 2u);

  // Same grid without the budget.
  config.stream_mem_budget_bytes = 0;
  const std::vector<SweepPoint> unbudgeted = RunSweepStreamed(specs, config);
  for (size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_DOUBLE_EQ(streamed[i].miss_ratio, unbudgeted[i].miss_ratio);
  }
}

TEST_F(SweepFileFixture, SuppliedObjectCountSkipsPrePass) {
  SweepConfig config;
  config.policies = {"lru"};
  config.size_fractions = {0.01, 0.10};
  config.num_threads = 1;

  std::vector<StreamTraceSpec> with_count;
  StreamTraceSpec spec;
  spec.path = paths_[0];
  spec.name = traces_[0].name;
  spec.num_objects = traces_[0].num_objects;
  with_count.push_back(spec);

  std::vector<StreamTraceSpec> discovered = with_count;
  discovered[0].num_objects = 0;

  const auto a = RunSweepStreamed(with_count, config);
  const auto b = RunSweepStreamed(discovered, config);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cache_size, b[i].cache_size);
    EXPECT_DOUBLE_EQ(a[i].miss_ratio, b[i].miss_ratio);
  }
}

}  // namespace
}  // namespace qdlp
