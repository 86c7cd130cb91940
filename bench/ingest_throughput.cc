// Out-of-core ingestion throughput: streamed replay vs in-memory batched
// replay over the same on-disk traces.
//
// Writes the Fig-2-scale registry to QDT1 files in a temp directory, then
// runs the same (trace x fraction x policy) grid through RunSweep over the
// materialized traces and RunSweepStreamed over the files, verifying the
// two grids are bit-identical on every pass and reporting each engine's
// median (TimeEngines in bench_common.h). A third pass
// times the streamed replay with an in-pass exact (rate 1.0) SHARDS
// profiler and checks its LRU miss-ratio curve against the simulated LRU
// points. Output is BENCH_ingest.json (QDLP_BENCH_JSON overrides; schema
// in docs/TESTING.md):
//
//   ingest/in_memory — replayed requests/s, materialized batched engine
//   ingest/streamed  — replayed requests/s pulled chunk-by-chunk from
//                      disk under a 32 MiB mapper budget; bytes_per_object
//                      carries the process peak RSS in bytes
//   ingest/ratio     — streamed / in_memory in ops_per_sec. Machine-
//                      independent, so CI gates it with a hard floor
//                      (tools/bench_compare.py --require ingest/ratio:...)
//   ingest/shards    — replayed requests/s for the streamed pass that also
//                      drives the exact Mattson/SHARDS curve; hit_ratio
//                      carries 1.0 when the curve matched simulated LRU
//
// Trace object counts are passed to the streamed sweep (the registry knows
// them), so both engines size their caches identically and the streamed
// pass reads each file once — the same single-pass shape tools/qdlp_sim
// --stream uses when fed a known count. The counting pre-pass is timed
// separately in tests, not here: this bench isolates replay throughput,
// which is what the ratio floor protects.
//
// Scale knobs: QDLP_SCALE (registry size multiplier), QDLP_THREADS.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "src/sim/batch_replay.h"
#include "src/sim/simulator.h"
#include "src/sim/stream_replay.h"
#include "src/sim/sweep.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"
#include "src/util/env.h"
#include "src/util/rss.h"

namespace qdlp {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

int Run() {
  const auto traces = LoadRegistry(0.25);

  SweepConfig config;
  config.policies = {"lru",    "fifo",  "fifo-reinsertion", "clock2",
                     "clock3", "sieve", "s3fifo",           "qd-lp-fifo"};
  config.size_fractions = {0.001, 0.10};
  config.num_threads = SweepThreads();
  config.stream_mem_budget_bytes = size_t{32} << 20;

  // Spill the registry to disk: the streamed engine's input.
  char tmpl[] = "/tmp/qdlp-ingest-XXXXXX";
  if (mkdtemp(tmpl) == nullptr) {
    std::fprintf(stderr, "[qdlp] FAIL: cannot create temp dir\n");
    return 1;
  }
  const std::string dir = tmpl;
  std::vector<StreamTraceSpec> specs;
  specs.reserve(traces.size());
  for (size_t i = 0; i < traces.size(); ++i) {
    StreamTraceSpec spec;
    spec.path = dir + "/trace" + std::to_string(i) + ".bin";
    spec.name = traces[i].name;
    spec.dataset = traces[i].dataset;
    spec.cls = traces[i].cls;
    spec.num_objects = traces[i].num_objects;
    if (!WriteTraceBinary(traces[i], spec.path)) {
      std::fprintf(stderr, "[qdlp] FAIL: cannot write %s\n",
                   spec.path.c_str());
      return 1;
    }
    specs.push_back(std::move(spec));
  }

  size_t total_requests = 0;
  for (const auto& trace : traces) {
    total_requests += trace.requests.size();
  }
  const double replayed = static_cast<double>(total_requests) *
                          static_cast<double>(config.policies.size()) *
                          static_cast<double>(config.size_fractions.size());

  std::fprintf(stderr, "[qdlp] in-memory vs streamed engine, %d passes...\n",
               kEnginePasses);
  std::vector<SweepPoint> inmem_points;
  double seconds[2];
  if (!TimeEngines(
          [&](int engine) {
            if (engine == 1) {
              return RunSweepStreamed(specs, config);
            }
            inmem_points = RunSweep(traces, config);
            return inmem_points;
          },
          seconds)) {
    return 1;
  }
  const double inmem_seconds = seconds[0];
  const double streamed_seconds = seconds[1];

  // SHARDS pass: the first (largest) trace, streamed once more with the
  // exact Mattson profiler recording every request alongside an LRU cell.
  // At rate 1.0 the curve IS the LRU miss ratio, so it must reproduce the
  // simulated points bit for bit.
  std::fprintf(stderr, "[qdlp] streamed SHARDS pass...\n");
  const StreamTraceSpec& mrc_spec = specs[0];
  StreamReplayOptions mrc_options;
  mrc_options.mem_budget_bytes = config.stream_mem_budget_bytes;
  mrc_options.dense_universe = mrc_spec.num_objects;
  mrc_options.shards_sample_rate = 1.0;
  std::vector<BatchCellSpec> mrc_cells;
  for (const double fraction : config.size_fractions) {
    const size_t size = CacheSizeForCount(mrc_spec.num_objects, fraction);
    mrc_options.mrc_sizes.push_back(size);
    mrc_cells.push_back({"lru", size});
  }
  const auto shards_start = std::chrono::steady_clock::now();
  auto mrc_source = OpenTraceSource(mrc_spec.path);
  if (mrc_source == nullptr) {
    std::fprintf(stderr, "[qdlp] FAIL: cannot reopen %s\n",
                 mrc_spec.path.c_str());
    return 1;
  }
  const StreamReplayResult mrc =
      StreamReplayTrace(*mrc_source, mrc_spec.name, mrc_cells, mrc_options);
  const double shards_seconds = SecondsSince(shards_start);
  if (!mrc.ok) {
    std::fprintf(stderr, "[qdlp] FAIL: SHARDS pass: %s\n", mrc.error.c_str());
    return 1;
  }
  bool curve_ok = mrc.lru_mrc.size() == config.size_fractions.size();
  for (size_t i = 0; curve_ok && i < mrc.lru_mrc.size(); ++i) {
    // Find the simulated LRU point for this trace at this cache size.
    bool found = false;
    for (const SweepPoint& point : inmem_points) {
      if (point.trace == mrc_spec.name && point.policy == "lru" &&
          point.cache_size == mrc.lru_mrc[i].first) {
        found = true;
        if (point.miss_ratio != mrc.lru_mrc[i].second) {
          std::fprintf(stderr,
                       "[qdlp] FAIL: SHARDS curve diverges from simulated "
                       "LRU at size %zu: %.17g vs %.17g\n",
                       mrc.lru_mrc[i].first, mrc.lru_mrc[i].second,
                       point.miss_ratio);
          curve_ok = false;
        }
        break;
      }
    }
    curve_ok = curve_ok && found;
  }
  if (!curve_ok) {
    std::fprintf(stderr, "[qdlp] FAIL: SHARDS curve check\n");
    return 1;
  }

  std::filesystem::remove_all(dir);

  const double inmem_ops = replayed / inmem_seconds;
  const double streamed_ops = replayed / streamed_seconds;
  const double ratio = inmem_seconds / streamed_seconds;
  const double shards_ops =
      static_cast<double>(mrc.num_requests) / shards_seconds;
  const size_t peak_rss = PeakRssBytes();
  std::printf(
      "ingest grid: %zu traces x %zu policies x %zu sizes, %.0f replayed "
      "requests per engine\n",
      traces.size(), config.policies.size(), config.size_fractions.size(),
      replayed);
  std::printf("in-memory: %8.2f s  (%12.0f req/s)\n", inmem_seconds,
              inmem_ops);
  std::printf("streamed:  %8.2f s  (%12.0f req/s)\n", streamed_seconds,
              streamed_ops);
  std::printf("ratio:     %8.2fx\n", ratio);
  std::printf("shards:    %8.2f s  (%12.0f req/s, curve ok)\n",
              shards_seconds, shards_ops);
  std::printf("peak RSS:  %8.1f MiB\n",
              static_cast<double>(peak_rss) / (1024.0 * 1024.0));

  std::vector<BenchJsonResult> results;
  BenchJsonResult inmem_row;
  inmem_row.benchmark = "ingest/in_memory";
  inmem_row.policy = "ingest";
  inmem_row.threads = static_cast<int64_t>(config.num_threads);
  inmem_row.ops_per_sec = inmem_ops;
  results.push_back(inmem_row);
  BenchJsonResult streamed_row;
  streamed_row.benchmark = "ingest/streamed";
  streamed_row.policy = "ingest";
  streamed_row.threads = static_cast<int64_t>(config.num_threads);
  streamed_row.ops_per_sec = streamed_ops;
  // Repurposed field (documented above): process peak RSS in bytes. The
  // streamed engine's whole point is that this stays bounded as traces
  // outgrow memory.
  streamed_row.bytes_per_object = static_cast<double>(peak_rss);
  results.push_back(streamed_row);
  BenchJsonResult ratio_row;
  ratio_row.benchmark = "ingest/ratio";
  ratio_row.policy = "ingest";
  ratio_row.threads = static_cast<int64_t>(config.num_threads);
  ratio_row.ops_per_sec = ratio;  // ratio, machine-independent
  results.push_back(ratio_row);
  BenchJsonResult shards_row;
  shards_row.benchmark = "ingest/shards";
  shards_row.policy = "lru";
  shards_row.threads = 1;
  shards_row.ops_per_sec = shards_ops;
  shards_row.hit_ratio = 1.0;  // curve check passed (the binary fails it)
  results.push_back(shards_row);

  const std::string path = GetEnvString("QDLP_BENCH_JSON", "BENCH_ingest.json");
  if (!WriteBenchJson(path, "ingest_throughput", results)) {
    return 1;
  }
  std::fprintf(stderr, "[qdlp] wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace qdlp

int main() { return qdlp::Run(); }
