// Throughput & scalability: the §1/§2 motivation for FIFO-based designs.
//
// Compares, under 1..N threads hammering a Zipf key space:
//   * global-lock LRU    — every hit takes the one mutex and splices;
//   * sharded LRU        — contention divided across shards, hits still
//                          exclusive;
//   * concurrent CLOCK   — lock-free hit path: one striped-index probe plus
//                          one relaxed atomic RMW, misses batched behind a
//                          single eviction mutex;
//   * concurrent S3-FIFO — same hit path over the two-queue + ghost design;
//   * concurrent QD-LP-FIFO — the paper's headline construction
//                          (probationary FIFO + ghost + 2-bit CLOCK main).
//
// Expected shape: the lock-free caches >= sharded LRU >> global LRU as
// threads grow. A skew sweep (Zipf 0.6 / 0.9 / 1.2 at a fixed thread count)
// shows throughput as a function of hit ratio: the hotter the workload, the
// more the lock-free hit path dominates. The concurrent caches run with 8
// eviction domains (eviction_domains.h) so the miss path shards too; a
// dedicated miss-heavy family pits shards:1 against shards:8 at the
// highest measured thread count, where the single eviction mutex is the
// bottleneck sharding removes.
//
// The thread ladder {1, 2, 4, 8, 16, 32} self-scales: counts above
// max(4, hardware_concurrency()) are skipped, since oversubscribed threads
// timeshare and measure the scheduler rather than the cache.
// QDLP_BENCH_MAX_THREADS overrides the cap (e.g. =32 to force the full
// ladder, =2 for a quick smoke run).
//
// Results land in BENCH_throughput.json (QDLP_BENCH_JSON overrides the
// path) keyed by cache kind and thread count, now with measured hit_ratio,
// metadata bytes_per_object (via ApproxMetadataBytes), and
// scaling_efficiency = ops(T) / (T * ops(1)) (1.0 by definition on the
// 1-thread rows). tools/bench_compare.py diffs two such files and fails on
// regression (CI bench-smoke runs it against the committed
// BENCH_throughput_scalability.json; its --max-threads filter keeps rows
// above the runner's core count informational).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "bench/bench_json.h"
#include "bench/bench_json_reporter.h"
#include "src/concurrent/concurrent_clock.h"
#include "src/concurrent/concurrent_qdlp_fifo.h"
#include "src/concurrent/concurrent_s3fifo.h"
#include "src/concurrent/sharded_lru.h"
#include "src/util/random.h"
#include "src/util/zipf.h"

namespace qdlp {
namespace {

constexpr size_t kCapacity = 1 << 16;
constexpr size_t kKeySpace = 1 << 18;  // 4x capacity: ~mixed hits/misses
constexpr size_t kShards = 8;          // eviction domains per concurrent cache

// Highest thread count worth measuring on this machine: oversubscribed
// threads timeshare one core and measure the scheduler, not the cache.
// QDLP_BENCH_MAX_THREADS overrides (floor 4 so the canonical 1/2/4 ladder
// always runs, even on tiny CI runners).
int MaxBenchThreads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int64_t cap =
      GetEnvInt("QDLP_BENCH_MAX_THREADS", std::max(4, hw));
  return static_cast<int>(std::max<int64_t>(1, cap));
}

// Registers the self-scaling thread ladder {1, 2, 4, 8, 16, 32} clipped to
// MaxBenchThreads().
void ScalingThreads(benchmark::internal::Benchmark* bench) {
  const int max_threads = MaxBenchThreads();
  for (const int threads : {1, 2, 4, 8, 16, 32}) {
    if (threads <= max_threads) {
      bench->Threads(threads);
    }
  }
  bench->UseRealTime();
}

// Shared driver: every thread samples the same Zipf(skew) stream shape and
// calls Get. Reports per-run hit_ratio (averaged over threads) and, from
// thread 0 at teardown, metadata bytes per cached object.
template <typename CacheT, typename... Args>
void BM_ConcurrentGet(benchmark::State& state, double skew, Args... args) {
  static std::unique_ptr<CacheT> cache;
  if (state.thread_index() == 0) {
    cache = std::make_unique<CacheT>(args...);
  }
  ZipfSampler zipf(kKeySpace, skew);
  Rng rng(9000 + static_cast<uint64_t>(state.thread_index()));
  uint64_t hits = 0;
  for (auto _ : state) {
    hits += cache->GetOrAdmit(zipf.Sample(rng)) ? 1 : 0;
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["hit_ratio"] = benchmark::Counter(
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(hits) /
                static_cast<double>(state.iterations()),
      benchmark::Counter::kAvgThreads);
  if (state.thread_index() == 0) {
    state.counters["bytes_per_object"] = benchmark::Counter(
        static_cast<double>(cache->ApproxMetadataBytes()) /
        static_cast<double>(cache->capacity()));
    // Publish the cache's own Stats() through the stats_* counter bridge
    // (bench_json_reporter.h strips these from the console and emits the
    // JSON "stats" block). Thread 0 only: one snapshot per run.
    const CacheStats stats = cache->Stats();
    for (const CacheStatsField& field : kCacheStatsFields) {
      state.counters[std::string("stats_") + field.key] =
          benchmark::Counter(static_cast<double>(stats.*field.member));
    }
    cache.reset();
  }
}

// Thread-scaling sweep at the canonical skew 1.0 (family names are stable:
// bench_compare.py keys on them).
void BM_GlobalLockLru(benchmark::State& state) {
  BM_ConcurrentGet<ShardedLruCache>(state, 1.0, kCapacity, size_t{1});
}
void BM_ShardedLru(benchmark::State& state) {
  BM_ConcurrentGet<ShardedLruCache>(state, 1.0, kCapacity, size_t{16});
}
void BM_ConcurrentClock(benchmark::State& state) {
  BM_ConcurrentGet<ConcurrentClockCache>(state, 1.0, kCapacity, 1, size_t{16},
                                         kShards);
}
void BM_ConcurrentS3Fifo(benchmark::State& state) {
  BM_ConcurrentGet<ConcurrentS3FifoCache>(state, 1.0, kCapacity, size_t{16},
                                          kShards);
}
void BM_ConcurrentQdLpFifo(benchmark::State& state) {
  BM_ConcurrentGet<ConcurrentQdLpFifo>(state, 1.0, kCapacity, size_t{16},
                                       kShards);
}

BENCHMARK(BM_GlobalLockLru)->Apply(ScalingThreads);
BENCHMARK(BM_ShardedLru)->Apply(ScalingThreads);
BENCHMARK(BM_ConcurrentClock)->Apply(ScalingThreads);
BENCHMARK(BM_ConcurrentS3Fifo)->Apply(ScalingThreads);
BENCHMARK(BM_ConcurrentQdLpFifo)->Apply(ScalingThreads);

// Hit-ratio sweep: Zipf skew as the benchmark argument (x100, so 60 = 0.6),
// at a fixed 2 threads. Lower skew -> lower hit ratio -> more miss-path
// (eviction lock) pressure; the JSON's hit_ratio column pairs each
// throughput number with the hit ratio that produced it.
void BM_ConcurrentClockSkew(benchmark::State& state) {
  BM_ConcurrentGet<ConcurrentClockCache>(
      state, static_cast<double>(state.range(0)) / 100.0, kCapacity, 1,
      size_t{16}, kShards);
}
void BM_ConcurrentS3FifoSkew(benchmark::State& state) {
  BM_ConcurrentGet<ConcurrentS3FifoCache>(
      state, static_cast<double>(state.range(0)) / 100.0, kCapacity,
      size_t{16}, kShards);
}
void BM_ConcurrentQdLpFifoSkew(benchmark::State& state) {
  BM_ConcurrentGet<ConcurrentQdLpFifo>(
      state, static_cast<double>(state.range(0)) / 100.0, kCapacity,
      size_t{16}, kShards);
}

BENCHMARK(BM_ConcurrentClockSkew)
    ->Arg(60)
    ->Arg(90)
    ->Arg(120)
    ->Threads(2)
    ->UseRealTime();
BENCHMARK(BM_ConcurrentS3FifoSkew)
    ->Arg(60)
    ->Arg(90)
    ->Arg(120)
    ->Threads(2)
    ->UseRealTime();
BENCHMARK(BM_ConcurrentQdLpFifoSkew)
    ->Arg(60)
    ->Arg(90)
    ->Arg(120)
    ->Threads(2)
    ->UseRealTime();

// The headline contest: QD-LP-FIFO under a miss-heavy workload — small
// cache (1<<14) vs the full 1<<18 key space at low skew, so most Gets take
// the eviction path — with one eviction domain vs eight, at the highest
// measured thread count. With shards:1 every miss fights for the single
// mutex; shards:8 spreads the same misses across eight domains, each
// drained by its own next lock holder, which is exactly where the sharded
// design must win.
constexpr size_t kMissHeavyCapacity = 1 << 14;
void BM_ConcurrentQdLpFifoMissHeavy(benchmark::State& state) {
  BM_ConcurrentGet<ConcurrentQdLpFifo>(
      state, 0.6, kMissHeavyCapacity, size_t{16},
      static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_ConcurrentQdLpFifoMissHeavy)
    ->ArgNames({"shards"})
    ->Arg(1)
    ->Arg(8)
    ->Apply([](benchmark::internal::Benchmark* bench) {
      bench->Threads(MaxBenchThreads())->UseRealTime();
    });

// Maps "BM_GlobalLockLru/threads:4/real_time" to a stable policy label.
// Longer prefixes are tested first so e.g. BM_ConcurrentClockSkew does not
// fall into BM_ConcurrentClock's bucket with its skew arg lost — both still
// report the same policy, and the full benchmark name disambiguates.
std::string CacheKindFromBenchmarkName(const std::string& name) {
  if (name.find("BM_GlobalLockLru") == 0) {
    return "global-lock-lru";
  }
  if (name.find("BM_ShardedLru") == 0) {
    return "sharded-lru";
  }
  if (name.find("BM_ConcurrentClock") == 0) {
    return "concurrent-clock";
  }
  if (name.find("BM_ConcurrentS3Fifo") == 0) {
    return "concurrent-s3fifo";
  }
  if (name.find("BM_ConcurrentQdLpFifo") == 0) {
    return "concurrent-qdlp-fifo";
  }
  return PolicyFromBenchmarkName(name);
}

}  // namespace
}  // namespace qdlp

int main(int argc, char** argv) {
  if (std::thread::hardware_concurrency() <= 1) {
    std::fprintf(stderr,
                 "[qdlp] NOTE: only one hardware core detected. Threads "
                 "timeshare, so lock contention never materializes and the "
                 "LRU-vs-CLOCK scalability separation cannot show here; run "
                 "on a multi-core machine to observe it.\n");
  }
  benchmark::Initialize(&argc, argv);
  qdlp::JsonCaptureReporter reporter(qdlp::CacheKindFromBenchmarkName);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  qdlp::FillScalingEfficiency(&reporter.results());
  const std::string json_path = qdlp::BenchJsonOutputPath();
  if (qdlp::WriteBenchJson(json_path, "throughput_scalability",
                           reporter.results())) {
    std::fprintf(stderr, "[qdlp] wrote %s (%zu results)\n", json_path.c_str(),
                 reporter.results().size());
  }
  return 0;
}
