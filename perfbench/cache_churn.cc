// cache-churn: the concurrent miss path in process, through MakeCache.
//
// GetOrAdmit on a Zipf-1.0 key stream over 4x the capacity drives index
// probes, admissions, quick demotions, ghost hits and CLOCK evictions; no
// sockets, no values, no simulator. Eight eviction domains, because with
// one the multi-thread gain comes from dropped admissions. Set-up
// generates the stream and replays it once on one thread to fill the
// cache (setup_s: see SetupTimes). Then windows of one thread and of nproc
// threads alternate on the same stream (each thread from its own offset).
// Every 256th operation is timed on its own for the latency percentiles.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench.h"
#include "src/util/random.h"
#include "src/util/zipf.h"

namespace perfbench {

namespace {

constexpr size_t kCapacity = size_t{1} << 16;  // qdlpd's default capacity
constexpr size_t kStripes = 64;                // and stripe count
constexpr size_t kShards = 8;
constexpr size_t kStreamLen = size_t{1} << 22;
constexpr size_t kBatch = 4096;       // operations per counter update / span
constexpr size_t kSampleEvery = 256;  // one timed operation in this many
constexpr size_t kMaxSamples = 16384;  // per thread and window, preallocated
constexpr double kWindowS = 0.5;

struct PhaseResult {
  std::vector<double> rates;
  uint64_t ops = 0;
  uint64_t hits = 0;
  std::vector<double> latency_ns;
};

// One window of `threads` threads on the stream, each thread starting at
// its own offset past `base`; adds the window's rate, operations, hits and
// latency samples to *result.
void RunWindow(qdlp::Cache& cache, const std::vector<uint32_t>& stream,
               size_t threads, size_t first_cpu, size_t base, Tracer& tracer,
               const char* window_name, PhaseResult* result) {
  SpanLog* window_log = tracer.NewLog();
  ScopedSpan window(window_log, window_name);
  std::vector<SpanLog*> logs(threads);
  for (SpanLog*& log : logs) {
    log = tracer.NewLog();
  }
  std::vector<PaddedCounter> counters(threads);
  std::vector<uint64_t> hits(threads, 0);
  std::vector<std::vector<double>> samples(threads);
  for (std::vector<double>& s : samples) {
    s.reserve(kMaxSamples);
  }
  const double rate = RunTimedWindow(
      threads, first_cpu, kWindowS, counters,
      [&](size_t t, const std::atomic<bool>& stop) {
        size_t pos = base + t * (kStreamLen / threads);
        uint64_t local_hits = 0;
        std::vector<double>& local_samples = samples[t];
        while (!stop.load(std::memory_order_relaxed)) {
          ScopedSpan batch(logs[t], "cache.get_or_admit", window.id());
          for (size_t i = 0; i < kBatch; ++i) {
            const qdlp::ObjectId key = stream[pos++ & (kStreamLen - 1)];
            if (i % kSampleEvery == 0 &&
                local_samples.size() < kMaxSamples) {
              const uint64_t start = NowNs();
              local_hits += cache.GetOrAdmit(key) ? 1 : 0;
              local_samples.push_back(static_cast<double>(NowNs() - start));
            } else {
              local_hits += cache.GetOrAdmit(key) ? 1 : 0;
            }
          }
          batch.set_ops(kBatch);
          counters[t].value.fetch_add(kBatch, std::memory_order_relaxed);
        }
        hits[t] = local_hits;
      });
  uint64_t ops = 0;
  for (size_t t = 0; t < threads; ++t) {
    ops += counters[t].value.load();
    result->hits += hits[t];
    result->latency_ns.insert(result->latency_ns.end(), samples[t].begin(),
                              samples[t].end());
  }
  result->ops += ops;
  result->rates.push_back(rate);
  window.set_ops(ops);
}

}  // namespace

qdlp::CacheConfig ChurnCacheConfig(size_t shards) {
  qdlp::CacheConfig config;
  config.policy = "concurrent-qdlp-fifo";
  config.capacity = kCapacity;
  config.num_stripes = kStripes;
  config.num_shards = shards;
  return config;
}

std::vector<uint32_t> MakeChurnStream(uint64_t seed) {
  qdlp::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0xc4u);
  const qdlp::ZipfSampler zipf(4 * kCapacity, 1.0);
  std::vector<uint32_t> stream(kStreamLen);
  for (uint32_t& key : stream) {
    key = static_cast<uint32_t>(zipf.Sample(rng));
  }
  return stream;
}

bool RunCacheChurn(const Options& options, double seconds, int setup_reps,
                   Tracer& tracer, Report& report, EndToEnd* out) {
  SpanLog* log = tracer.NewLog();
  // One set-up, on CPU `cpu`: the key stream, then one replay of it on one
  // thread to fill a fresh cache. Each set-up runs on the next CPU, like
  // the one-thread windows below.
  const auto set_up = [&](size_t cpu, std::vector<uint32_t>* keys,
                          std::unique_ptr<qdlp::Cache>* filled) {
    PinToCpu(cpu);
    ScopedSpan span(log, "cache.setup");
    const auto start = Clock::now();
    *keys = MakeChurnStream(options.seed);
    *filled = qdlp::MakeCache(ChurnCacheConfig(kShards));
    for (const uint32_t key : *keys) {
      (*filled)->GetOrAdmit(key);
    }
    const double elapsed = SecondsSince(start);
    UnpinThread();
    return elapsed;
  };
  std::vector<uint32_t> stream;
  std::unique_ptr<qdlp::Cache> cache;
  SetupTimes setup(setup_reps, seconds);
  setup.Add(set_up(0, &stream, &cache));
  const auto scratch_set_up = [&] {
    std::vector<uint32_t> keys;
    std::unique_ptr<qdlp::Cache> scratch;
    setup.Add(set_up(setup.count(), &keys, &scratch));
  };

  // One-thread and nproc-thread windows alternate. Left running, the
  // nproc-thread miss path drifts after a few seconds into faster states
  // with more buffered misses and a higher hit ratio; short windows that
  // each start from the one-thread state measure the same state every time,
  // and alternating exposes both figures to the same machine drift. The
  // one-thread window moves to the next CPU each time and its figure is
  // the mean: single CPUs of the virtual machine this was tuned on slow
  // down by up to a third for seconds at a time, independently.
  const size_t threads = Nproc();
  const qdlp::CacheStats before = cache->Stats();
  PhaseResult one;
  PhaseResult all;
  const size_t cycles =
      std::max<size_t>(2, static_cast<size_t>(seconds / (2 * kWindowS)));
  one.latency_ns.reserve(cycles * kMaxSamples);
  all.latency_ns.reserve(cycles * threads * kMaxSamples);
  const auto measure_start = Clock::now();
  for (size_t c = 0; c < cycles; ++c) {
    if (setup.Due(SecondsSince(measure_start))) {
      scratch_set_up();
    }
    const size_t base = c * 1234567;
    RunWindow(*cache, stream, 1, c, base, tracer, "cache.window_1t", &one);
    RunWindow(*cache, stream, threads, 0, base, tracer, "cache.window_nt",
              &all);
  }

  while (setup.Due(seconds)) {
    scratch_set_up();
  }
  out->setup_s = setup.Median();

  // Output checks at quiesce: structural invariants (aborts on failure),
  // then the counter identities against what the threads saw.
  cache->CheckInvariants();
  const qdlp::CacheStats delta = cache->Stats().DeltaSince(before);
  uint64_t expected_hits = one.hits + all.hits;
  if (options.corrupt == "cache") {
    ++expected_hits;  // self-test: a falsified expectation must be caught
  }
  report.attempted += one.ops + all.ops;
  if (delta.requests != delta.hits + delta.misses ||
      delta.requests != one.ops + all.ops || delta.hits != expected_hits) {
    ++report.failed;
    report.Diverged("cache-churn: Stats() disagrees with the operations run (" +
                    std::to_string(delta.requests) + " requests, " +
                    std::to_string(delta.hits) + " hits; expected " +
                    std::to_string(one.ops + all.ops) + ", " +
                    std::to_string(expected_hits) + ")");
  }
  if (cache->Stats().size > kCapacity) {
    ++report.failed;
    report.Diverged("cache-churn: more objects resident than the capacity");
  }

  double sum_1t = 0.0;
  for (const double rate : one.rates) {
    sum_1t += rate;
  }
  out->mops_1t = sum_1t / static_cast<double>(one.rates.size()) / 1e6;
  out->mops = Median(all.rates) / 1e6;
  out->hit_ratio =
      static_cast<double>(all.hits) / static_cast<double>(all.ops);
  out->p50_us = Quantile(all.latency_ns, 0.50) / 1e3;
  out->p99_us = Quantile(all.latency_ns, 0.99) / 1e3;
  std::printf("cache-churn: %zu threads, %zu shards; per miss: "
              "lock_failures %.4f buffer_drops %.4f ghost_hits %.4f\n",
              threads, kShards,
              static_cast<double>(delta.lock_failures) /
                  static_cast<double>(delta.misses),
              static_cast<double>(delta.buffer_drops) /
                  static_cast<double>(delta.misses),
              static_cast<double>(delta.ghost_hits) /
                  static_cast<double>(delta.misses));
  return true;
}

}  // namespace perfbench
