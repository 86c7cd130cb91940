// Sweep engine throughput: batched single-pass replay vs per-cell replay.
//
// Runs the same Fig-2-scale grid — the paper's core LP/QD comparison set
// over the generated registry at two cache sizes — through RunSweep and
// through a per-cell baseline (one full SimulatePolicy replay per cell,
// kept here as the bench's reference), verifies the outputs are
// bit-identical on every pass, and reports each engine's median wall-clock
// throughput (TimeEngines in bench_common.h). Output is BENCH_sweep.json
// (QDLP_BENCH_JSON overrides; schema in docs/TESTING.md):
//
//   sweep/per_cell — replayed requests/s, one full trace pass per cell
//   sweep/batched  — replayed requests/s, one dense pass drives all cells
//   sweep/speedup  — batched / per_cell ratio in ops_per_sec. Unlike the
//                    absolute rows this is machine-independent, so CI gates
//                    it with a hard floor (tools/bench_compare.py
//                    --require).
//
// The policy set is the dense-capable Fig-2/Fig-5 core (LP variants,
// SIEVE/S3-FIFO, QD-LP-FIFO): the grid the batching work targets. Adaptive
// policies (ARC/LIRS/LHD/...) spend their time in policy logic rather than
// stream + index traffic and would only dilute what this bench measures;
// their batched-vs-per-cell equivalence is covered by tests, not timed
// here.
//
// Scale knobs: QDLP_SCALE (registry size multiplier), QDLP_THREADS.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "src/sim/simulator.h"
#include "src/sim/sweep.h"
#include "src/util/env.h"
#include "src/util/thread_pool.h"

namespace qdlp {
namespace {

// The per-cell baseline: the same points as RunSweep, each cell a full
// replay of the original trace. One task per (trace, fraction): a
// whole-trace task would make the longest trace times the whole fraction
// sweep the critical path.
std::vector<SweepPoint> RunPerCellSweep(const std::vector<Trace>& traces,
                                        const SweepConfig& config) {
  const size_t per_trace = config.size_fractions.size() * config.policies.size();
  std::vector<SweepPoint> points(traces.size() * per_trace);
  ThreadPool pool(config.num_threads);
  for (size_t t = 0; t < traces.size(); ++t) {
    for (size_t f = 0; f < config.size_fractions.size(); ++f) {
      pool.Submit([&, t, f] {
        const Trace& trace = traces[t];
        const size_t cache_size =
            CacheSizeForFraction(trace, config.size_fractions[f]);
        size_t slot = t * per_trace + f * config.policies.size();
        for (const std::string& policy : config.policies) {
          SweepPoint& point = points[slot++];
          point.trace = trace.name;
          point.dataset = trace.dataset;
          point.cls = trace.cls;
          point.size_fraction = config.size_fractions[f];
          point.cache_size = cache_size;
          point.policy = policy;
          point.miss_ratio =
              SimulatePolicy(policy, trace, cache_size).miss_ratio();
        }
      });
    }
  }
  pool.Wait();
  return points;
}

int Run() {
  const auto traces = LoadRegistry(0.25);

  SweepConfig config;
  config.policies = {"lru",    "fifo",  "fifo-reinsertion", "clock2",
                     "clock3", "sieve", "s3fifo",           "qd-lp-fifo"};
  config.size_fractions = {0.001, 0.10};
  config.num_threads = SweepThreads();

  // Work per engine: every cell replays its whole trace once.
  size_t total_requests = 0;
  for (const auto& trace : traces) {
    total_requests += trace.requests.size();
  }
  const double replayed = static_cast<double>(total_requests) *
                          static_cast<double>(config.policies.size()) *
                          static_cast<double>(config.size_fractions.size());

  std::fprintf(stderr, "[qdlp] per-cell vs batched engine, %d passes...\n",
               kEnginePasses);
  double seconds[2];
  if (!TimeEngines(
          [&](int engine) {
            return engine == 0 ? RunPerCellSweep(traces, config)
                               : RunSweep(traces, config);
          },
          seconds)) {
    return 1;
  }
  const double per_cell_seconds = seconds[0];
  const double batched_seconds = seconds[1];

  const double per_cell_ops = replayed / per_cell_seconds;
  const double batched_ops = replayed / batched_seconds;
  const double speedup = per_cell_seconds / batched_seconds;
  std::printf(
      "sweep grid: %zu traces x %zu policies x %zu sizes, %.0f replayed "
      "requests per engine\n",
      traces.size(), config.policies.size(), config.size_fractions.size(),
      replayed);
  std::printf("per-cell: %8.2f s  (%12.0f req/s)\n", per_cell_seconds,
              per_cell_ops);
  std::printf("batched:  %8.2f s  (%12.0f req/s)\n", batched_seconds,
              batched_ops);
  std::printf("speedup:  %8.2fx\n", speedup);

  std::vector<BenchJsonResult> results;
  BenchJsonResult per_cell_row;
  per_cell_row.benchmark = "sweep/per_cell";
  per_cell_row.policy = "sweep";
  per_cell_row.threads = static_cast<int64_t>(config.num_threads);
  per_cell_row.ops_per_sec = per_cell_ops;
  results.push_back(per_cell_row);
  BenchJsonResult batched_row;
  batched_row.benchmark = "sweep/batched";
  batched_row.policy = "sweep";
  batched_row.threads = static_cast<int64_t>(config.num_threads);
  batched_row.ops_per_sec = batched_ops;
  results.push_back(batched_row);
  BenchJsonResult speedup_row;
  speedup_row.benchmark = "sweep/speedup";
  speedup_row.policy = "sweep";
  speedup_row.threads = static_cast<int64_t>(config.num_threads);
  speedup_row.ops_per_sec = speedup;  // ratio, machine-independent
  results.push_back(speedup_row);

  const std::string path = GetEnvString("QDLP_BENCH_JSON", "BENCH_sweep.json");
  if (!WriteBenchJson(path, "sweep_throughput", results)) {
    return 1;
  }
  std::fprintf(stderr, "[qdlp] wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace qdlp

int main() { return qdlp::Run(); }
