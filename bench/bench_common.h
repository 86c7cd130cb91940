// Shared helpers for the experiment harnesses (bench/ binaries).
//
// Every harness regenerates one table or figure of the paper and prints it
// as an aligned text table. Scale knobs:
//   QDLP_SCALE    multiplies the default registry scale (default 1.0);
//                 4.0 ~= 2x more traces of 2x the length.
//   QDLP_THREADS  worker threads for sweeps (default: hardware concurrency).

#ifndef QDLP_BENCH_BENCH_COMMON_H_
#define QDLP_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/sweep.h"
#include "src/trace/registry.h"
#include "src/trace/trace.h"
#include "src/util/env.h"
#include "src/util/stats.h"

namespace qdlp {

// Materializes the Table-1 registry at `base_scale * QDLP_SCALE`.
inline std::vector<Trace> LoadRegistry(double base_scale) {
  const double scale = base_scale * GetEnvDouble("QDLP_SCALE", 1.0);
  std::fprintf(stderr, "[qdlp] materializing trace registry at scale %.3f...\n",
               scale);
  auto traces = MaterializeRegistry(scale);
  size_t total_requests = 0;
  for (const auto& trace : traces) {
    total_requests += trace.requests.size();
  }
  std::fprintf(stderr, "[qdlp] %zu traces, %zu total requests\n", traces.size(),
               total_requests);
  return traces;
}

inline size_t SweepThreads() {
  return static_cast<size_t>(GetEnvInt("QDLP_THREADS", 0));
}

// True when two engines' grids agree point for point: trace, policy, cache
// size and the exact miss ratio. Prints the first divergence otherwise.
inline bool SameGrid(const std::vector<SweepPoint>& expected,
                     const std::vector<SweepPoint>& actual) {
  if (actual.size() != expected.size()) {
    std::fprintf(stderr, "[qdlp] FAIL: engines disagree on grid size\n");
    return false;
  }
  for (size_t i = 0; i < actual.size(); ++i) {
    if (actual[i].miss_ratio != expected[i].miss_ratio ||
        actual[i].policy != expected[i].policy ||
        actual[i].trace != expected[i].trace ||
        actual[i].cache_size != expected[i].cache_size) {
      std::fprintf(stderr,
                   "[qdlp] FAIL: engines diverge at point %zu (%s, %s): "
                   "%.17g vs %.17g\n",
                   i, actual[i].trace.c_str(), actual[i].policy.c_str(),
                   actual[i].miss_ratio, expected[i].miss_ratio);
      return false;
    }
  }
  return true;
}

// Timed passes per engine in TimeEngines.
constexpr int kEnginePasses = 5;

// Times two sweep engines for a CI ratio gate. `sweep(engine)` runs engine
// 0 or 1 over the grid once. Timing each engine once, cold engine first,
// read sweep/speedup anywhere from 3.5 to 13.3 and ingest/ratio from 0.78
// to 2.52 across runs on a 4-vCPU VM. So each engine first runs once
// untimed, then kEnginePasses timed passes alternate which engine goes
// first. Every run's grid must equal the first run's (SameGrid), so no
// number is published for a divergent computation; returns false on a
// divergence. On success, median_seconds[engine] is that engine's median
// timed pass.
inline bool TimeEngines(
    const std::function<std::vector<SweepPoint>(int engine)>& sweep,
    double median_seconds[2]) {
  std::vector<SweepPoint> reference;
  PercentileSummary seconds[2];
  for (int pass = 0; pass <= kEnginePasses; ++pass) {  // pass 0 warms up
    for (int k = 0; k < 2; ++k) {
      const int engine = (pass + k) % 2;
      const auto start = std::chrono::steady_clock::now();
      const std::vector<SweepPoint> points = sweep(engine);
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (reference.empty()) {
        reference = points;
      }
      if (!SameGrid(reference, points)) {
        return false;
      }
      if (pass > 0) {
        seconds[engine].Add(elapsed.count());
      }
    }
  }
  median_seconds[0] = seconds[0].Median();
  median_seconds[1] = seconds[1].Median();
  return true;
}

}  // namespace qdlp

#endif  // QDLP_BENCH_BENCH_COMMON_H_
