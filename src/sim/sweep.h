// Parallel experiment sweeps: (trace × cache-size fraction × policy) grids
// replayed across a thread pool, one task per trace. This is the workhorse
// behind the Fig 2 and Fig 5 harnesses. Both entry points lay out a trace's
// cells and fill its points the same way and differ only in the replay
// engine's front end: RunSweep densifies each trace and calls
// BatchReplayTrace, RunSweepStreamed counts each file and calls
// StreamReplayTrace.

#ifndef QDLP_SRC_SIM_SWEEP_H_
#define QDLP_SRC_SIM_SWEEP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/trace/trace.h"

namespace qdlp {

struct SweepPoint {
  std::string trace;      // trace name
  std::string dataset;    // dataset family
  WorkloadClass cls = WorkloadClass::kBlock;
  double size_fraction = 0.0;  // cache size / unique objects
  size_t cache_size = 0;
  std::string policy;
  double miss_ratio = 0.0;
};

struct SweepConfig {
  std::vector<std::string> policies;
  // Cache sizes as fractions of each trace's unique-object count.
  std::vector<double> size_fractions = {0.001, 0.10};
  // 0 = hardware concurrency.
  size_t num_threads = 0;
  // RunSweepStreamed's id mapper; see StreamReplayOptions for semantics.
  size_t stream_mem_budget_bytes = 0;
  std::string stream_spill_dir;
};

// Runs the full grid: one task per trace densifies it and drives all of its
// (fraction x policy) cells in one BatchReplayTrace pass. Results are in
// deterministic order (trace-major, fraction, policy) regardless of thread
// scheduling, with miss ratios bit-identical to a per-cell SimulatePolicy
// replay (pinned by tests).
std::vector<SweepPoint> RunSweep(const std::vector<Trace>& traces,
                                 const SweepConfig& config);

// A trace participating in a streamed sweep, identified by path instead of
// a materialized Trace. `num_objects` sizes the fractional caches: leave 0
// to have the sweep discover it with a counting pre-pass (the file is then
// opened twice, so paths must be regular files, not pipes); a supplied
// count must be exact — an undercount aborts the replay, an overcount
// shifts the fractional cache sizes.
struct StreamTraceSpec {
  std::string path;     // trace file, optionally zstd-framed (.zst)
  std::string name;     // SweepPoint::trace; defaults to `path` when empty
  std::string dataset;  // SweepPoint::dataset
  WorkloadClass cls = WorkloadClass::kBlock;
  uint64_t num_objects = 0;
};

// The streamed grid: same points in the same deterministic order as
// RunSweep over the materialized traces (pinned by tests), but each trace
// is pulled chunk-by-chunk from its file, so peak memory is one chunk plus
// the id mapper — bounded by config.stream_mem_budget_bytes when set —
// instead of the whole request stream. Aborts with a diagnostic if a path
// cannot be opened or a stream fails mid-pass (harness convention, as with
// unknown policy names).
std::vector<SweepPoint> RunSweepStreamed(
    const std::vector<StreamTraceSpec>& specs, const SweepConfig& config);

// Helpers for digesting sweep output.
//
// Fraction of traces (optionally filtered by dataset/class) where
// `challenger` achieves a strictly lower miss ratio than `incumbent` at the
// given size fraction. Ties count as 0.5 per the usual convention of
// "which algorithm do you prefer" plots.
double WinFraction(const std::vector<SweepPoint>& points,
                   const std::string& challenger, const std::string& incumbent,
                   double size_fraction, const std::string& dataset_filter = "",
                   int class_filter = -1);

// Miss-ratio reduction of `policy` relative to `baseline` on each matching
// trace: (mr_baseline - mr_policy) / mr_baseline. Traces where the baseline
// has a zero miss ratio are skipped.
std::vector<double> ReductionsVsBaseline(const std::vector<SweepPoint>& points,
                                         const std::string& policy,
                                         const std::string& baseline,
                                         double size_fraction,
                                         int class_filter = -1);

}  // namespace qdlp

#endif  // QDLP_SRC_SIM_SWEEP_H_
