#include "src/sim/sweep.h"

#include <cmath>
#include <functional>
#include <unordered_map>

#include "src/sim/batch_replay.h"
#include "src/sim/simulator.h"
#include "src/sim/stream_replay.h"
#include "src/trace/dense_trace.h"
#include "src/trace/trace_source.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace qdlp {

namespace {

// A trace's cells in (fraction, policy) nesting — the exact order of its
// slots in the grid.
std::vector<BatchCellSpec> LayOutCells(const SweepConfig& config,
                                       uint64_t num_objects) {
  std::vector<BatchCellSpec> cells;
  cells.reserve(config.size_fractions.size() * config.policies.size());
  for (const double fraction : config.size_fractions) {
    const size_t cache_size = CacheSizeForCount(num_objects, fraction);
    for (const std::string& policy : config.policies) {
      cells.push_back(BatchCellSpec{policy, cache_size});
    }
  }
  return cells;
}

// Writes one trace's replayed cells into its slots, which start at `slot`.
void FillPoints(const SweepConfig& config,
                const std::vector<BatchCellSpec>& cells,
                const std::vector<SimResult>& results,
                const std::string& dataset, WorkloadClass cls,
                SweepPoint* slot) {
  for (size_t cell = 0; cell < cells.size(); ++cell, ++slot) {
    slot->trace = results[cell].trace;
    slot->dataset = dataset;
    slot->cls = cls;
    slot->size_fraction =
        config.size_fractions[cell / config.policies.size()];
    slot->cache_size = cells[cell].cache_size;
    slot->policy = cells[cell].policy;
    slot->miss_ratio = results[cell].miss_ratio();
  }
}

// Streams `path` through `cells`, aborting with a diagnostic if the file
// cannot be opened or the stream fails mid-pass.
StreamReplayResult ReplayFile(const std::string& path,
                              const std::string& trace_name,
                              const std::vector<BatchCellSpec>& cells,
                              const StreamReplayOptions& options) {
  std::string open_error;
  auto source = OpenTraceSource(path, &open_error);
  QDLP_CHECK_MSG(source != nullptr, open_error.c_str());
  StreamReplayResult replay =
      StreamReplayTrace(*source, trace_name, cells, options);
  QDLP_CHECK_MSG(replay.ok, replay.error.c_str());
  return replay;
}

// The grid over `num_traces` traces, one pool task per trace:
// `sweep_trace(t, slot)` replays trace t and fills its points, which start
// at `slot`. Output slots are preassigned so ordering is identical to the
// sequential nesting (trace-major, then fraction, then policy) no matter
// how the tasks were scheduled. Each task does its work in one stream pass
// rather than one per cell, so coarse tasks shrink the critical path
// rather than grow it.
std::vector<SweepPoint> RunGrid(
    size_t num_traces, const SweepConfig& config,
    const std::function<void(size_t, SweepPoint*)>& sweep_trace) {
  QDLP_CHECK(!config.policies.empty());
  QDLP_CHECK(!config.size_fractions.empty());
  const size_t per_trace = config.size_fractions.size() * config.policies.size();
  std::vector<SweepPoint> points(num_traces * per_trace);
  ThreadPool pool(config.num_threads);
  for (size_t t = 0; t < num_traces; ++t) {
    pool.Submit([&, t] { sweep_trace(t, &points[t * per_trace]); });
  }
  pool.Wait();
  return points;
}

}  // namespace

std::vector<SweepPoint> RunSweepStreamed(
    const std::vector<StreamTraceSpec>& specs, const SweepConfig& config) {
  // Each task opens its own source(s), so tasks share no stream state.
  return RunGrid(specs.size(), config, [&](size_t t, SweepPoint* slot) {
    const StreamTraceSpec& spec = specs[t];
    const std::string trace_name = spec.name.empty() ? spec.path : spec.name;
    StreamReplayOptions options;
    options.mem_budget_bytes = config.stream_mem_budget_bytes;
    options.spill_dir = config.stream_spill_dir;
    // Fractional cache sizes need the distinct-id count before the replay
    // starts; discover it with a counting pre-pass (a replay with no
    // cells) unless the spec supplied it. Either way the count doubles as
    // the dense-universe hint, so remap-invariant cells get the same
    // direct-indexed lane RunSweep uses.
    uint64_t num_objects = spec.num_objects;
    if (num_objects == 0) {
      num_objects = ReplayFile(spec.path, trace_name, {}, options).num_objects;
    }
    options.dense_universe = num_objects;
    const std::vector<BatchCellSpec> cells = LayOutCells(config, num_objects);
    FillPoints(config, cells,
               ReplayFile(spec.path, trace_name, cells, options).cells,
               spec.dataset, spec.cls, slot);
  });
}

std::vector<SweepPoint> RunSweep(const std::vector<Trace>& traces,
                                 const SweepConfig& config) {
  // Each task densifies its trace once, then a single interleaved pass
  // drives every (fraction x policy) cell.
  return RunGrid(traces.size(), config, [&](size_t t, SweepPoint* slot) {
    const Trace& trace = traces[t];
    const std::vector<BatchCellSpec> cells =
        LayOutCells(config, trace.num_objects);
    FillPoints(config, cells,
               BatchReplayTrace(DensifyTrace(trace), cells, {},
                                &trace.requests),
               trace.dataset, trace.cls, slot);
  });
}

namespace {

bool MatchesFilters(const SweepPoint& point, double size_fraction,
                    const std::string& dataset_filter, int class_filter) {
  if (std::abs(point.size_fraction - size_fraction) > 1e-12) {
    return false;
  }
  if (!dataset_filter.empty() && point.dataset != dataset_filter) {
    return false;
  }
  if (class_filter >= 0 &&
      static_cast<int>(point.cls) != class_filter) {
    return false;
  }
  return true;
}

}  // namespace

double WinFraction(const std::vector<SweepPoint>& points,
                   const std::string& challenger, const std::string& incumbent,
                   double size_fraction, const std::string& dataset_filter,
                   int class_filter) {
  std::unordered_map<std::string, double> challenger_mr;
  std::unordered_map<std::string, double> incumbent_mr;
  for (const SweepPoint& point : points) {
    if (!MatchesFilters(point, size_fraction, dataset_filter, class_filter)) {
      continue;
    }
    if (point.policy == challenger) {
      challenger_mr[point.trace] = point.miss_ratio;
    } else if (point.policy == incumbent) {
      incumbent_mr[point.trace] = point.miss_ratio;
    }
  }
  double wins = 0.0;
  size_t total = 0;
  for (const auto& [trace, challenger_value] : challenger_mr) {
    const auto it = incumbent_mr.find(trace);
    if (it == incumbent_mr.end()) {
      continue;
    }
    ++total;
    // Miss ratios land in [0, 1]; policies that agree can still differ in
    // the last few ulps when their hit counts were accumulated through
    // different float paths, so ties are epsilon-based rather than exact.
    constexpr double kTieEpsilon = 1e-9;
    if (std::abs(challenger_value - it->second) <= kTieEpsilon) {
      wins += 0.5;
    } else if (challenger_value < it->second) {
      wins += 1.0;
    }
  }
  return total == 0 ? 0.0 : wins / static_cast<double>(total);
}

std::vector<double> ReductionsVsBaseline(const std::vector<SweepPoint>& points,
                                         const std::string& policy,
                                         const std::string& baseline,
                                         double size_fraction,
                                         int class_filter) {
  std::unordered_map<std::string, double> policy_mr;
  std::unordered_map<std::string, double> baseline_mr;
  for (const SweepPoint& point : points) {
    if (!MatchesFilters(point, size_fraction, "", class_filter)) {
      continue;
    }
    if (point.policy == policy) {
      policy_mr[point.trace] = point.miss_ratio;
    } else if (point.policy == baseline) {
      baseline_mr[point.trace] = point.miss_ratio;
    }
  }
  std::vector<double> reductions;
  reductions.reserve(policy_mr.size());
  for (const auto& [trace, policy_value] : policy_mr) {
    const auto it = baseline_mr.find(trace);
    if (it == baseline_mr.end() || it->second <= 0.0) {
      continue;
    }
    reductions.push_back((it->second - policy_value) / it->second);
  }
  return reductions;
}

}  // namespace qdlp
