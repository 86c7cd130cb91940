// replay-grid: the paper's Fig-2 and Fig-5 grid through RunSweep.
//
// Inputs: kGridTracesPerFamily traces of each Table-1 family at a fixed
// scale, one of them chosen by the seed (MakeGridTraces). Set-up generates
// them and runs one untimed sweep (the warm-up, also the reference every
// timed sweep must reproduce; setup_s: see SetupTimes). Whole-grid sweeps at min(4, nproc) threads
// give `mops`. The cells of each family's first trace, each swept alone on
// one thread, give `mops_1t` and the latency percentiles over cells. Only
// trace, sim, policies and core run here.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench.h"
#include "src/sim/simulator.h"
#include "src/sim/sweep.h"
#include "src/trace/registry.h"

namespace perfbench {

namespace {

constexpr int kGridTracesPerFamily = 4;
constexpr double kGridScale = 0.015625;  // 12,500 requests per trace

// Policies whose per-cell ReplayTrace must reproduce the sweep exactly, on
// the seed's trace of every family at both sizes.
const char* const kOraclePolicies[] = {"lru", "clock2", "qd-arc",
                                       "qd-lp-fifo"};

bool SamePoints(const std::vector<qdlp::SweepPoint>& a,
                const std::vector<qdlp::SweepPoint>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].trace != b[i].trace || a[i].policy != b[i].policy ||
        a[i].cache_size != b[i].cache_size ||
        a[i].miss_ratio != b[i].miss_ratio) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<qdlp::Trace> MakeGridTraces(uint64_t seed, SpanLog* log,
                                        uint64_t parent) {
  // The registry's first kGridTracesPerFamily - 1 traces of each family,
  // plus one the seed picks: different seeds give different inputs, and
  // the grid's mean hit ratio still stays within its bound across seeds.
  std::vector<qdlp::Trace> traces;
  const int seeded = kGridTracesPerFamily - 1 + static_cast<int>(seed % 100000);
  for (const qdlp::DatasetSpec& spec : qdlp::Table1Datasets()) {
    for (int j = 0; j < kGridTracesPerFamily; ++j) {
      ScopedSpan span(log, "trace.generate", parent);
      traces.push_back(qdlp::MakeTrace(
          spec, j + 1 < kGridTracesPerFamily ? j : seeded, kGridScale));
      span.set_ops(traces.back().requests.size());
    }
  }
  return traces;
}

const std::vector<std::string>& GridPolicies() {
  static const std::vector<std::string> policies = {
      // Fig 2: lazy promotion against LRU.
      "lru", "fifo", "fifo-reinsertion", "clock2",
      // Fig 5: quick demotion on the adaptive state of the art.
      "arc", "qd-arc", "lirs", "qd-lirs", "cacheus", "qd-cacheus", "lecar",
      "qd-lecar", "lhd", "qd-lhd", "qd-lp-fifo"};
  return policies;
}

const std::vector<double>& GridFractions() {
  static const std::vector<double> fractions = {0.001, 0.10};
  return fractions;
}

bool RunReplayGrid(const Options& options, double seconds, int setup_reps,
                   Tracer& tracer, Report& report, EndToEnd* out) {
  SpanLog* log = tracer.NewLog();
  qdlp::SweepConfig config;
  config.policies = GridPolicies();
  config.size_fractions = GridFractions();
  config.num_threads = std::min<size_t>(4, Nproc());

  // One set-up: generate the traces and run one warm-up sweep.
  const auto set_up = [&](std::vector<qdlp::Trace>* grid,
                          std::vector<qdlp::SweepPoint>* points) {
    ScopedSpan span(log, "replay.setup");
    const auto start = Clock::now();
    *grid = MakeGridTraces(options.seed, log, span.id());
    {
      ScopedSpan warm(log, "replay.sweep", span.id());
      *points = qdlp::RunSweep(*grid, config);
    }
    return SecondsSince(start);
  };
  std::vector<qdlp::Trace> traces;
  std::vector<qdlp::SweepPoint> reference;
  SetupTimes setup(setup_reps, seconds);
  setup.Add(set_up(&traces, &reference));
  // A scratch set-up's warm-up sweep must reproduce the first one.
  const auto scratch_set_up = [&] {
    std::vector<qdlp::Trace> grid;
    std::vector<qdlp::SweepPoint> points;
    setup.Add(set_up(&grid, &points));
    ++report.attempted;
    if (!SamePoints(points, reference)) {
      ++report.failed;
      report.Diverged("replay-grid: a set-up's sweep differs from the first");
    }
  };

  // The one-thread half replays the cells of the first trace of every
  // family, each as a one-cell sweep: what a user waits on for one
  // (trace, policy, size) point.
  struct Cell {
    const std::vector<qdlp::Trace>* trace;
    qdlp::SweepConfig config;
    qdlp::SweepPoint expected;
    std::vector<double> seconds;
  };
  std::vector<std::vector<qdlp::Trace>> firsts;  // copied before timing
  for (size_t t = 0; t < traces.size(); t += kGridTracesPerFamily) {
    firsts.push_back({traces[t]});
  }
  std::vector<Cell> cells;
  for (const qdlp::SweepPoint& point : reference) {
    for (const std::vector<qdlp::Trace>& first : firsts) {
      if (point.trace != first[0].name) {
        continue;
      }
      Cell cell;
      cell.trace = &first;
      cell.config = config;
      cell.config.policies = {point.policy};
      cell.config.size_fractions = {point.size_fraction};
      cell.config.num_threads = 1;
      cell.expected = point;
      cells.push_back(std::move(cell));
    }
  }
  const auto requests_of = [](const std::vector<qdlp::Trace>& grid,
                              const qdlp::SweepConfig& grid_config) {
    uint64_t requests = 0;
    for (const qdlp::Trace& trace : grid) {
      requests += trace.requests.size();
    }
    return requests * grid_config.policies.size() *
           grid_config.size_fractions.size();
  };

  // Timed sweeps; every one must reproduce the warm-up grid exactly.
  const auto timed = [&](const char* name, const std::vector<qdlp::Trace>& grid,
                         const qdlp::SweepConfig& grid_config,
                         const std::vector<qdlp::SweepPoint>& expected) {
    std::vector<qdlp::SweepPoint> points;
    const auto start = Clock::now();
    {
      ScopedSpan span(log, name);
      points = qdlp::RunSweep(grid, grid_config);
      span.set_ops(requests_of(grid, grid_config));
    }
    const double elapsed = SecondsSince(start);
    report.attempted += points.size();
    if (!SamePoints(points, expected)) {
      ++report.failed;
      report.Diverged("replay-grid: a timed sweep differs from the warm-up");
    }
    return elapsed;
  };
  // Whole-grid sweeps and rounds of one-cell sweeps alternate, so both see
  // the same machine drift. Each round of one-cell sweeps (their pool
  // thread inherits this thread's CPU) moves to the next CPU: single
  // virtual CPUs slow down independently. A cell's time is its median over
  // the rounds, which also drops the rounds a host stall hit.
  std::vector<double> nt_s;
  const auto measure_start = Clock::now();
  for (size_t round = 0;
       nt_s.size() < 3 || SecondsSince(measure_start) < seconds; ++round) {
    if (setup.Due(SecondsSince(measure_start))) {
      scratch_set_up();
    }
    nt_s.push_back(timed("replay.sweep", traces, config, reference));
    PinToCpu(round);
    for (Cell& cell : cells) {
      cell.seconds.push_back(
          timed("replay.cell", *cell.trace, cell.config, {cell.expected}));
    }
    UnpinThread();
  }

  while (setup.Due(seconds)) {
    scratch_set_up();
  }
  out->setup_s = setup.Median();

  double cell_requests = 0.0;
  double cell_total_s = 0.0;
  std::vector<double> cell_s;
  for (const Cell& cell : cells) {
    cell_s.push_back(Median(cell.seconds));
    cell_requests += static_cast<double>(requests_of(*cell.trace, cell.config));
    cell_total_s += cell_s.back();
  }
  out->mops =
      static_cast<double>(requests_of(traces, config)) / Median(nt_s) / 1e6;
  out->mops_1t = cell_requests / cell_total_s / 1e6;
  out->p50_us = Quantile(cell_s, 0.50) * 1e6;
  out->p99_us = Quantile(cell_s, 0.99) * 1e6;
  double hit_sum = 0.0;
  for (const qdlp::SweepPoint& point : reference) {
    hit_sum += 1.0 - point.miss_ratio;
  }
  out->hit_ratio = hit_sum / static_cast<double>(reference.size());

  // Oracle: per-cell ReplayTrace on a fixed subset of cells, on the
  // trace of each family that the seed picked.
  bool corrupted = options.corrupt == "replay";
  for (const qdlp::SweepPoint& point : reference) {
    const qdlp::Trace* trace = nullptr;
    for (size_t t = kGridTracesPerFamily - 1; t < traces.size();
         t += kGridTracesPerFamily) {
      trace = traces[t].name == point.trace ? &traces[t] : trace;
    }
    bool checked = false;
    for (const char* policy : kOraclePolicies) {
      checked = checked || point.policy == policy;
    }
    if (trace == nullptr || !checked) {
      continue;
    }
    ScopedSpan span(log, "replay.oracle");
    const qdlp::SimResult oracle =
        qdlp::SimulatePolicy(point.policy, *trace, point.cache_size);
    span.set_ops(trace->requests.size());
    double expected = oracle.miss_ratio();
    if (corrupted) {
      expected += 1e-9;  // self-test: a falsified expectation must be caught
      corrupted = false;
    }
    ++report.attempted;
    if (expected != point.miss_ratio) {
      ++report.failed;
      report.Diverged("replay-grid: sweep cell " + point.trace + " " +
                      point.policy + " differs from per-cell ReplayTrace");
    }
  }
  std::printf("replay-grid: %zu traces, %zu cells, %llu requests per grid; "
              "%zu timed grid sweeps, %zu rounds of %zu one-cell sweeps\n",
              traces.size(), reference.size(),
              static_cast<unsigned long long>(requests_of(traces, config)),
              nt_s.size(), nt_s.size(), cells.size());
  return true;
}

}  // namespace perfbench
