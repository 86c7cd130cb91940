// Shared plumbing for qdlp_perfbench: options, the result report, the span
// tracer, timed multi-thread phases and small statistics helpers.
//
// The benchmark drives the library only through its public entry points
// (RunSweep/ReplayTrace, MakeCache/Cache, QdlpdServer/QdlpdClient/protocol.h,
// and, in the traced ledger, BatchReplayTrace/DensifyTrace/
// StripedAtomicIndex/SlabStore). Everything measured here is timed from this
// directory's code; nothing inside src/ is instrumented.

#ifndef QDLP_PERFBENCH_PERFBENCH_H_
#define QDLP_PERFBENCH_PERFBENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/cache_api.h"
#include "src/trace/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Command-line options. `corrupt` names one output check whose expectation
// is deliberately falsified (the self-test in test_perfbench.py proves each
// check can fail); empty in real runs.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string corrupt;
  std::string out_dir;  // where the traced run writes its spans
};

// Threads and connections the load may use: hardware concurrency, counting
// in-process server workers.
size_t Nproc();

// ---- Statistics. ----

// Nearest-rank quantile of `values` (sorted in place), q in [0, 1].
double Quantile(std::vector<double>& values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(values, 0.5);
}

// setup_s is the median of `reps` set-ups. The first builds the state the
// workload measures; the others build scratch state at even intervals
// through the measurement of `seconds`, so the median sees the machine
// drift of the whole run, not of its first seconds.
class SetupTimes {
 public:
  SetupTimes(int reps, double seconds) : reps_(reps), seconds_(seconds) {}

  void Add(double seconds) { times_.push_back(seconds); }
  size_t count() const { return times_.size(); }
  // Whether the next scratch set-up is due `elapsed` seconds into the
  // measurement; every one is due once elapsed reaches `seconds`.
  bool Due(double elapsed) const {
    const int done = static_cast<int>(times_.size());
    return done < reps_ && elapsed >= seconds_ * (done - 1) / (reps_ - 1);
  }
  double Median() const { return perfbench::Median(times_); }

 private:
  const int reps_;
  const double seconds_;
  std::vector<double> times_;
};
// ---- Spans. ----

// One recorded interval. `parent` is the id of the span that caused it (0 =
// a root); `ops` is how many operations of the named layer it covers, so a
// per-operation cost is (end_ns - start_ns) / ops.
struct Span {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t ops;
};

// A single thread's span buffer. Spans stay in memory until the tracer
// writes them out at the end of the run.
class SpanLog {
 public:
  explicit SpanLog(uint64_t log_index) : base_(log_index << 32) {}

  uint64_t Begin(const char* name, uint64_t parent) {
    spans_.push_back(Span{name, base_ + spans_.size() + 1, parent, NowNs(), 0,
                          0});
    return spans_.back().id;
  }
  void End(uint64_t id, uint64_t ops) {
    Span& span = spans_[(id - base_) - 1];
    span.end_ns = NowNs();
    span.ops = ops;
  }
  const Span& Get(uint64_t id) const { return spans_[(id - base_) - 1]; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t base_;
  std::vector<Span> spans_;
};

// Owns every thread's SpanLog. A disabled tracer hands out null logs, and
// ScopedSpan on a null log does nothing, so untraced runs pay one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  SpanLog* NewLog() {
    if (!enabled_) {
      return nullptr;
    }
    std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(std::make_unique<SpanLog>(logs_.size() + 1));
    return logs_.back().get();
  }
  bool enabled() const { return enabled_; }
  std::vector<Span> AllSpans() const;

 private:
  const bool enabled_;
  std::mutex mu_;  // guards logs_
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t parent = 0)
      : log_(log), id_(log != nullptr ? log->Begin(name, parent) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->End(id_, ops_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }
  void set_ops(uint64_t ops) { ops_ = ops; }

 private:
  SpanLog* log_;
  uint64_t id_;
  uint64_t ops_ = 0;
};

// ---- Results. ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// What one run reports: metrics in print order plus the output-check tally.
// A hard divergence (wrong bytes, oracle mismatch, broken counter identity)
// clears `correct`; soft failures (kNoSpace, kTooLarge) only count in
// `failed`.
struct Report {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // Records a hard divergence (printed, first few only).
  void Diverged(const std::string& what);
};

// End-to-end figures every workload produces (see README.md for what each
// means per workload).
struct EndToEnd {
  double setup_s = 0.0;
  double mops = 0.0;
  double mops_1t = 0.0;
  double hit_ratio = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

// ---- Timed phases. ----

struct alignas(64) PaddedCounter {
  std::atomic<uint64_t> value{0};
};

// Restricts the calling thread to one CPU (cpu mod nproc). Threads it
// creates afterwards inherit the restriction.
void PinToCpu(size_t cpu);
// Lets the calling thread run on every CPU again.
void UnpinThread();

// Runs body(thread_index, stop) on `threads` threads, thread t pinned to
// CPU first_cpu + t, for a window of `seconds`. Each body adds its
// completed operations to counters[thread_index] as it goes and returns
// once `stop` reads true. Returns the window's operations per second,
// counted from the threads' start to the end of the window.
template <typename Body>
double RunTimedWindow(size_t threads, size_t first_cpu, double seconds,
                      std::vector<PaddedCounter>& counters, Body&& body) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  const auto start = Clock::now();
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      PinToCpu(first_cpu + t);
      body(t, stop);
    });
  }
  std::this_thread::sleep_until(
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds)));
  uint64_t ops = 0;
  for (size_t t = 0; t < threads; ++t) {
    ops += counters[t].value.load(std::memory_order_relaxed);
  }
  const double elapsed = SecondsSince(start);
  stop.store(true);
  for (auto& worker : workers) {
    worker.join();
  }
  return static_cast<double>(ops) / elapsed;
}

// ---- Inputs shared by a workload and the ledger. ----

// replay-grid's traces: four of every Table-1 family, one of them chosen by
// the seed, each generation a "trace.generate" span under `parent`.
std::vector<qdlp::Trace> MakeGridTraces(uint64_t seed, SpanLog* log,
                                        uint64_t parent);
// The Fig-2 policies followed by the Fig-5 ones, each named once.
const std::vector<std::string>& GridPolicies();
// The paper's two cache sizes: 0.1% and 10% of a trace's objects.
const std::vector<double>& GridFractions();

// cache-churn's engine: concurrent-qdlp-fifo, metadata only, with qdlpd's
// capacity and stripe count, split into `shards` eviction domains.
qdlp::CacheConfig ChurnCacheConfig(size_t shards);
// cache-churn's key stream: Zipf 1.0 over 4x the capacity.
std::vector<uint32_t> MakeChurnStream(uint64_t seed);

// ---- Workloads. Each returns false only when it could not run at all. ----

bool RunReplayGrid(const Options& options, double seconds, int setup_reps,
                   Tracer& tracer, Report& report, EndToEnd* out);
bool RunCacheChurn(const Options& options, double seconds, int setup_reps,
                   Tracer& tracer, Report& report, EndToEnd* out);
bool RunServeChurn(const Options& options, double seconds, int setup_reps,
                   Tracer& tracer, Report& report, EndToEnd* out);

// The server rows of the ledger, from serve-churn's closed loop on a fresh
// warmed server: ns per request with its op mix (for reconciliation), and
// PING costs, which involve no cache work.
struct ServeLedgerRows {
  double ns_per_req = 0.0;
  double frac_get_hit = 0.0;
  double frac_get_miss = 0.0;
  double frac_set = 0.0;
  double frac_delete = 0.0;
  double ping_rtt_us = 0.0;        // depth-1 round trip
  double ping_ns_per_frame = 0.0;  // pipelined at the workload's depth
};
ServeLedgerRows MeasureServeLedger(const Options& options, double seconds,
                                   Tracer& tracer, Report& report);

// The per-layer ledger of the traced run: every layer measured through its
// public entry point, each measurement a span. Adds the per-layer metrics
// to `report`.
void RunLedger(const Options& options, Tracer& tracer, Report& report);

}  // namespace perfbench

#endif  // QDLP_PERFBENCH_PERFBENCH_H_
