// Google-benchmark reporter that mirrors the console output while capturing
// every iteration run into BenchJsonResult records for BENCH_throughput.json
// (see bench_json.h for the schema and output path).

#ifndef QDLP_BENCH_BENCH_JSON_REPORTER_H_
#define QDLP_BENCH_BENCH_JSON_REPORTER_H_

#include <benchmark/benchmark.h>

#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_json.h"

namespace qdlp {

class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  using PolicyNamer = std::function<std::string(const std::string&)>;

  // `policy_namer` maps a full benchmark name to the policy label recorded
  // in the JSON; defaults to PolicyFromBenchmarkName.
  explicit JsonCaptureReporter(PolicyNamer policy_namer = nullptr)
      : policy_namer_(policy_namer ? std::move(policy_namer)
                                   : PolicyFromBenchmarkName) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) {
        continue;  // keep aggregates/errors out of the JSON
      }
      BenchJsonResult result;
      result.benchmark = run.benchmark_name();
      result.policy = policy_namer_(result.benchmark);
      result.threads = run.threads;
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        result.ops_per_sec = static_cast<double>(it->second);
      }
      const auto hit_it = run.counters.find("hit_ratio");
      if (hit_it != run.counters.end()) {
        result.hit_ratio = static_cast<double>(hit_it->second);
      }
      const auto bytes_it = run.counters.find("bytes_per_object");
      if (bytes_it != run.counters.end()) {
        result.bytes_per_object = static_cast<double>(bytes_it->second);
      }
      // Benches publish the cache's Stats() through "stats_<key>" counters
      // (one per kCacheStatsFields entry); collect them into the typed
      // stats block.
      for (const CacheStatsField& field : kCacheStatsFields) {
        const auto stat_it = run.counters.find(std::string("stats_") +
                                               field.key);
        if (stat_it != run.counters.end()) {
          result.stats.*field.member =
              static_cast<uint64_t>(static_cast<double>(stat_it->second));
          result.has_stats = true;
        }
      }
      results_.push_back(std::move(result));
    }
    // The stats_* bridge counters are JSON plumbing, not console content —
    // a dozen extra columns per row would drown the table.
    std::vector<Run> console = reports;
    for (Run& run : console) {
      for (auto it = run.counters.begin(); it != run.counters.end();) {
        it = it->first.rfind("stats_", 0) == 0 ? run.counters.erase(it)
                                               : std::next(it);
      }
    }
    ConsoleReporter::ReportRuns(console);
  }

  std::vector<BenchJsonResult>& results() { return results_; }

 private:
  PolicyNamer policy_namer_;
  std::vector<BenchJsonResult> results_;
};

}  // namespace qdlp

#endif  // QDLP_BENCH_BENCH_JSON_REPORTER_H_
