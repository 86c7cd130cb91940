// CLI: replay your own trace through any policy.
//
//   $ ./examples/replay_trace <trace.{csv,bin}> <policy>[,policy...]
//         [cache_fraction]
//
// The trace is one object id per line (CSV) or the qdlp binary format
// (trace_io.h). cache_fraction is the cache size as a fraction of the
// trace's unique objects (default 0.10). Example:
//
//   $ ./examples/replay_trace prod.csv lru,arc,qd-lp-fifo 0.01

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/policy_factory.h"
#include "src/sim/simulator.h"
#include "src/trace/trace_io.h"

int main(int argc, char** argv) {
  using namespace qdlp;
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <trace.{csv,bin}> <policy>[,policy...] "
                 "[cache_fraction]\nknown policies:",
                 argv[0]);
    for (const auto& name : KnownPolicyNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const std::string path = argv[1];
  std::optional<Trace> trace;
  if (path.size() > 4 && path.substr(path.size() - 4) == ".bin") {
    trace = ReadTraceBinary(path);
  } else {
    trace = ReadTraceCsv(path);
  }
  if (!trace.has_value()) {
    std::fprintf(stderr, "error: could not read trace %s\n", path.c_str());
    return 1;
  }
  const double fraction = argc > 3 ? std::atof(argv[3]) : 0.10;
  if (fraction <= 0.0) {
    std::fprintf(stderr, "error: cache_fraction must be > 0\n");
    return 2;
  }
  const size_t cache_size = CacheSizeForFraction(*trace, fraction);
  std::printf("trace: %zu requests, %llu objects; cache %zu (%.2f%%)\n",
              trace->requests.size(),
              static_cast<unsigned long long>(trace->num_objects), cache_size,
              fraction * 100.0);

  std::stringstream names(argv[2]);
  std::string name;
  while (std::getline(names, name, ',')) {
    auto policy = MakePolicy(name, cache_size, &trace->requests);
    if (policy == nullptr) {
      std::fprintf(stderr, "error: unknown policy '%s'\n", name.c_str());
      return 2;
    }
    const SimResult result = ReplayTrace(*policy, *trace);
    std::printf("%-18s miss ratio %.4f (%llu hits / %llu requests)\n",
                name.c_str(), result.miss_ratio(),
                static_cast<unsigned long long>(result.hits),
                static_cast<unsigned long long>(result.requests));
  }
  return 0;
}
