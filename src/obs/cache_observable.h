// CacheObservable — the shared observational interface of both cache
// hierarchies.
//
// EvictionPolicy (sequential) and the thread-safe caches had drifted
// into incompatible observational APIs: `std::string name()` vs
// `const char* name()`, listener hooks on one side only, ApproxMetadataBytes
// duplicated. This interface is the single vocabulary: anything that caches
// can report its name, capacity, a CacheStats snapshot, its metadata
// footprint, and validate its own invariants — which is exactly what the
// bench JSON writer, the differential harness, and the stats report consume,
// without caring which hierarchy the cache came from.

#ifndef QDLP_SRC_OBS_CACHE_OBSERVABLE_H_
#define QDLP_SRC_OBS_CACHE_OBSERVABLE_H_

#include <cstddef>
#include <string_view>

#include "src/obs/cache_stats.h"

namespace qdlp {

class CacheObservable {
 public:
  virtual ~CacheObservable() = default;

  // Stable policy/cache label ("lru", "concurrent-s3fifo", ...). The view
  // is valid for the lifetime of the cache object.
  virtual std::string_view name() const = 0;

  // Number of objects the cache may hold.
  virtual size_t capacity() const = 0;

  // Coherent snapshot of the telemetry counters and current occupancy.
  // Sequential policies read plain counters; concurrent caches sum striped
  // relaxed atomics and take the (cold) eviction lock for the occupancy
  // fields, so this is safe to call concurrently with the hit path.
  virtual CacheStats Stats() const = 0;

  // Approximate bytes of eviction metadata currently held (slabs, index
  // tables, ghost entries — not cached data). Purely observational: the
  // throughput benches divide it by capacity for the bytes/object column in
  // BENCH_throughput.json (see docs/PERFORMANCE.md). 0 = not instrumented.
  virtual size_t ApproxMetadataBytes() const { return 0; }

  // Validates internal invariants (queue/index consistency, occupancy
  // accounting, ghost/resident disjointness, counter consistency) with
  // QDLP_CHECK, aborting on violation. O(size) — test/debug machinery, not
  // a hot-path operation. Non-const because concurrent caches take their
  // operational locks (and drain buffered misses) to get a stable view.
  virtual void CheckInvariants() {}
};

}  // namespace qdlp

#endif  // QDLP_SRC_OBS_CACHE_OBSERVABLE_H_
