// The unified cache API's factory: one config struct builds any engine
// behind Cache (src/concurrent/concurrent_cache.h, re-exported here).
//
// MakeCache() routes on `policy` and `value_arena_bytes` alone, so call
// sites carry no per-engine construction code. The five thread-safe names
// (concurrent-qdlp-fifo, concurrent-clock, concurrent-s3fifo, sharded-lru,
// global-lock-lru) return the engine itself, which implements Cache; with
// a value arena, a lock-free design serves bytes. Every other name is a
// MakePolicy policy behind the one adapter a serial policy needs, because
// EvictionPolicy keeps callers of its own (the sweep, the flash model,
// QdCache, TtlCache).

#ifndef QDLP_SRC_CORE_CACHE_API_H_
#define QDLP_SRC_CORE_CACHE_API_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/concurrent/concurrent_cache.h"
#include "src/trace/trace.h"

namespace qdlp {

struct CacheConfig {
  std::string policy = "qd-lp-fifo";  // MakePolicy name or a concurrent name
  size_t capacity = 0;                // objects; required

  // Concurrent engines only.
  size_t num_stripes = 16;  // striped-index width
  size_t num_shards = 1;    // eviction domains
  int clock_bits = 2;       // concurrent-clock reference-counter width

  // Value serving (requires a lock-free policy: concurrent-qdlp-fifo,
  // concurrent-clock or concurrent-s3fifo): nonzero gives the engine a
  // SlabStore of this many bytes, split across its eviction domains.
  size_t value_arena_bytes = 0;
  size_t max_value_len = 4u << 20;

  // TTL clock, in absolute seconds. Null = wall clock. Tests inject a fake
  // to step time deterministically.
  uint64_t (*now_fn)() = nullptr;

  // Future-request stream for "belady" only.
  const std::vector<ObjectId>* trace = nullptr;
};

// The one factory. Returns nullptr for unknown policy names, for
// value_arena_bytes on a serial policy or an LRU, or when MakePolicy
// itself declines (e.g. "belady" without a trace).
std::unique_ptr<Cache> MakeCache(const CacheConfig& config);

// Replays ids through the unified replay face; returns the hit count.
uint64_t ReplayTrace(Cache& cache, const std::vector<ObjectId>& ids);

}  // namespace qdlp

#endif  // QDLP_SRC_CORE_CACHE_API_H_
