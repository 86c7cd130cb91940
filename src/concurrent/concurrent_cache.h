// Thread-safe cache interface for the throughput/scalability experiments.
//
// The paper's motivation (§1, §2): each LRU hit updates six pointers under a
// lock, while FIFO/CLOCK hits touch at most one small counter and need no
// exclusive lock, so FIFO-family caches are faster and scale with cores.
// These implementations make that concrete:
//
//  * ShardedLruCache      — N shards, each the serial LruPolicy behind its
//                           own mutex (the common mitigation); with one
//                           shard it is the global-lock LRU, the naive
//                           memcached-style design the paper argues against
//  * ConcurrentClockCache — lock-free hit path (striped atomic index + one
//                           relaxed RMW on a reference counter); misses
//                           batch behind hash-selected eviction-domain
//                           mutexes
//  * ConcurrentS3FifoCache— same hit path over S3-FIFO's two queues + ghost
//  * ConcurrentQdLpFifo   — QD-LP-FIFO (probationary FIFO + ghost + 2-bit
//                           CLOCK main) as a concurrent cache
//
// The last three are one skeleton, DomainCache<Regions>
// (eviction_domains.h), each supplying only its queues.
//
// Get() is get-or-admit: returns true on hit, and on miss admits the id
// (evicting if needed), mirroring EvictionPolicy::Access.
//
// ConcurrentCache shares the CacheObservable surface (name/capacity/Stats/
// ApproxMetadataBytes/CheckInvariants) with the sequential EvictionPolicy
// hierarchy, so the bench JSON writer and the stats report consume one type.
// Telemetry in the lock-free caches is kept in striped, cache-line-exclusive
// relaxed atomics (src/obs/concurrent_counters.h); the LRU caches count in
// each shard's LruPolicy, under the shard lock. There is deliberately NO
// AccessEventSink on this hierarchy: a virtual call per event would poison
// the lock-free hit path the paper's throughput argument rests on — Stats()
// snapshots are the concurrent observability surface.

#ifndef QDLP_SRC_CONCURRENT_CONCURRENT_CACHE_H_
#define QDLP_SRC_CONCURRENT_CONCURRENT_CACHE_H_

#include <cstddef>

#include "src/obs/cache_observable.h"
#include "src/trace/trace.h"

namespace qdlp {

// The outcome of a value write: DomainCache::SetValue's, and Cache::Set's.
enum class SetStatus {
  kOk,
  kNoSpace,   // value arena cannot hold the bytes even after eviction
  kTooLarge,  // value exceeds the engine's max value length
};

class ConcurrentCache : public CacheObservable {
 public:
  // Returns true on hit; admits on miss. Thread-safe.
  virtual bool Get(ObjectId id) = 0;

  // Get with guaranteed admission: identical semantics and counting to
  // Get(), except that a miss blocks on the home-domain lock (exactly like
  // Remove()) instead of deferring to the best-effort insert buffers — so
  // the id is resident when the call returns (until a later eviction or
  // removal). Serving writes (cache_api Set) route here: a SET must not
  // silently admit nothing under contention. Uncontended, this is
  // indistinguishable from Get().
  virtual bool Admit(ObjectId id) = 0;

  // User-controlled removal (§2, Fig 1). Returns true if the object was
  // resident and has been removed; thread-safe, and required of every
  // implementation — there is no "declines removal" escape hatch. The
  // lock-free caches unlink under the id's home-domain mutex (the same
  // serialization their miss path uses), so removal composes with the
  // lock-free hit path exactly like an eviction does. Removals count as
  // evictions in Stats().
  virtual bool Remove(ObjectId id) = 0;

  // CacheObservable reminders (see src/obs/cache_observable.h):
  //  * Stats() must be safe to call concurrently with Get() — sum striped
  //    atomics, take only cold locks for occupancy fields.
  //  * CheckInvariants() takes the cache's locks, so it is safe to call
  //    concurrently with Get(), but it is O(size) and intended for tests —
  //    call it at quiescent points (e.g. after joining worker threads).
};

}  // namespace qdlp

#endif  // QDLP_SRC_CONCURRENT_CONCURRENT_CACHE_H_
