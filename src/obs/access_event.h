// AccessEventSink — per-event observation hook for the sequential policies.
//
// Generalizes (and replaces) the old two-method EvictionListener: a sink
// sees the full event vocabulary of the paper's cache model — hit, miss,
// admission, eviction, lazy promotion, quick demotion, ghost resurrection —
// each stamped with the policy's logical clock (one tick per access).
//
// Cost contract: with no sink attached the Release hot path pays one
// predictable branch per event site (`sink_ != nullptr`, always false), so
// always-on stats stay free; with a sink attached every event is a virtual
// call, which is the price of per-event observation and why the simulator's
// residency accounting (src/sim/residency.h) is the intended kind of user,
// not production hot paths.
//
// Event order within one Access(): policy-internal events (insert, evict,
// promote, demote, ghost-hit, lap) fire as the policy performs them; the
// terminal OnHit/OnMiss for the access fires last, after the policy has
// settled. All methods default to no-ops so sinks override only what they
// observe.
//
// OnLap is the one sink-only event: no Stats() counter counts it. It
// reports QD-LP-FIFO's main-region CLOCK laps, which keep an object in
// place and so are not promotions, but which a log-structured device pays
// for as a re-append (the flash model, src/flash/flash_model.h).
//
// The concurrent caches intentionally do NOT carry this hook: their hit
// path is lock-free and a per-hit virtual call would serialize exactly the
// cache line the design keeps private. They expose the same numbers through
// striped counters and Stats() instead (see docs/OBSERVABILITY.md).

#ifndef QDLP_SRC_OBS_ACCESS_EVENT_H_
#define QDLP_SRC_OBS_ACCESS_EVENT_H_

#include <cstdint>

#include "src/trace/trace.h"

namespace qdlp {

class AccessEventSink {
 public:
  virtual ~AccessEventSink() = default;

  // `id` was requested at logical time `time` and was resident.
  virtual void OnHit(ObjectId id, uint64_t time) {
    (void)id;
    (void)time;
  }
  // `id` was requested at logical time `time` and was not resident.
  virtual void OnMiss(ObjectId id, uint64_t time) {
    (void)id;
    (void)time;
  }
  // `id` was admitted into cache space.
  virtual void OnInsert(ObjectId id, uint64_t time) {
    (void)id;
    (void)time;
  }
  // `id` left cache space (eviction or user removal).
  virtual void OnEvict(ObjectId id, uint64_t time) {
    (void)id;
    (void)time;
  }
  // `id` was lazily promoted: probation→main, a CLOCK reinsertion/second
  // chance, or an LRU-family move-to-front. The object keeps its space.
  virtual void OnPromote(ObjectId id, uint64_t time) {
    (void)id;
    (void)time;
  }
  // `id` was quick-demoted out of probation (an OnEvict for the same id
  // follows from the same event site).
  virtual void OnDemote(ObjectId id, uint64_t time) {
    (void)id;
    (void)time;
  }
  // A miss for `id` matched a ghost entry (the subsequent admission goes
  // straight to the main region; OnInsert follows).
  virtual void OnGhostHit(ObjectId id, uint64_t time) {
    (void)id;
    (void)time;
  }
  // QD-LP-FIFO's main CLOCK hand passed `id` with a non-zero counter:
  // the counter drops by one and `id` keeps its slot for another lap.
  // Sink-only; not a promotion.
  virtual void OnLap(ObjectId id, uint64_t time) {
    (void)id;
    (void)time;
  }
};

}  // namespace qdlp

#endif  // QDLP_SRC_OBS_ACCESS_EVENT_H_
