// Log-structured flash-cache model: quantifying §2's flash-friendliness
// argument ("FIFO is always the first choice when implementing a flash
// cache because it does not incur write amplification").
//
// Flash is written in large append-only segments and erased in segments;
// a flash cache therefore writes admitted objects to an open segment and
// reclaims space a whole segment at a time. How an eviction design maps
// onto that medium determines its *device write amplification*
// (flash bytes written / bytes admitted):
//
//  * FIFO        — reclaim the oldest segment, drop everything: WA = 1.
//  * CLOCK / LP  — reclaim the oldest segment, but re-append objects whose
//                  reference bit is set (RIPQ-style reinsertion):
//                  WA = 1 + (fraction re-appended).
//  * LRU         — logical LRU order is unrelated to segment order, so
//                  evictions punch holes; reclaiming space means GC: pick
//                  the segment with the most holes and re-append its live
//                  objects. WA grows with how scattered the live data is.
//  * QD-LP-FIFO  — probation and main are both FIFO logs; quick-demoted
//                  objects are dropped with their segment, promotions and
//                  CLOCK survivors are re-appended.
//
// FIFO and CLOCK reclaim a whole segment at a time, which changes their
// decisions, so they make their own. QD-LP-FIFO and both LRUs decide
// exactly as MakePolicy("qd-lp-fifo") and MakePolicy("lru") do: each runs
// that registry policy with an AccessEventSink attached, and the sink only
// prices the policy's events in device writes (flash_model.cc).
//
// Uniform object sizes (the paper's model): capacities and segment sizes
// are in objects, and WA equals flash object-writes / admissions.

#ifndef QDLP_SRC_FLASH_FLASH_MODEL_H_
#define QDLP_SRC_FLASH_FLASH_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/trace/trace.h"

namespace qdlp {

struct FlashStats {
  uint64_t requests = 0;
  uint64_t hits = 0;
  uint64_t admissions = 0;      // objects first written on a miss
  uint64_t flash_writes = 0;    // total object-writes to flash (>= admissions)
  uint64_t segments_erased = 0;

  double miss_ratio() const {
    return requests == 0
               ? 0.0
               : 1.0 - static_cast<double>(hits) / static_cast<double>(requests);
  }
  // Device write amplification.
  double write_amplification() const {
    return admissions == 0 ? 0.0
                           : static_cast<double>(flash_writes) /
                                 static_cast<double>(admissions);
  }
};

// Common interface: a flash cache replays a uniform-size trace and reports
// miss ratio plus write amplification.
class FlashCache {
 public:
  virtual ~FlashCache() = default;
  virtual bool Access(ObjectId id) = 0;
  virtual const FlashStats& stats() const = 0;
  virtual const std::string& name() const = 0;
  // Objects holding cache space.
  virtual size_t resident() const = 0;
};

// The six designs, in bench/flash_write_amp's row order: flash-fifo,
// flash-clock1 and flash-clock2 (LogFlashCache, 0 to 2 CLOCK bits),
// flash-qd-lp-fifo, flash-lru-ripq (RIPQ's exact LRU) and flash-lru (LRU
// with greedy GC).
std::vector<std::unique_ptr<FlashCache>> MakeFlashDesigns(
    size_t capacity_objects, size_t segment_objects);

}  // namespace qdlp

#endif  // QDLP_SRC_FLASH_FLASH_MODEL_H_
