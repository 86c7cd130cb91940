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
// Uniform object sizes (the paper's model): capacities and segment sizes
// are in objects, and WA equals flash object-writes / admissions.

#ifndef QDLP_SRC_FLASH_FLASH_MODEL_H_
#define QDLP_SRC_FLASH_FLASH_MODEL_H_

#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/ghost_queue.h"
#include "src/trace/trace.h"
#include "src/util/check.h"

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
};

// FIFO and CLOCK-family flash caches: one append-only log of segments; the
// oldest segment is reclaimed whole. `bits` = 0 gives pure FIFO (drop all);
// bits >= 1 gives k-bit CLOCK with RIPQ-style re-append of referenced
// objects.
class LogFlashCache : public FlashCache {
 public:
  LogFlashCache(size_t capacity_objects, size_t segment_objects, int bits);

  bool Access(ObjectId id) override;
  const FlashStats& stats() const override { return stats_; }
  const std::string& name() const override { return name_; }

  size_t resident() const { return index_.size(); }

 private:
  struct Entry {
    uint8_t counter = 0;
    uint64_t generation = 0;  // identifies the live log copy
  };
  struct Slot {
    ObjectId id;
    uint64_t generation;
  };

  void ReclaimOldest();
  void Append(ObjectId id, uint8_t counter);

  std::string name_;
  size_t capacity_;
  size_t segment_objects_;
  uint8_t max_counter_;
  FlashStats stats_;

  std::deque<std::vector<Slot>> segments_;  // front = oldest sealed
  std::vector<Slot> open_segment_;
  std::unordered_map<ObjectId, Entry> index_;
  uint64_t next_generation_ = 0;
};

// LRU-on-flash: logical LRU eviction punches holes in segments; space is
// reclaimed by greedy GC (segment with the fewest live objects), which
// re-appends live-and-not-evicted objects. This is the design the paper
// says flash caches avoid.
class LruFlashCache : public FlashCache {
 public:
  LruFlashCache(size_t capacity_objects, size_t segment_objects);

  bool Access(ObjectId id) override;
  const FlashStats& stats() const override { return stats_; }
  const std::string& name() const override { return name_; }

  size_t resident() const { return index_.size(); }

 private:
  struct Slot {
    ObjectId id;
    uint64_t generation;
  };
  struct Segment {
    std::vector<Slot> slots;  // written copies; holes tracked via live count
    size_t live = 0;
    bool sealed = false;
  };
  struct Entry {
    size_t segment;
    uint64_t generation;  // identifies the live copy
    std::list<ObjectId>::iterator lru_position;
  };

  uint64_t AppendToOpen(ObjectId id);  // returns the copy generation
  void EvictLogicalLru();
  void GarbageCollectIfNeeded();

  std::string name_;
  size_t capacity_;
  size_t segment_objects_;
  FlashStats stats_;

  std::vector<std::unique_ptr<Segment>> segments_;
  size_t open_segment_ = 0;
  size_t flash_slots_used_ = 0;  // live + dead slots across sealed+open
  std::list<ObjectId> mru_list_;  // front = MRU
  std::unordered_map<ObjectId, Entry> index_;
  uint64_t next_generation_ = 0;
};

// Exact LRU on a strictly-sequential log (RIPQ's exact mode, FAST'15):
// reclaim always takes the oldest segment, and every object that LRU wants
// to keep — i.e. every live object, since live means "within the retained
// LRU prefix" — must be re-appended at the head. Hot objects are thus
// rewritten once per device lap, which is the write amplification §2's
// sources attribute to LRU-family policies on flash. (Contrast with
// LruFlashCache's greedy hole-collecting GC, which is cheaper but gives up
// sequential-only writes.)
class RipqLruFlashCache : public FlashCache {
 public:
  RipqLruFlashCache(size_t capacity_objects, size_t segment_objects);

  bool Access(ObjectId id) override;
  const FlashStats& stats() const override { return stats_; }
  const std::string& name() const override { return name_; }

  size_t resident() const { return index_.size(); }

 private:
  struct Slot {
    ObjectId id;
    uint64_t generation;
  };
  struct Entry {
    uint64_t generation;
    std::list<ObjectId>::iterator lru_position;
  };

  void Append(ObjectId id);
  void ReclaimOldest();

  std::string name_;
  size_t capacity_;
  size_t segment_objects_;
  size_t device_slots_;
  size_t slots_used_ = 0;
  FlashStats stats_;

  std::deque<std::vector<Slot>> segments_;  // front = oldest sealed
  std::vector<Slot> open_segment_;
  std::list<ObjectId> mru_list_;  // front = MRU
  std::unordered_map<ObjectId, Entry> index_;
  uint64_t next_generation_ = 0;
};

// QD-LP-FIFO on flash: a small probation log + main CLOCK log, each
// segment-structured; the ghost is RAM metadata (free). The split and the
// ghost (a GhostQueue) are MakePolicy("qd-lp-fifo")'s, so both make the
// same decisions.
class QdLpFlashCache : public FlashCache {
 public:
  QdLpFlashCache(size_t capacity_objects, size_t segment_objects,
                 double probation_fraction = 0.10);

  bool Access(ObjectId id) override;
  const FlashStats& stats() const override { return stats_; }
  const std::string& name() const override { return name_; }

 private:
  // Both queues are deque-modelled logs; per-object reclaim produces the
  // same write counts as per-segment reclaim for FIFO-family designs, so
  // segment granularity only shows up in the (coarse) erase statistic.
  struct Entry {
    bool in_probation;
    uint8_t counter;  // probation: accessed bit; main: CLOCK counter
  };

  void ReclaimProbation();
  void ReclaimMain();

  std::string name_;
  size_t probation_capacity_;
  size_t main_capacity_;
  size_t segment_objects_;
  FlashStats stats_;

  std::deque<ObjectId> probation_;
  std::deque<ObjectId> main_;
  std::unordered_map<ObjectId, Entry> index_;
  GhostQueue ghost_{0};  // as many entries as the main log
};

}  // namespace qdlp

#endif  // QDLP_SRC_FLASH_FLASH_MODEL_H_
