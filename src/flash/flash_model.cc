#include "src/flash/flash_model.h"

#include <cmath>
#include <deque>
#include <utility>

#include "src/core/policy_factory.h"
#include "src/obs/access_event.h"
#include "src/util/check.h"
#include "src/util/flat_map.h"

namespace qdlp {
namespace {

// One written copy of an object. Its generation tells the object's live
// copy from the stale ones an eviction or a re-append left behind.
struct Copy {
  ObjectId id;
  uint64_t generation;
};

// A strictly sequential log: copies are appended to the open segment,
// which is sealed when full, and space is reclaimed a whole segment at a
// time from the oldest end.
class SegmentLog {
 public:
  explicit SegmentLog(size_t segment_objects)
      : segment_objects_(segment_objects) {
    QDLP_CHECK(segment_objects >= 1);
  }

  // Writes a copy of `id` at the head; returns its generation.
  uint64_t Append(ObjectId id) {
    open_.push_back(Copy{id, next_generation_});
    ++copies_;
    if (open_.size() >= segment_objects_) {
      sealed_.push_back(std::exchange(open_, {}));
    }
    return next_generation_++;
  }

  // Erases the oldest sealed segment and returns its copies. With none
  // sealed, the open segment is sealed first (a log shorter than one
  // segment).
  std::vector<Copy> EraseOldest() {
    if (sealed_.empty()) {
      QDLP_CHECK(!open_.empty());
      sealed_.push_back(std::exchange(open_, {}));
    }
    std::vector<Copy> oldest = std::move(sealed_.front());
    sealed_.pop_front();
    copies_ -= oldest.size();
    return oldest;
  }

  // Copies written and not yet erased, live or stale.
  size_t copies() const { return copies_; }

 private:
  size_t segment_objects_;
  std::deque<std::vector<Copy>> sealed_;  // front = oldest
  std::vector<Copy> open_;
  size_t copies_ = 0;
  uint64_t next_generation_ = 0;
};

// FIFO and CLOCK-family flash caches: one append-only log of segments; the
// oldest segment is reclaimed whole. `bits` = 0 gives pure FIFO (drop all);
// bits >= 1 gives k-bit CLOCK with RIPQ-style re-append of referenced
// objects.
class LogFlashCache final : public FlashCache {
 public:
  LogFlashCache(size_t capacity_objects, size_t segment_objects, int bits)
      : name_(bits == 0 ? "flash-fifo"
                        : (bits == 1 ? "flash-clock1" : "flash-clock2")),
        capacity_(capacity_objects),
        log_(segment_objects) {
    QDLP_CHECK(capacity_objects >= 1);
    QDLP_CHECK(segment_objects >= 1 && segment_objects <= capacity_objects);
    QDLP_CHECK(bits >= 0 && bits <= 8);
    max_counter_ = bits == 0 ? 0 : static_cast<uint8_t>((1u << bits) - 1);
    index_.Reserve(capacity_objects + 1);
  }

  bool Access(ObjectId id) override {
    ++stats_.requests;
    if (Entry* entry = index_.Find(id); entry != nullptr) {
      ++stats_.hits;
      if (entry->counter < max_counter_) {
        ++entry->counter;
      }
      return true;
    }
    ++stats_.admissions;
    ++stats_.flash_writes;
    index_[id] = Entry{0, log_.Append(id)};
    while (index_.size() > capacity_) {
      ReclaimOldest();
    }
    return false;
  }

  const FlashStats& stats() const override { return stats_; }
  const std::string& name() const override { return name_; }
  size_t resident() const override { return index_.size(); }

 private:
  struct Entry {
    uint8_t counter;
    uint64_t generation;  // identifies the live log copy
  };

  void ReclaimOldest() {
    ++stats_.segments_erased;
    for (const Copy& copy : log_.EraseOldest()) {
      Entry* entry = index_.Find(copy.id);
      if (entry == nullptr || entry->generation != copy.generation) {
        continue;  // stale copy: the object was evicted or re-homed since
      }
      if (entry->counter == 0) {
        index_.Erase(copy.id);  // evicted with the erase, zero extra writes
        continue;
      }
      // RIPQ-style reinsertion: referenced data must be re-written to the
      // head of the log — this is CLOCK's flash write amplification.
      ++stats_.flash_writes;
      *entry = Entry{static_cast<uint8_t>(entry->counter - 1),
                     log_.Append(copy.id)};
    }
  }

  std::string name_;
  size_t capacity_;
  uint8_t max_counter_;
  FlashStats stats_;
  SegmentLog log_;
  FlatMap<Entry> index_;
};

// Prices a registry policy's events in flash writes. Attached to the
// policy as its event sink, it keeps no queue of its own: its only
// per-object state is where an object's live copy sits on the device.
// Requests and hits come from the terminal OnHit / OnMiss.
class FlashWrites : public AccessEventSink {
 public:
  const FlashStats& stats() const { return stats_; }

  void OnHit(ObjectId, uint64_t) override {
    ++stats_.requests;
    ++stats_.hits;
  }
  void OnMiss(ObjectId, uint64_t) override { ++stats_.requests; }

 protected:
  FlashStats stats_;
};

// QD-LP-FIFO's writes: probation and main are both logs, so an insert, a
// lazy promotion (probation -> main) and a main CLOCK lap each write the
// object once, and a quick demotion writes nothing: the object is dropped
// with its segment, and only the policy's ghost, in RAM, remembers it.
// Erases are counted coarsely, one per segment's worth of probation
// admissions.
class QdLpFlashWrites final : public FlashWrites {
 public:
  explicit QdLpFlashWrites(size_t segment_objects)
      : segment_objects_(segment_objects) {
    QDLP_CHECK(segment_objects >= 1);
  }

  void OnInsert(ObjectId, uint64_t) override {
    ++stats_.admissions;
    ++stats_.flash_writes;
    if (!ghost_hit_ && stats_.admissions % segment_objects_ == 0) {
      ++stats_.segments_erased;
    }
    ghost_hit_ = false;
  }
  void OnPromote(ObjectId, uint64_t) override { ++stats_.flash_writes; }
  void OnLap(ObjectId, uint64_t) override { ++stats_.flash_writes; }
  // The admission that follows goes straight to the main log.
  void OnGhostHit(ObjectId, uint64_t) override { ghost_hit_ = true; }

 private:
  size_t segment_objects_;
  bool ghost_hit_ = false;
};

// Exact LRU on a strictly sequential log (RIPQ's exact mode, FAST'15):
// reclaim always takes the oldest segment, and every object the policy
// still holds must be re-appended at the head. Hot objects are thus
// rewritten once per device lap, which is the write amplification §2's
// sources attribute to LRU-family policies on flash. The device is the
// logical capacity plus one spare segment.
class RipqFlashWrites final : public FlashWrites {
 public:
  RipqFlashWrites(size_t capacity_objects, size_t segment_objects)
      : log_(segment_objects),
        device_slots_(
            ((capacity_objects + segment_objects - 1) / segment_objects + 1) *
            segment_objects) {
    QDLP_CHECK(segment_objects <= capacity_objects);
    live_.Reserve(capacity_objects);
  }

  // The policy dropped `id`: its copy goes stale, freed with its segment.
  void OnEvict(ObjectId id, uint64_t) override { live_.Erase(id); }

  void OnInsert(ObjectId id, uint64_t) override {
    ++stats_.admissions;
    while (log_.copies() + 1 > device_slots_) {
      ReclaimOldest();
    }
    ++stats_.flash_writes;
    live_[id] = log_.Append(id);
  }

 private:
  void ReclaimOldest() {
    ++stats_.segments_erased;
    for (const Copy& copy : log_.EraseOldest()) {
      uint64_t* generation = live_.Find(copy.id);
      if (generation == nullptr || *generation != copy.generation) {
        continue;  // stale copy or evicted: freed with the erase
      }
      // Still held by the policy: re-written at the log head. This is the
      // per-device-lap rewrite of every retained object.
      ++stats_.flash_writes;
      *generation = log_.Append(copy.id);
    }
  }

  SegmentLog log_;  // checks segment_objects >= 1 before it divides below
  size_t device_slots_;
  FlatMap<uint64_t> live_;  // id -> generation of its live copy
};

// LRU with greedy GC: an eviction punches a hole in its segment; when
// free space runs short, the sealed segment with the fewest live copies
// is erased after re-appending them. Cheaper than RIPQ's log, but it
// gives up sequential-only writes. The device has 25% over-provisioning
// plus two spare segments, the classic arrangement that gives GC room to
// breathe.
class GreedyGcFlashWrites final : public FlashWrites {
 public:
  GreedyGcFlashWrites(size_t capacity_objects, size_t segment_objects)
      : segment_objects_(segment_objects) {
    QDLP_CHECK(segment_objects >= 1 && segment_objects <= capacity_objects);
    const size_t device_slots = static_cast<size_t>(
        std::llround(static_cast<double>(capacity_objects) * 1.25));
    segments_.resize((device_slots + segment_objects - 1) / segment_objects +
                     2);
    live_.Reserve(capacity_objects);
  }

  void OnEvict(ObjectId id, uint64_t) override {
    // Punch a hole: the copy stays written until its segment is collected.
    Location evicted{};
    const bool had_copy = live_.Erase(id, &evicted);
    QDLP_CHECK(had_copy);
    --segments_[evicted.segment].live;
  }

  void OnInsert(ObjectId id, uint64_t) override {
    ++stats_.admissions;
    CollectIfNeeded();
    ++stats_.flash_writes;
    Append(id);
  }

 private:
  struct Segment {
    std::vector<Copy> copies;  // sealed once full
    size_t live = 0;
  };
  struct Location {
    size_t segment;
    uint64_t generation;  // identifies the live copy
  };

  // Writes `id`'s copy into the open segment and records it as live.
  void Append(ObjectId id) {
    Segment& open = segments_[open_segment_];
    open.copies.push_back(Copy{id, next_generation_});
    ++open.live;
    ++copies_;
    live_[id] = Location{open_segment_, next_generation_++};
    if (open.copies.size() < segment_objects_) {
      return;
    }
    // Sealed: open the first empty segment, or a new one.
    for (size_t i = 0; i < segments_.size(); ++i) {
      if (segments_[i].copies.empty()) {
        open_segment_ = i;
        return;
      }
    }
    segments_.emplace_back();
    open_segment_ = segments_.size() - 1;
  }

  void CollectIfNeeded() {
    const size_t device_slots = segments_.size() * segment_objects_;
    while (device_slots - copies_ < segment_objects_) {
      // Greedy victim: the sealed segment with the fewest live copies.
      size_t victim = segments_.size();
      size_t victim_live = segment_objects_ + 1;
      for (size_t i = 0; i < segments_.size(); ++i) {
        if (segments_[i].copies.size() == segment_objects_ &&
            segments_[i].live < victim_live) {
          victim_live = segments_[i].live;
          victim = i;
        }
      }
      QDLP_CHECK(victim < segments_.size());
      if (victim_live >= segment_objects_) {
        // No dead copies anywhere: GC cannot make progress (should not
        // happen with over-provisioning and a logical capacity below
        // device size).
        return;
      }
      // Erase, then re-append the live copies: LRU's write amplification.
      const std::vector<Copy> copies =
          std::exchange(segments_[victim].copies, {});
      segments_[victim].live = 0;
      copies_ -= copies.size();
      ++stats_.segments_erased;
      for (const Copy& copy : copies) {
        const Location* location = live_.Find(copy.id);
        if (location != nullptr && location->generation == copy.generation) {
          ++stats_.flash_writes;
          Append(copy.id);
        }
      }
    }
  }

  size_t segment_objects_;
  std::vector<Segment> segments_;
  size_t open_segment_ = 0;
  size_t copies_ = 0;  // live + dead copies across all segments
  uint64_t next_generation_ = 0;
  FlatMap<Location> live_;
};

// A registry policy on flash: MakePolicy(policy) makes every decision and
// `writes`, its event sink, prices them.
class PolicyFlashCache final : public FlashCache {
 public:
  PolicyFlashCache(std::string name, const std::string& policy,
                   size_t capacity_objects,
                   std::unique_ptr<FlashWrites> writes)
      : name_(std::move(name)),
        writes_(std::move(writes)),
        policy_(MakePolicy(policy, capacity_objects)) {
    policy_->set_event_sink(writes_.get());
  }

  bool Access(ObjectId id) override { return policy_->Access(id); }
  const FlashStats& stats() const override { return writes_->stats(); }
  const std::string& name() const override { return name_; }
  size_t resident() const override { return policy_->size(); }

 private:
  std::string name_;
  std::unique_ptr<FlashWrites> writes_;
  std::unique_ptr<EvictionPolicy> policy_;  // destroyed before its sink
};

}  // namespace

std::vector<std::unique_ptr<FlashCache>> MakeFlashDesigns(
    size_t capacity_objects, size_t segment_objects) {
  std::vector<std::unique_ptr<FlashCache>> designs;
  for (const int bits : {0, 1, 2}) {
    designs.push_back(std::make_unique<LogFlashCache>(capacity_objects,
                                                      segment_objects, bits));
  }
  designs.push_back(std::make_unique<PolicyFlashCache>(
      "flash-qd-lp-fifo", "qd-lp-fifo", capacity_objects,
      std::make_unique<QdLpFlashWrites>(segment_objects)));
  designs.push_back(std::make_unique<PolicyFlashCache>(
      "flash-lru-ripq", "lru", capacity_objects,
      std::make_unique<RipqFlashWrites>(capacity_objects, segment_objects)));
  designs.push_back(std::make_unique<PolicyFlashCache>(
      "flash-lru", "lru", capacity_objects,
      std::make_unique<GreedyGcFlashWrites>(capacity_objects,
                                            segment_objects)));
  return designs;
}

}  // namespace qdlp
