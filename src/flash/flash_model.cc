#include "src/flash/flash_model.h"

#include <cmath>

#include "src/concurrent/concurrent_qdlp_fifo.h"

namespace qdlp {

// ---------------------------------------------------------------- LogFlash

LogFlashCache::LogFlashCache(size_t capacity_objects, size_t segment_objects,
                             int bits)
    : capacity_(capacity_objects), segment_objects_(segment_objects) {
  QDLP_CHECK(capacity_objects >= 1);
  QDLP_CHECK(segment_objects >= 1 && segment_objects <= capacity_objects);
  QDLP_CHECK(bits >= 0 && bits <= 8);
  max_counter_ = bits == 0 ? 0 : static_cast<uint8_t>((1u << bits) - 1);
  name_ = bits == 0 ? "flash-fifo"
                    : (bits == 1 ? "flash-clock1" : "flash-clock2");
  open_segment_.reserve(segment_objects);
}

void LogFlashCache::Append(ObjectId id, uint8_t counter) {
  const uint64_t generation = next_generation_++;
  open_segment_.push_back(Slot{id, generation});
  index_[id] = Entry{counter, generation};
  if (open_segment_.size() >= segment_objects_) {
    segments_.push_back(std::move(open_segment_));
    open_segment_.clear();
    open_segment_.reserve(segment_objects_);
  }
}

void LogFlashCache::ReclaimOldest() {
  if (segments_.empty()) {
    // Everything still sits in the open segment; seal it so it can be the
    // reclaim victim (degenerate tiny-cache case).
    QDLP_CHECK(!open_segment_.empty());
    segments_.push_back(std::move(open_segment_));
    open_segment_.clear();
    open_segment_.reserve(segment_objects_);
  }
  const std::vector<Slot> victim_segment = std::move(segments_.front());
  segments_.pop_front();
  ++stats_.segments_erased;
  for (const Slot& slot : victim_segment) {
    const ObjectId id = slot.id;
    const auto it = index_.find(id);
    if (it == index_.end() || it->second.generation != slot.generation) {
      continue;  // stale copy: the object was evicted or re-homed since
    }
    if (it->second.counter == 0) {
      index_.erase(it);  // evicted with the erase, zero extra writes
    } else {
      // RIPQ-style reinsertion: referenced data must be re-written to the
      // head of the log — this is CLOCK's flash write amplification.
      const uint8_t counter = it->second.counter - 1;
      index_.erase(it);
      ++stats_.flash_writes;
      Append(id, counter);
    }
  }
}

bool LogFlashCache::Access(ObjectId id) {
  ++stats_.requests;
  const auto it = index_.find(id);
  if (it != index_.end()) {
    ++stats_.hits;
    if (it->second.counter < max_counter_) {
      ++it->second.counter;
    }
    return true;
  }
  ++stats_.admissions;
  ++stats_.flash_writes;
  Append(id, 0);
  while (index_.size() > capacity_) {
    ReclaimOldest();
  }
  return false;
}

// ---------------------------------------------------------------- LruFlash

LruFlashCache::LruFlashCache(size_t capacity_objects, size_t segment_objects)
    : name_("flash-lru"),
      capacity_(capacity_objects),
      segment_objects_(segment_objects) {
  QDLP_CHECK(capacity_objects >= 1);
  QDLP_CHECK(segment_objects >= 1 && segment_objects <= capacity_objects);
  // 25% over-provisioning plus two spare segments, the classic arrangement
  // that gives GC room to breathe.
  const size_t device_slots = static_cast<size_t>(
      std::llround(static_cast<double>(capacity_objects) * 1.25));
  const size_t device_segments =
      (device_slots + segment_objects - 1) / segment_objects + 2;
  segments_.reserve(device_segments);
  for (size_t i = 0; i < device_segments; ++i) {
    segments_.push_back(std::make_unique<Segment>());
  }
  open_segment_ = 0;
}

uint64_t LruFlashCache::AppendToOpen(ObjectId id) {
  Segment& open = *segments_[open_segment_];
  QDLP_DCHECK(!open.sealed);
  const uint64_t generation = next_generation_++;
  open.slots.push_back(Slot{id, generation});
  ++open.live;
  ++flash_slots_used_;
  if (open.slots.size() >= segment_objects_) {
    open.sealed = true;
    // Find (or make) an empty segment to open next.
    bool found = false;
    for (size_t i = 0; i < segments_.size(); ++i) {
      if (segments_[i]->slots.empty() && !segments_[i]->sealed) {
        open_segment_ = i;
        found = true;
        break;
      }
    }
    if (!found) {
      segments_.push_back(std::make_unique<Segment>());
      open_segment_ = segments_.size() - 1;
    }
  }
  return generation;
}

void LruFlashCache::EvictLogicalLru() {
  QDLP_DCHECK(!mru_list_.empty());
  const ObjectId victim = mru_list_.back();
  mru_list_.pop_back();
  const auto it = index_.find(victim);
  QDLP_DCHECK(it != index_.end());
  // Punch a hole: the slot stays written until its segment is GC'd.
  --segments_[it->second.segment]->live;
  index_.erase(it);
}

void LruFlashCache::GarbageCollectIfNeeded() {
  const size_t device_slots = segments_.size() * segment_objects_;
  while (device_slots - flash_slots_used_ < segment_objects_) {
    // Greedy victim: sealed segment with the fewest live objects.
    size_t victim_index = segments_.size();
    size_t victim_live = segment_objects_ + 1;
    for (size_t i = 0; i < segments_.size(); ++i) {
      const Segment& segment = *segments_[i];
      if (!segment.sealed || segment.slots.empty()) {
        continue;
      }
      if (segment.live < victim_live) {
        victim_live = segment.live;
        victim_index = i;
      }
    }
    QDLP_CHECK(victim_index < segments_.size());
    if (victim_live >= segment_objects_) {
      // No dead slots anywhere: GC cannot make progress (should not happen
      // with over-provisioning and a logical capacity below device size).
      return;
    }
    // Relocate live objects, then erase.
    Segment& victim = *segments_[victim_index];
    std::vector<ObjectId> survivors;
    survivors.reserve(victim.live);
    for (const Slot& slot : victim.slots) {
      const auto it = index_.find(slot.id);
      if (it != index_.end() && it->second.generation == slot.generation) {
        survivors.push_back(slot.id);
      }
    }
    flash_slots_used_ -= victim.slots.size();
    victim.slots.clear();
    victim.live = 0;
    victim.sealed = false;
    ++stats_.segments_erased;
    for (const ObjectId id : survivors) {
      ++stats_.flash_writes;  // GC re-write: LRU's write amplification
      const size_t destination_before = open_segment_;
      const uint64_t generation = AppendToOpen(id);
      Entry& entry = index_.at(id);
      entry.segment = destination_before;
      entry.generation = generation;
    }
  }
}

bool LruFlashCache::Access(ObjectId id) {
  ++stats_.requests;
  const auto it = index_.find(id);
  if (it != index_.end()) {
    ++stats_.hits;
    mru_list_.splice(mru_list_.begin(), mru_list_, it->second.lru_position);
    return true;
  }
  ++stats_.admissions;
  while (index_.size() >= capacity_) {
    EvictLogicalLru();
  }
  GarbageCollectIfNeeded();
  ++stats_.flash_writes;
  const size_t destination = open_segment_;
  const uint64_t generation = AppendToOpen(id);
  mru_list_.push_front(id);
  index_[id] = Entry{destination, generation, mru_list_.begin()};
  return false;
}

// -------------------------------------------------------------- RipqLruFlash

RipqLruFlashCache::RipqLruFlashCache(size_t capacity_objects,
                                     size_t segment_objects)
    : name_("flash-lru-ripq"),
      capacity_(capacity_objects),
      segment_objects_(segment_objects) {
  QDLP_CHECK(capacity_objects >= 1);
  QDLP_CHECK(segment_objects >= 1 && segment_objects <= capacity_objects);
  // Device = logical capacity plus one spare segment of headroom; writes
  // are strictly sequential (append at the head, reclaim at the tail).
  device_slots_ =
      ((capacity_objects + segment_objects - 1) / segment_objects + 1) *
      segment_objects;
  open_segment_.reserve(segment_objects);
}

void RipqLruFlashCache::Append(ObjectId id) {
  const uint64_t generation = next_generation_++;
  open_segment_.push_back(Slot{id, generation});
  ++slots_used_;
  index_.at(id).generation = generation;
  if (open_segment_.size() >= segment_objects_) {
    segments_.push_back(std::move(open_segment_));
    open_segment_.clear();
    open_segment_.reserve(segment_objects_);
  }
}

void RipqLruFlashCache::ReclaimOldest() {
  QDLP_CHECK(!segments_.empty());
  const std::vector<Slot> victim = std::move(segments_.front());
  segments_.pop_front();
  slots_used_ -= victim.size();
  ++stats_.segments_erased;
  for (const Slot& slot : victim) {
    const auto it = index_.find(slot.id);
    if (it == index_.end() || it->second.generation != slot.generation) {
      continue;  // stale copy or logically evicted: freed with the erase
    }
    // Still wanted by LRU: must be re-written at the log head. This is the
    // per-device-lap rewrite of every retained object.
    ++stats_.flash_writes;
    Append(slot.id);
  }
}

bool RipqLruFlashCache::Access(ObjectId id) {
  ++stats_.requests;
  const auto it = index_.find(id);
  if (it != index_.end()) {
    ++stats_.hits;
    mru_list_.splice(mru_list_.begin(), mru_list_, it->second.lru_position);
    return true;
  }
  ++stats_.admissions;
  // Logical eviction first (metadata only; the flash copy becomes stale).
  while (index_.size() >= capacity_) {
    const ObjectId victim = mru_list_.back();
    mru_list_.pop_back();
    index_.erase(victim);
  }
  // Physical space: reclaim from the tail until the new object fits.
  while (slots_used_ + 1 > device_slots_) {
    ReclaimOldest();
  }
  ++stats_.flash_writes;
  mru_list_.push_front(id);
  index_[id] = Entry{0, mru_list_.begin()};
  Append(id);
  return false;
}

// ---------------------------------------------------------------- QdLpFlash

QdLpFlashCache::QdLpFlashCache(size_t capacity_objects, size_t segment_objects,
                               double probation_fraction)
    : name_("flash-qd-lp-fifo"), segment_objects_(segment_objects) {
  QDLP_CHECK(capacity_objects >= 2);
  QDLP_CHECK(probation_fraction > 0.0 && probation_fraction < 1.0);
  probation_capacity_ =
      QdProbationCapacity(capacity_objects, probation_fraction);
  main_capacity_ = capacity_objects - probation_capacity_;
  ghost_ = GhostQueue(main_capacity_);
}

void QdLpFlashCache::ReclaimMain() {
  while (true) {
    QDLP_DCHECK(!main_.empty());
    const ObjectId candidate = main_.front();
    main_.pop_front();
    auto it = index_.find(candidate);
    QDLP_DCHECK(it != index_.end() && !it->second.in_probation);
    if (it->second.counter > 0) {
      --it->second.counter;
      ++stats_.flash_writes;  // reinsertion = re-append to the main log
      main_.push_back(candidate);
      continue;
    }
    index_.erase(it);
    return;
  }
}

void QdLpFlashCache::ReclaimProbation() {
  QDLP_DCHECK(!probation_.empty());
  const ObjectId victim = probation_.front();
  probation_.pop_front();
  const auto it = index_.find(victim);
  QDLP_DCHECK(it != index_.end() && it->second.in_probation);
  const bool accessed = it->second.counter > 0;
  index_.erase(it);
  if (accessed) {
    // Lazy promotion: one re-write moves it into the main log.
    while (main_.size() >= main_capacity_) {
      ReclaimMain();
    }
    ++stats_.flash_writes;
    main_.push_back(victim);
    index_[victim] = Entry{false, 0};
  } else {
    // Quick demotion: dropped with its segment, zero extra writes; only the
    // (RAM) ghost remembers it.
    ghost_.Insert(victim);
  }
}

bool QdLpFlashCache::Access(ObjectId id) {
  ++stats_.requests;
  const auto it = index_.find(id);
  if (it != index_.end()) {
    ++stats_.hits;
    if (it->second.in_probation) {
      it->second.counter = 1;
    } else if (it->second.counter < 3) {
      ++it->second.counter;
    }
    return true;
  }
  ++stats_.admissions;
  if (ghost_.Consume(id)) {
    // Demoted too fast once: admit straight into the main log.
    while (main_.size() >= main_capacity_) {
      ReclaimMain();
    }
    ++stats_.flash_writes;
    main_.push_back(id);
    index_[id] = Entry{false, 0};
    return false;
  }
  while (probation_.size() >= probation_capacity_) {
    ReclaimProbation();
  }
  ++stats_.flash_writes;
  probation_.push_back(id);
  index_[id] = Entry{true, 0};
  if ((stats_.admissions % segment_objects_) == 0) {
    ++stats_.segments_erased;  // coarse erase accounting for reporting
  }
  return false;
}

}  // namespace qdlp
