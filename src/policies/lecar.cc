#include "src/policies/lecar.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace qdlp {

template <typename IndexFactory>
BasicLecarPolicy<IndexFactory>::BasicLecarPolicy(size_t capacity,
                                                 std::string name,
                                                 uint64_t seed,
                                                 double learning_rate,
                                                 bool adapt_learning_rate,
                                                 IndexFactory factory)
    : EvictionPolicy(capacity, std::move(name)),
      learning_rate_(learning_rate),
      rng_(seed),
      adapt_learning_rate_(adapt_learning_rate),
      index_(factory.template Make<uint32_t>()) {
  QDLP_CHECK(capacity < kSlotMask);
  discount_ = std::pow(0.005, 1.0 / static_cast<double>(capacity));
  window_length_ = std::max<uint64_t>(100, capacity);
  residents_.Reserve(capacity);
  buckets_.Reserve(capacity);
  // A history holds capacity() records once trimmed, one more in between.
  lru_history_.Reserve(capacity + 1);
  lfu_history_.Reserve(capacity + 1);
  // Residents and both histories, plus a newcomer emplaced before the
  // eviction that makes room for it.
  index_.Reserve(3 * capacity + 1);
}

template <typename IndexFactory>
void BasicLecarPolicy<IndexFactory>::CheckInvariants() const {
  QDLP_CHECK(residents_.size() <= capacity());
  QDLP_CHECK(lru_history_.size() <= capacity());
  QDLP_CHECK(lfu_history_.size() <= capacity());
  QDLP_CHECK(index_.size() ==
             residents_.size() + lru_history_.size() + lfu_history_.size());
  residents_.ForEach([&](SlotId slot, const Resident& resident) {
    const uint32_t* entry = index_.Find(resident.id);
    QDLP_CHECK(entry != nullptr);
    QDLP_CHECK(*entry == Pack(kResident, slot));
  });
  const auto check_history = [&](const History& history, Tag tag) {
    history.CheckInvariants();
    history.ForEach([&](SlotId slot, const Record& record) {
      const uint32_t* entry = index_.Find(record.id);
      QDLP_CHECK(entry != nullptr);
      QDLP_CHECK(*entry == Pack(tag, slot));
      QDLP_CHECK(record.evicted_at <= now());
    });
  };
  check_history(lru_history_, kLruHistory);
  check_history(lfu_history_, kLfuHistory);
  // Buckets ascend strictly, none is empty, and their chains partition the
  // residents.
  size_t chained = 0;
  uint64_t previous_frequency = 0;
  buckets_.ForEach([&](SlotId bucket, const Bucket& b) {
    QDLP_CHECK(b.frequency > previous_frequency);
    previous_frequency = b.frequency;
    QDLP_CHECK(b.head != kNone);
    SlotId prev = kNone;
    for (SlotId slot = b.head; slot != kNone;
         slot = residents_[slot].lfu_next) {
      QDLP_CHECK(residents_[slot].bucket == bucket);
      QDLP_CHECK(residents_[slot].lfu_prev == prev);
      prev = slot;
      ++chained;
      QDLP_CHECK(chained <= residents_.size());
    }
    QDLP_CHECK(prev == b.tail);
  });
  QDLP_CHECK(chained == residents_.size());
  residents_.CheckInvariants();
  buckets_.CheckInvariants();
  index_.CheckInvariants();
}

template <typename IndexFactory>
void BasicLecarPolicy<IndexFactory>::AppendToBucket(SlotId bucket,
                                                    SlotId slot) {
  const SlotId tail = buckets_[bucket].tail;
  Resident& resident = residents_[slot];
  resident.bucket = bucket;
  resident.lfu_prev = tail;
  resident.lfu_next = kNone;
  if (tail != kNone) {
    residents_[tail].lfu_next = slot;
  } else {
    buckets_[bucket].head = slot;
  }
  buckets_[bucket].tail = slot;
}

template <typename IndexFactory>
bool BasicLecarPolicy<IndexFactory>::UnlinkFromBucket(SlotId slot) {
  const Resident& resident = residents_[slot];
  Bucket& bucket = buckets_[resident.bucket];
  if (resident.lfu_prev != kNone) {
    residents_[resident.lfu_prev].lfu_next = resident.lfu_next;
  } else {
    bucket.head = resident.lfu_next;
  }
  if (resident.lfu_next != kNone) {
    residents_[resident.lfu_next].lfu_prev = resident.lfu_prev;
  } else {
    bucket.tail = resident.lfu_prev;
  }
  return bucket.head == kNone;
}

template <typename IndexFactory>
void BasicLecarPolicy<IndexFactory>::Touch(SlotId slot) {
  residents_.MoveToFront(slot);
  const SlotId bucket = residents_[slot].bucket;
  const uint64_t frequency = buckets_[bucket].frequency + 1;
  const bool emptied = UnlinkFromBucket(slot);
  const SlotId next = buckets_.Next(bucket);
  if (next != kNone && buckets_[next].frequency == frequency) {
    if (emptied) {
      buckets_.Erase(bucket);
    }
    AppendToBucket(next, slot);
  } else if (emptied) {
    // It was alone at its frequency: the bucket moves up in place.
    buckets_[bucket].frequency = frequency;
    AppendToBucket(bucket, slot);
  } else {
    AppendToBucket(
        buckets_.InsertAfter(bucket, Bucket{frequency, kNone, kNone}), slot);
  }
}

template <typename IndexFactory>
typename BasicLecarPolicy<IndexFactory>::SlotId
BasicLecarPolicy<IndexFactory>::Admit(ObjectId id) {
  const SlotId slot = residents_.PushFront(Resident{id, kNone, kNone, kNone});
  SlotId lowest = buckets_.front();
  if (lowest == kNone || buckets_[lowest].frequency != 1) {
    lowest = buckets_.PushFront(Bucket{1, kNone, kNone});
  }
  AppendToBucket(lowest, slot);
  return slot;
}

template <typename IndexFactory>
void BasicLecarPolicy<IndexFactory>::UpdateWeights(double& wrong,
                                                   double& other,
                                                   uint64_t evicted_at) {
  // Regret is discounted by the time since the mistaken eviction.
  const double age = static_cast<double>(now() - evicted_at);
  const double reward = std::pow(discount_, age);
  other *= std::exp(learning_rate_ * reward);
  const double total = wrong + other;
  wrong /= total;
  other /= total;
}

template <typename IndexFactory>
void BasicLecarPolicy<IndexFactory>::MaybeAdaptLearningRate() {
  if (window_requests_ < window_length_) {
    return;
  }
  const double hit_rate =
      static_cast<double>(window_hits_) / static_cast<double>(window_requests_);
  if (previous_window_hit_rate_ >= 0.0) {
    if (hit_rate < previous_window_hit_rate_) {
      // Regressed: reverse the search direction and shrink the step.
      rate_direction_ = -rate_direction_;
      learning_rate_ *= (rate_direction_ > 0 ? 1.05 : 0.95);
    } else {
      // Improved (or flat): keep climbing in the same direction.
      learning_rate_ *= (rate_direction_ > 0 ? 1.10 : 0.90);
    }
    learning_rate_ = std::clamp(learning_rate_, 1e-3, 1.0);
    if (learning_rate_ <= 1e-3) {
      // Random restart, as in the CACHEUS reference implementation.
      learning_rate_ = rng_.NextRange(0.05, 0.5);
      rate_direction_ = 1.0;
    }
  }
  previous_window_hit_rate_ = hit_rate;
  window_requests_ = 0;
  window_hits_ = 0;
}

template <typename IndexFactory>
void BasicLecarPolicy<IndexFactory>::Remember(Tag tag, ObjectId id) {
  History& history = tag == kLruHistory ? lru_history_ : lfu_history_;
  *index_.Find(id) = Pack(tag, history.PushBack(Record{id, now()}));
  if (history.size() > capacity()) {
    const SlotId oldest = history.front();
    index_.Erase(history[oldest].id);
    history.Erase(oldest);
  }
}

template <typename IndexFactory>
void BasicLecarPolicy<IndexFactory>::EvictOne() {
  QDLP_DCHECK(!residents_.empty());
  const bool use_lru = rng_.NextDouble() < w_lru_;
  const SlotId slot =
      use_lru ? residents_.back() : buckets_[buckets_.front()].head;
  const ObjectId victim = residents_[slot].id;
  const SlotId bucket = residents_[slot].bucket;
  if (UnlinkFromBucket(slot)) {
    buckets_.Erase(bucket);
  }
  residents_.Erase(slot);
  NotifyEvict(victim);
  Remember(use_lru ? kLruHistory : kLfuHistory, victim);
}

template <typename IndexFactory>
bool BasicLecarPolicy<IndexFactory>::OnAccess(ObjectId id) {
  if (adapt_learning_rate_) {
    ++window_requests_;
    MaybeAdaptLearningRate();
  }
  // One probe: a resident, a history record, or a newcomer emplaced here
  // and given its resident slot below. Only other ids are erased in
  // between, which moves no index slot.
  const auto [entry, inserted] = index_.Emplace(id);
  if (!inserted) {
    const SlotId slot = *entry & kSlotMask;
    switch (TagOf(*entry)) {
      case kResident:
        ++window_hits_;
        Touch(slot);
        return true;
      case kLruHistory: {
        // Mistake feedback: the LRU expert evicted this id.
        const uint64_t evicted_at = lru_history_[slot].evicted_at;
        lru_history_.Erase(slot);
        NotifyGhostHit(id);
        UpdateWeights(w_lru_, w_lfu_, evicted_at);
        break;
      }
      case kLfuHistory: {
        const uint64_t evicted_at = lfu_history_[slot].evicted_at;
        lfu_history_.Erase(slot);
        NotifyGhostHit(id);
        UpdateWeights(w_lfu_, w_lru_, evicted_at);
        break;
      }
    }
  }
  if (residents_.size() == capacity()) {
    EvictOne();
  }
  *entry = Pack(kResident, Admit(id));
  NotifyInsert(id);
  return false;
}

// Compile both index backings once here rather than in every TU.
template class BasicLecarPolicy<FlatIndexFactory>;
template class BasicLecarPolicy<DenseIndexFactory>;

}  // namespace qdlp
