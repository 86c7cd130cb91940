#include "src/policies/lirs.h"

#include <algorithm>
#include <cmath>

namespace qdlp {

template <typename IndexFactory>
BasicLirsPolicy<IndexFactory>::BasicLirsPolicy(size_t capacity,
                                               double hir_fraction,
                                               double max_nonresident_factor,
                                               IndexFactory factory)
    : EvictionPolicy(capacity, "lirs"),
      index_(factory.template Make<Entry>()) {
  QDLP_CHECK(hir_fraction > 0.0 && hir_fraction < 1.0);
  QDLP_CHECK(max_nonresident_factor >= 1.0);
  hir_capacity_ = std::max<size_t>(
      1, static_cast<size_t>(std::lround(static_cast<double>(capacity) *
                                         hir_fraction)));
  hir_capacity_ = std::min(hir_capacity_, capacity - 1 > 0 ? capacity - 1 : 1);
  lir_capacity_ = capacity > hir_capacity_ ? capacity - hir_capacity_ : 1;
  max_nonresident_ = static_cast<size_t>(
      std::lround(static_cast<double>(capacity) * max_nonresident_factor));
  queue_.Reserve(hir_capacity_);
  // Residents plus the bounded non-resident metadata.
  index_.Reserve(capacity + max_nonresident_);
}

template <typename IndexFactory>
bool BasicLirsPolicy<IndexFactory>::StackBottomIsLir() const {
  if (stack_.empty()) {
    return true;
  }
  return index_.Find(stack_[stack_.back()])->state == State::kLir;
}

template <typename IndexFactory>
void BasicLirsPolicy<IndexFactory>::CheckInvariants() const {
  QDLP_CHECK(resident_count_ <= capacity());
  QDLP_CHECK(lir_count_ <= lir_capacity_);
  QDLP_CHECK(nonresident_count_ <= max_nonresident_);
  QDLP_CHECK(StackBottomIsLir());
  // Recount states from the index and cross-check the cached tallies.
  size_t lir = 0;
  size_t hir_resident = 0;
  size_t hir_nonresident = 0;
  size_t flagged_in_stack = 0;
  index_.ForEach([&](ObjectId, const Entry& entry) {
    flagged_in_stack += entry.stack_slot != kNone ? 1 : 0;
    switch (entry.state) {
      case State::kLir:
        ++lir;
        // LIR blocks are always on the stack and never in Q.
        QDLP_CHECK(entry.stack_slot != kNone);
        QDLP_CHECK(entry.queue_slot == kNone);
        break;
      case State::kHirResident:
        ++hir_resident;
        QDLP_CHECK(entry.queue_slot != kNone);
        break;
      case State::kHirNonResident:
        ++hir_nonresident;
        // Non-resident metadata only exists while it can still matter: the
        // id must sit in stack S (otherwise it should have been dropped).
        QDLP_CHECK(entry.stack_slot != kNone);
        QDLP_CHECK(entry.queue_slot == kNone);
        break;
    }
  });
  QDLP_CHECK(lir == lir_count_);
  QDLP_CHECK(lir + hir_resident == resident_count_);
  QDLP_CHECK(hir_nonresident == nonresident_count_);
  // Q is exactly the resident HIR set.
  QDLP_CHECK(queue_.size() == hir_resident);
  queue_.ForEach([&](uint32_t slot, ObjectId id) {
    const Entry* entry = index_.Find(id);
    QDLP_CHECK(entry != nullptr);
    QDLP_CHECK(entry->state == State::kHirResident);
    QDLP_CHECK(entry->queue_slot == slot);
  });
  // Stack slots match the actual stack contents.
  stack_.ForEach([&](uint32_t slot, ObjectId id) {
    const Entry* entry = index_.Find(id);
    QDLP_CHECK(entry != nullptr);
    QDLP_CHECK(entry->stack_slot == slot);
  });
  QDLP_CHECK(stack_.size() == flagged_in_stack);
  stack_.CheckInvariants();
  queue_.CheckInvariants();
  index_.CheckInvariants();
}

template <typename IndexFactory>
void BasicLirsPolicy<IndexFactory>::PushStackTop(ObjectId id, Entry& entry) {
  if (entry.stack_slot != kNone) {
    stack_.MoveToFront(entry.stack_slot);
  } else {
    entry.stack_slot = stack_.PushFront(id);
  }
}

template <typename IndexFactory>
void BasicLirsPolicy<IndexFactory>::PushQueueBack(ObjectId id, Entry& entry) {
  if (entry.queue_slot != kNone) {
    queue_.MoveToBack(entry.queue_slot);
  } else {
    entry.queue_slot = queue_.PushBack(id);
  }
}

template <typename IndexFactory>
void BasicLirsPolicy<IndexFactory>::RemoveFromQueue(Entry& entry) {
  if (entry.queue_slot != kNone) {
    queue_.Erase(entry.queue_slot);
    entry.queue_slot = kNone;
  }
}

template <typename IndexFactory>
void BasicLirsPolicy<IndexFactory>::PruneStack() {
  while (!stack_.empty()) {
    const uint32_t slot = stack_.back();
    const ObjectId bottom = stack_[slot];
    Entry* entry = index_.Find(bottom);
    QDLP_DCHECK(entry != nullptr);
    if (entry->state == State::kLir) {
      return;
    }
    stack_.Erase(slot);
    entry->stack_slot = kNone;
    if (entry->state == State::kHirNonResident) {
      --nonresident_count_;
      index_.Erase(bottom);
    }
    // kHirResident entries stay in Q; only their stack presence ends.
  }
}

template <typename IndexFactory>
void BasicLirsPolicy<IndexFactory>::EvictFromQueue() {
  QDLP_CHECK(!queue_.empty());
  const uint32_t slot = queue_.front();
  const ObjectId victim = queue_[slot];
  Entry* entry = index_.Find(victim);
  queue_.Erase(slot);
  entry->queue_slot = kNone;
  --resident_count_;
  NotifyEvict(victim);
  if (entry->stack_slot != kNone) {
    entry->state = State::kHirNonResident;
    ++nonresident_count_;
    nonresident_fifo_.push_back(victim);
    LimitNonResident();
  } else {
    index_.Erase(victim);
  }
}

template <typename IndexFactory>
void BasicLirsPolicy<IndexFactory>::DemoteStackBottom() {
  QDLP_CHECK(!stack_.empty());
  const uint32_t slot = stack_.back();
  const ObjectId bottom = stack_[slot];
  Entry* entry = index_.Find(bottom);
  QDLP_DCHECK(entry->state == State::kLir);
  stack_.Erase(slot);
  entry->stack_slot = kNone;
  entry->state = State::kHirResident;
  --lir_count_;
  NotifyDemote(bottom);
  PushQueueBack(bottom, *entry);
  PruneStack();
}

template <typename IndexFactory>
void BasicLirsPolicy<IndexFactory>::LimitNonResident() {
  while (nonresident_count_ > max_nonresident_ && !nonresident_fifo_.empty()) {
    const ObjectId oldest = nonresident_fifo_.front();
    nonresident_fifo_.pop_front();
    Entry* entry = index_.Find(oldest);
    if (entry == nullptr || entry->state != State::kHirNonResident) {
      continue;  // stale: the object was re-referenced or already pruned
    }
    if (entry->stack_slot != kNone) {
      stack_.Erase(entry->stack_slot);
    }
    --nonresident_count_;
    index_.Erase(oldest);
    PruneStack();
  }
}

// Entry pointers into a FlatMap index stay valid while other ids are
// erased, but not across an insert; each path below inserts last.
template <typename IndexFactory>
bool BasicLirsPolicy<IndexFactory>::OnAccess(ObjectId id) {
  Entry* entry = index_.Find(id);
  if (entry != nullptr && entry->state == State::kLir) {
    const bool was_bottom = entry->stack_slot == stack_.back();
    PushStackTop(id, *entry);
    if (was_bottom) {
      PruneStack();
    }
    return true;
  }
  if (entry != nullptr && entry->state == State::kHirResident) {
    if (entry->stack_slot != kNone) {
      // Reuse distance beats the coldest LIR block: upgrade to LIR.
      PushStackTop(id, *entry);
      entry->state = State::kLir;
      ++lir_count_;
      NotifyPromote(id);
      RemoveFromQueue(*entry);
      if (lir_count_ > lir_capacity_) {
        DemoteStackBottom();
      }
    } else {
      // Only in Q: refresh both recency orders, stays HIR.
      PushStackTop(id, *entry);
      PushQueueBack(id, *entry);
    }
    return true;
  }

  // Miss (possibly with non-resident history).
  if (resident_count_ == capacity()) {
    EvictFromQueue();
    // EvictFromQueue may have dropped this id's metadata; re-find.
    entry = index_.Find(id);
  }

  if (lir_count_ < lir_capacity_ &&
      (entry == nullptr || entry->stack_slot == kNone)) {
    // Warmup: the LIR set is not yet full; admit directly as LIR.
    Entry& admitted = *index_.Emplace(id).first;
    admitted.state = State::kLir;
    admitted.queue_slot = kNone;
    PushStackTop(id, admitted);
    ++lir_count_;
    ++resident_count_;
    NotifyInsert(id);
    return false;
  }

  if (entry != nullptr && entry->state == State::kHirNonResident) {
    // The block's reuse distance beats the coldest LIR block: admit as LIR.
    NotifyGhostHit(id);
    entry->state = State::kLir;
    --nonresident_count_;
    ++lir_count_;
    ++resident_count_;
    PushStackTop(id, *entry);
    NotifyInsert(id);
    if (lir_count_ > lir_capacity_) {
      DemoteStackBottom();
    }
    return false;
  }

  // Cold miss: admit as resident HIR.
  Entry& admitted = *index_.Emplace(id).first;
  admitted.state = State::kHirResident;
  PushStackTop(id, admitted);
  PushQueueBack(id, admitted);
  ++resident_count_;
  NotifyInsert(id);
  return false;
}

// Compile both index backings once here rather than in every TU.
template class BasicLirsPolicy<FlatIndexFactory>;
template class BasicLirsPolicy<DenseIndexFactory>;

}  // namespace qdlp
