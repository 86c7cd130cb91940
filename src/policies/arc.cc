#include "src/policies/arc.h"

#include <algorithm>
#include <string>

namespace qdlp {

namespace {
std::string ArcName(double adaptation_rate, double fixed_p_fraction) {
  if (fixed_p_fraction >= 0.0) {
    return "arc-fixed";
  }
  if (adaptation_rate != 1.0) {
    return "arc-slow";
  }
  return "arc";
}
}  // namespace

template <typename IndexFactory>
BasicArcPolicy<IndexFactory>::BasicArcPolicy(size_t capacity,
                                             double adaptation_rate,
                                             double fixed_p_fraction,
                                             IndexFactory factory)
    : EvictionPolicy(capacity, ArcName(adaptation_rate, fixed_p_fraction)),
      adaptation_rate_(adaptation_rate),
      index_(factory.template Make<uint32_t>()) {
  QDLP_CHECK(adaptation_rate > 0.0);
  QDLP_CHECK(capacity <= kSlotMask);
  if (fixed_p_fraction >= 0.0) {
    QDLP_CHECK(fixed_p_fraction <= 1.0);
    adaptive_ = false;
    p_ = fixed_p_fraction * static_cast<double>(capacity);
  }
  // Up to 2c resident and ghost ids, plus a newcomer emplaced before the
  // ghost lists are trimmed.
  index_.Reserve(2 * capacity + 1);
}

template <typename IndexFactory>
void BasicArcPolicy<IndexFactory>::CheckInvariants() const {
  const size_t c = capacity();
  QDLP_CHECK(t1_.size() + t2_.size() <= c);
  QDLP_CHECK(t1_.size() + b1_.size() <= c);
  QDLP_CHECK(t1_.size() + t2_.size() + b1_.size() + b2_.size() <= 2 * c);
  QDLP_CHECK(p_ >= 0.0 && p_ <= static_cast<double>(c));
  QDLP_CHECK(index_.size() ==
             t1_.size() + t2_.size() + b1_.size() + b2_.size());
  // Every list member is indexed under its list and slot; index_.size()
  // matching the sum above rules out duplicates.
  const auto check_list = [&](const List& list, ListId id) {
    list.CheckInvariants();
    list.ForEach([&](uint32_t slot, ObjectId member) {
      const uint32_t* entry = index_.Find(member);
      QDLP_CHECK(entry != nullptr);
      QDLP_CHECK(*entry == Pack(id, slot));
    });
  };
  check_list(t1_, kT1);
  check_list(t2_, kT2);
  check_list(b1_, kB1);
  check_list(b2_, kB2);
  index_.CheckInvariants();
}

template <typename IndexFactory>
void BasicArcPolicy<IndexFactory>::MoveTo(uint32_t* entry, ListId target) {
  List& source = ListFor(ListOf(*entry));
  const uint32_t slot = *entry & kSlotMask;
  if (ListOf(*entry) == target) {
    source.MoveToFront(slot);
    return;
  }
  const ObjectId id = source[slot];
  source.Erase(slot);
  *entry = Pack(target, ListFor(target).PushFront(id));
}

template <typename IndexFactory>
void BasicArcPolicy<IndexFactory>::RemoveLru(List& list) {
  const uint32_t slot = list.back();
  index_.Erase(list[slot]);
  list.Erase(slot);
}

template <typename IndexFactory>
void BasicArcPolicy<IndexFactory>::Replace(bool requested_in_b2) {
  const size_t t1_size = t1_.size();
  // Demote the LRU of T1 into ghost B1, or else the LRU of T2 into B2.
  const bool from_t1 =
      t1_size > 0 && (static_cast<double>(t1_size) > p_ ||
                      (requested_in_b2 && static_cast<double>(t1_size) == p_));
  List& source = from_t1 ? t1_ : t2_;
  const ObjectId victim = source[source.back()];
  NotifyDemote(victim);
  NotifyEvict(victim);
  MoveTo(index_.Find(victim), from_t1 ? kB1 : kB2);
}

template <typename IndexFactory>
bool BasicArcPolicy<IndexFactory>::OnAccess(ObjectId id) {
  const size_t c = capacity();
  // One probe: an indexed id is resident or a ghost; a newcomer is
  // emplaced here and given its T1 slot below. Only other ids are erased
  // in between, which moves no index slot.
  const auto [entry, inserted] = index_.Emplace(id);
  if (!inserted) {
    switch (ListOf(*entry)) {
      case kT1:
      case kT2:
        // Case I: hit — promote to the MRU of T2.
        MoveTo(entry, kT2);
        NotifyPromote(id);
        return true;
      case kB1: {
        // Case II: ghost hit in B1 — grow the recency target.
        const double delta =
            b1_.size() >= b2_.size()
                ? 1.0
                : static_cast<double>(b2_.size()) /
                      static_cast<double>(b1_.size());
        if (adaptive_) {
          p_ = std::min(p_ + delta * adaptation_rate_, static_cast<double>(c));
        }
        NotifyGhostHit(id);
        Replace(/*requested_in_b2=*/false);
        MoveTo(entry, kT2);
        NotifyInsert(id);
        return false;
      }
      case kB2: {
        // Case III: ghost hit in B2 — grow the frequency target.
        const double delta =
            b2_.size() >= b1_.size()
                ? 1.0
                : static_cast<double>(b1_.size()) /
                      static_cast<double>(b2_.size());
        if (adaptive_) {
          p_ = std::max(p_ - delta * adaptation_rate_, 0.0);
        }
        NotifyGhostHit(id);
        Replace(/*requested_in_b2=*/true);
        MoveTo(entry, kT2);
        NotifyInsert(id);
        return false;
      }
    }
  }
  // Case IV: complete miss.
  const size_t l1 = t1_.size() + b1_.size();
  const size_t l2 = t2_.size() + b2_.size();
  if (l1 == c) {
    if (t1_.size() < c) {
      // Delete the LRU ghost in B1, then replace.
      RemoveLru(b1_);
      Replace(/*requested_in_b2=*/false);
    } else {
      // B1 is empty and T1 is full: evict the LRU of T1 outright.
      NotifyEvict(t1_[t1_.back()]);
      RemoveLru(t1_);
    }
  } else if (l1 < c && l1 + l2 >= c) {
    if (l1 + l2 == 2 * c) {
      RemoveLru(b2_);
    }
    Replace(/*requested_in_b2=*/false);
  }
  *entry = Pack(kT1, t1_.PushFront(id));
  NotifyInsert(id);
  return false;
}

// Compile both index backings once here rather than in every TU.
template class BasicArcPolicy<FlatIndexFactory>;
template class BasicArcPolicy<DenseIndexFactory>;

}  // namespace qdlp
