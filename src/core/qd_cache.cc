#include "src/core/qd_cache.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace qdlp {

namespace {

size_t GhostCapacity(size_t main_capacity, double ghost_factor) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::llround(static_cast<double>(main_capacity) *
                                          ghost_factor)));
}

std::string QdName(const EvictionPolicy& main, const QdOptions& options) {
  return options.name.empty() ? "qd-" + std::string(main.name())
                              : options.name;
}

}  // namespace

template <typename IndexFactory>
BasicQdCache<IndexFactory>::BasicQdCache(size_t probation_capacity,
                                         std::unique_ptr<EvictionPolicy> main,
                                         const QdOptions& options,
                                         const IndexFactory& factory)
    : EvictionPolicy(probation_capacity + main->capacity(),
                     QdName(*main, options)),
      probation_capacity_(probation_capacity),
      main_(std::move(main)),
      accessed_(probation_capacity),
      ghost_(/*base=*/0, GhostCapacity(main_->capacity(), options.ghost_factor)),
      index(probation_capacity +
                GhostCapacity(main_->capacity(), options.ghost_factor),
            factory) {
  QDLP_CHECK(probation_capacity_ >= 1);
  QDLP_CHECK(probation_capacity_ < StripedAtomicIndex::kGhostTag);
  QDLP_CHECK(GhostCapacity(main_->capacity(), options.ghost_factor) <
             StripedAtomicIndex::kGhostTag);
  probation_.Reserve(probation_capacity_);
  main_->set_event_sink(&main_forwarder_);
}

template <typename IndexFactory>
void BasicQdCache<IndexFactory>::CheckInvariants() const {
  QDLP_CHECK(probation_.size() <= probation_capacity_);
  QDLP_CHECK(main_->size() <= main_->capacity());
  QDLP_CHECK(size() <= capacity());
  // Every probationary id is indexed at its slot and every ghost-list id
  // at its ghost record, so equal counts mean the index holds nothing
  // else. One entry per id keeps probation and ghost disjoint.
  QDLP_CHECK(index.size() == probation_.size());
  QDLP_CHECK(index.ghosts() == ghost_.size());
  probation_.ForEach([&](uint32_t slot, ObjectId id) {
    uint32_t value;
    QDLP_CHECK(index.Find(id, &value));
    QDLP_CHECK(value == slot);
    QDLP_CHECK(accessed_[slot] <= 1);
    // An object holds space in exactly one region.
    QDLP_CHECK(!main_->Contains(id));
  });
  ghost_.CheckLocked(*this, 0);
  // Ghost entries are history, never resident (in either region).
  index.ForEachGhost([&](ObjectId id) { QDLP_CHECK(!main_->Contains(id)); });
  probation_.CheckInvariants();
  index.CheckInvariants();
  main_->CheckInvariants();
}

template <typename IndexFactory>
bool BasicQdCache<IndexFactory>::OnAccess(ObjectId id) {
  const uint32_t entry = index.Entry(id);
  if (!StripedAtomicIndex::IsGhost(entry)) {
    accessed_[entry] = 1;  // single metadata bit; no reordering
    return true;
  }
  if (entry != StripedAtomicIndex::kNoEntry) {
    // A ghost record: quick-demoted once already, so admit straight into
    // the main cache.
    ghost_.Consume(entry);
    index.Erase(id);
    NotifyGhostHit(id);
    main_->Access(id);
    NotifyInsert(id);
    return false;
  }
  if (main_->Contains(id)) {
    return main_->Access(id);
  }
  AdmitToProbation(id);
  return false;
}

template <typename IndexFactory>
void BasicQdCache<IndexFactory>::AdmitToProbation(ObjectId id) {
  while (probation_.size() >= probation_capacity_) {
    EvictFromProbation();
  }
  const uint32_t slot = probation_.PushBack(id);
  accessed_[slot] = 0;
  index.Insert(id, slot);
  NotifyInsert(id);
}

template <typename IndexFactory>
void BasicQdCache<IndexFactory>::EvictFromProbation() {
  QDLP_DCHECK(!probation_.empty());
  const uint32_t slot = probation_.front();
  const ObjectId victim = probation_[slot];
  probation_.Erase(slot);
  if (accessed_[slot] != 0) {
    // Lazy promotion: re-accessed while on probation -> main cache.
    index.Erase(victim);
    NotifyPromote(victim);
    main_->Access(victim);
  } else {
    // Quick demotion: one lap through the small FIFO was its only chance.
    // The victim's entry becomes its ghost record.
    NotifyDemote(victim);
    ghost_.Push(*this, victim);
    NotifyEvict(victim);
  }
}

template class BasicQdCache<FlatIndexFactory>;
template class BasicQdCache<DenseIndexFactory>;

}  // namespace qdlp
