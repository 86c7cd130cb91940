#include "src/policies/lhd.h"

#include <algorithm>
#include <cmath>

namespace qdlp {

template <typename IndexFactory>
BasicLhdPolicy<IndexFactory>::BasicLhdPolicy(size_t capacity, uint64_t seed,
                                             IndexFactory factory)
    : EvictionPolicy(capacity, "lhd"),
      rng_(seed),
      index_(factory.template Make<uint32_t>()) {
  QDLP_CHECK(capacity < (uint64_t{1} << 32));
  // Coarsen ages so that ~8 cache-fills of time span the histogram.
  const double target_span = 8.0 * static_cast<double>(capacity);
  age_shift_ = 0;
  while ((target_span / static_cast<double>(1ULL << age_shift_)) >
         static_cast<double>(kNumAgeBuckets)) {
    ++age_shift_;
  }
  reconfigure_interval_ = std::max<uint64_t>(1000, capacity);
  // +1: a miss emplaces the newcomer before evicting the victim.
  index_.Reserve(capacity + 1);
  objects_.reserve(capacity);
}

template <typename IndexFactory>
void BasicLhdPolicy<IndexFactory>::CheckInvariants() const {
  QDLP_CHECK(objects_.size() <= capacity());
  QDLP_CHECK(index_.size() == objects_.size());
  for (size_t pos = 0; pos < objects_.size(); ++pos) {
    const uint32_t* indexed = index_.Find(objects_[pos].id);
    QDLP_CHECK(indexed != nullptr);
    QDLP_CHECK(*indexed == pos);
    QDLP_CHECK(objects_[pos].last_access <= now());
  }
  index_.CheckInvariants();
}

template <typename IndexFactory>
size_t BasicLhdPolicy<IndexFactory>::AgeBucket(uint64_t last_access) const {
  const uint64_t age = (now() - last_access) >> age_shift_;
  return std::min<uint64_t>(age, kNumAgeBuckets - 1);
}

template <typename IndexFactory>
size_t BasicLhdPolicy<IndexFactory>::ClassOf(uint32_t refs) {
  return std::min<size_t>(refs, kNumClasses - 1);
}

template <typename IndexFactory>
void BasicLhdPolicy<IndexFactory>::Reconfigure() {
  for (ClassStats& cls : classes_) {
    // Hit density at age a: expected hits after reaching age a divided by
    // the expected remaining space-time after age a.
    double hits_above = 0.0;
    double events_above = 0.0;
    double lifetime_above = 0.0;
    for (size_t a = kNumAgeBuckets; a-- > 0;) {
      hits_above += cls.hits[a];
      events_above += cls.hits[a] + cls.evictions[a];
      lifetime_above += events_above;  // integral of survival over age
      cls.density[a] =
          lifetime_above > 0.0 ? hits_above / lifetime_above : 1e-3;
    }
    for (size_t a = 0; a < kNumAgeBuckets; ++a) {
      cls.hits[a] *= kEwmaDecay;
      cls.evictions[a] *= kEwmaDecay;
    }
  }
}

template <typename IndexFactory>
void BasicLhdPolicy<IndexFactory>::EvictOne() {
  QDLP_DCHECK(!objects_.empty());
  size_t victim_pos = 0;
  double victim_density = 0.0;
  bool have_victim = false;
  const size_t samples = std::min(kSampleSize, objects_.size());
  for (size_t i = 0; i < samples; ++i) {
    const size_t pos = rng_.NextBounded(objects_.size());
    const Object& object = objects_[pos];
    const double density =
        classes_[ClassOf(object.refs)].density[AgeBucket(object.last_access)];
    if (!have_victim || density < victim_density) {
      have_victim = true;
      victim_density = density;
      victim_pos = pos;
    }
  }
  Object& victim = objects_[victim_pos];
  classes_[ClassOf(victim.refs)].evictions[AgeBucket(victim.last_access)] += 1.0;
  const ObjectId victim_id = victim.id;
  // Swap-remove: the last object takes the victim's position.
  objects_[victim_pos] = objects_.back();
  *index_.Find(objects_[victim_pos].id) = static_cast<uint32_t>(victim_pos);
  objects_.pop_back();
  index_.Erase(victim_id);
  NotifyEvict(victim_id);
}

template <typename IndexFactory>
bool BasicLhdPolicy<IndexFactory>::OnAccess(ObjectId id) {
  if (++accesses_since_reconfigure_ >= reconfigure_interval_) {
    accesses_since_reconfigure_ = 0;
    Reconfigure();
  }
  // One probe: a newcomer is emplaced here and given its position below.
  // Eviction erases only other ids, which moves no index slot.
  const auto [position, inserted] = index_.Emplace(id);
  if (!inserted) {
    Object& object = objects_[*position];
    classes_[ClassOf(object.refs)].hits[AgeBucket(object.last_access)] += 1.0;
    object.last_access = now();
    ++object.refs;
    return true;
  }
  if (objects_.size() == capacity()) {
    EvictOne();
  }
  *position = static_cast<uint32_t>(objects_.size());
  objects_.push_back(Object{id, now(), 0});
  NotifyInsert(id);
  return false;
}

// Compile both index backings once here rather than in every TU.
template class BasicLhdPolicy<FlatIndexFactory>;
template class BasicLhdPolicy<DenseIndexFactory>;

}  // namespace qdlp
