#include "src/concurrent/concurrent_clock.h"

#include <vector>

#include "src/util/check.h"

namespace qdlp {

namespace {

std::vector<size_t> ShardCapacities(const EvictionDomains& domains) {
  std::vector<size_t> capacities(domains.num_shards());
  for (size_t s = 0; s < capacities.size(); ++s) {
    capacities[s] = domains.shard(s).capacity;
  }
  return capacities;
}

uint8_t MaxCounter(int bits) {
  QDLP_CHECK(bits >= 1 && bits <= 8);
  return static_cast<uint8_t>((1u << bits) - 1);
}

}  // namespace

ClockRegions::ClockRegions(DomainCore& core, int bits)
    : core_(core), ring_(ShardCapacities(core.domains), MaxCounter(bits)) {}

void ClockRegions::AdmitLocked(size_t s, ObjectId id) {
  if (ring_.full(s)) {
    const uint32_t victim = ring_.NextVictim(s, [&] {
      // Lazy promotion: the reinsertion lap, counted like sequential CLOCK.
      core_.counters.Add(ConcurrentStatsCounters::kPromotions);
    });
    core_.index.Erase(ring_.id(victim));
    ring_.Free(s, victim);
    core_.CountEviction(s);
  }
  core_.index.Insert(id, ring_.Take(s, id));
}

size_t ClockRegions::CheckShardLocked(size_t s) const {
  return ring_.CheckRegion(s, [&](ObjectId id, uint32_t slot) {
    // Resident ids hash to the shard whose region stores them.
    QDLP_CHECK(core_.domains.ShardOf(id) == s);
    uint32_t indexed;
    QDLP_CHECK(core_.index.Find(id, &indexed));
    QDLP_CHECK(indexed == slot);
  });
}

template class DomainCache<ClockRegions>;

ConcurrentClockCache::ConcurrentClockCache(size_t capacity, int bits,
                                           size_t num_stripes,
                                           size_t num_shards)
    : DomainCache(capacity, num_stripes, num_shards,
                  /*min_capacity_per_shard=*/1, bits) {}

}  // namespace qdlp
