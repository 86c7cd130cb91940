#include "src/concurrent/concurrent_clock.h"

namespace qdlp {

template class ClockRegions<DomainCore>;
template class DomainCache<ClockRegions<DomainCore>>;

ConcurrentClockCache::ConcurrentClockCache(size_t capacity, int bits,
                                           size_t num_stripes,
                                           size_t num_shards,
                                           QdlpValueOptions values)
    : DomainCache(capacity, num_stripes, num_shards,
                  /*min_capacity_per_shard=*/1, values, bits) {}

}  // namespace qdlp
