#include "src/concurrent/concurrent_qdlp_fifo.h"

namespace qdlp {

template class QdLpRegions<DomainCore>;
template class DomainCache<QdLpRegions<DomainCore>>;

ConcurrentQdLpFifo::ConcurrentQdLpFifo(size_t capacity, size_t num_stripes,
                                       size_t num_shards,
                                       QdlpValueOptions values)
    // Every shard needs a probation slot and a main slot, so shares must
    // be at least 2; DomainCore halves the shard count until so.
    : DomainCache(capacity, num_stripes, num_shards,
                  /*min_capacity_per_shard=*/2, values) {}

}  // namespace qdlp
