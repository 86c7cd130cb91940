#include "src/concurrent/concurrent_qdlp_fifo.h"

namespace qdlp {

template class QdLpRegions<DomainCore>;
template class DomainCache<QdLpRegions<DomainCore>>;

ConcurrentQdLpFifo::ConcurrentQdLpFifo(size_t capacity, size_t num_stripes,
                                       size_t num_shards,
                                       QdlpValueOptions values)
    : DomainCache(capacity, num_stripes, num_shards, kMinCapacityPerShard,
                  values) {}

}  // namespace qdlp
