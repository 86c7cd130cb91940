#include "src/concurrent/concurrent_s3fifo.h"

namespace qdlp {

template class S3FifoRegions<DomainCore>;
template class DomainCache<S3FifoRegions<DomainCore>>;

ConcurrentS3FifoCache::ConcurrentS3FifoCache(size_t capacity,
                                             size_t num_stripes,
                                             size_t num_shards,
                                             QdlpValueOptions values)
    : DomainCache(capacity, num_stripes, num_shards,
                  /*min_capacity_per_shard=*/1, values) {}

}  // namespace qdlp
