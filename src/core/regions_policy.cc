#include "src/core/regions_policy.h"

namespace qdlp {

template class RegionsPolicy<ClockRegions, FlatIndexFactory>;
template class RegionsPolicy<ClockRegions, DenseIndexFactory>;
template class RegionsPolicy<S3FifoRegions, FlatIndexFactory>;
template class RegionsPolicy<S3FifoRegions, DenseIndexFactory>;
template class RegionsPolicy<QdLpRegions, FlatIndexFactory>;
template class RegionsPolicy<QdLpRegions, DenseIndexFactory>;

}  // namespace qdlp
