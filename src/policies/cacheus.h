// CACHEUS (Rodriguez et al., FAST'21) — adaptive variant of LeCaR.
//
// CACHEUS's central improvements over LeCaR are (1) a *learned* learning
// rate instead of LeCaR's fixed 0.45, adapted by hill climbing on the
// windowed hit rate, and (2) scan-resistant/churn-resistant experts (SR-LRU,
// CR-LFU).
//
// Simplifications in this implementation (documented per DESIGN.md §6):
//  * CR-LFU is realized as LFU with last-access tie-breaking (the CR part);
//  * SR-LRU is approximated by plain LRU — scan resistance in our
//    configuration comes mostly from the LFU expert taking over weight
//    during scans, which the adaptive learning rate accelerates;
//  * the learning-rate hill climber uses multiplicative steps with direction
//    reversal on regression, with a random restart when the rate collapses.
//
// With those experts CACHEUS is LeCaR plus the hill climber, so it is the
// one LeCaR implementation (lecar.h) run with its learning rate adapted
// over windows of max(100, capacity) requests.

#ifndef QDLP_SRC_POLICIES_CACHEUS_H_
#define QDLP_SRC_POLICIES_CACHEUS_H_

#include <cstdint>

#include "src/policies/lecar.h"

namespace qdlp {

template <typename IndexFactory>
class BasicCacheusPolicy : public BasicLecarPolicy<IndexFactory> {
 public:
  explicit BasicCacheusPolicy(size_t capacity, uint64_t seed = 11,
                              IndexFactory factory = {})
      : BasicLecarPolicy<IndexFactory>(capacity, "cacheus", seed,
                                       /*learning_rate=*/0.45,
                                       /*adapt_learning_rate=*/true,
                                       factory) {}
};

using CacheusPolicy = BasicCacheusPolicy<FlatIndexFactory>;
using DenseCacheusPolicy = BasicCacheusPolicy<DenseIndexFactory>;

}  // namespace qdlp

#endif  // QDLP_SRC_POLICIES_CACHEUS_H_
