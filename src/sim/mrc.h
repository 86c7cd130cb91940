// Miss-ratio curves: one policy evaluated at a ladder of cache sizes.
// Used by the ablation benches and the mrc example.

#ifndef QDLP_SRC_SIM_MRC_H_
#define QDLP_SRC_SIM_MRC_H_

#include <string>
#include <vector>

#include "src/trace/trace.h"

namespace qdlp {

struct MrcPoint {
  double size_fraction = 0.0;
  size_t cache_size = 0;
  double miss_ratio = 0.0;
};

// Replays `policy_name` over `trace` at every fraction in one
// BatchReplayTrace pass. Fractions are relative to the trace's
// unique-object count.
std::vector<MrcPoint> ComputeMrc(const std::string& policy_name,
                                 const Trace& trace,
                                 const std::vector<double>& fractions);

// A convenient default ladder: 0.1%, 0.3%, 1%, 3%, 10%, 30%.
std::vector<double> DefaultMrcFractions();

}  // namespace qdlp

#endif  // QDLP_SRC_SIM_MRC_H_
