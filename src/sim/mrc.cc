#include "src/sim/mrc.h"

#include "src/sim/batch_replay.h"
#include "src/sim/simulator.h"
#include "src/trace/dense_trace.h"

namespace qdlp {

std::vector<MrcPoint> ComputeMrc(const std::string& policy_name,
                                 const Trace& trace,
                                 const std::vector<double>& fractions) {
  std::vector<BatchCellSpec> cells;
  cells.reserve(fractions.size());
  for (const double fraction : fractions) {
    cells.push_back({policy_name, CacheSizeForFraction(trace, fraction)});
  }
  const std::vector<SimResult> results =
      BatchReplayTrace(DensifyTrace(trace), cells, {}, &trace.requests);
  std::vector<MrcPoint> curve;
  curve.reserve(fractions.size());
  for (size_t i = 0; i < fractions.size(); ++i) {
    curve.push_back(
        {fractions[i], cells[i].cache_size, results[i].miss_ratio()});
  }
  return curve;
}

std::vector<double> DefaultMrcFractions() {
  return {0.001, 0.003, 0.01, 0.03, 0.10, 0.30};
}

}  // namespace qdlp
