// Batched multi-configuration replay: one pass over a dense-id request
// stream drives every (policy x cache size) cell of a sweep at once.
//
// The per-cell replay (simulator.h) re-reads the trace from DRAM once per
// cell; a Fig-2 grid touches each trace policies x fractions times. Here
// the cells advance through the stream together in request chunks, so a
// chunk is fetched once and stays cache-hot while every cell consumes it:
//
//   for each chunk of `chunk_size` requests:
//     translate the chunk to original ids once (shared by original-id cells)
//     for each cell: cell.policy consumes the chunk
//
// This is the in-memory front end of the replay engine; StreamReplayTrace
// (stream_replay.h) is the other. Both feed the same cell driver
// (replay_engine.cc), which picks each cell's lane: dense index + dense
// ids, flat index + dense ids, or flat index + original ids for policies
// whose decisions depend on id values/hash order, and for Belady. The
// dense lanes take every name HasDenseVariant accepts (policy_factory.h):
// the FIFO designs, LRU, SIEVE, Fig 5's ARC, LIRS, LeCaR, CACHEUS and LHD,
// and qd-<base> over any of them.
//
// All three lanes produce miss ratios byte-identical to ReplayTrace on the
// original trace (the differential test in tests/batch_replay_test.cc pins
// this across every serial policy). BatchReplayTrace never remaps ids: the
// DenseTrace's own numbering is what the dense lanes read.

#ifndef QDLP_SRC_SIM_BATCH_REPLAY_H_
#define QDLP_SRC_SIM_BATCH_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/trace/dense_trace.h"
#include "src/trace/trace.h"

namespace qdlp {

// One (policy, cache size) configuration to replay.
struct BatchCellSpec {
  std::string policy;
  size_t cache_size = 0;
};

// Replay-engine tuning, shared by both front ends (StreamReplayOptions
// extends it).
struct BatchReplayOptions {
  // Requests every cell consumes before the next chunk is fetched. A u32
  // chunk of this size (16 KiB) stays cache-hot across the cells while
  // amortizing the per-cell loop overhead. Never changes results.
  size_t chunk_size = 4096;
  // A DenseIndex spends O(universe) slots per cell; above this many
  // distinct objects, remap-invariant policies fall back to the flat index
  // (still fed dense ids). 2^26 slots is ~0.5 GiB/cell at 8-byte values.
  uint64_t max_dense_universe = uint64_t{1} << 26;
};

// Replays every cell over `dense` in one interleaved pass. Results are in
// cell order, with SimResult::trace taken from `dense.name`. Cells whose
// policy needs the original request stream at construction (Belady) use
// `original_requests`; passing nullptr aborts for such cells. Aborts on
// unknown policy names with a message listing the known ones.
std::vector<SimResult> BatchReplayTrace(
    const DenseTrace& dense, const std::vector<BatchCellSpec>& cells,
    const BatchReplayOptions& options = {},
    const std::vector<ObjectId>* original_requests = nullptr);

}  // namespace qdlp

#endif  // QDLP_SRC_SIM_BATCH_REPLAY_H_
