// Streaming multi-configuration replay: the replay engine's interleaved
// (policy x cache size) pass, fed from a TraceSource chunk by chunk instead
// of from a materialized in-memory trace.
//
// BatchReplayTrace needs the whole request stream resident (plus the dense
// remap's O(universe) reverse map) before the first access runs. This
// front end holds only one chunk of requests at a time, translating it to
// dense u32 ids on the fly:
//
//   for each chunk of `chunk_size` requests pulled from the source:
//     dense[i] = mapper.MapOrAssign(raw[i])          // one shared remap
//     profiler.Record(raw[i])                        // optional SHARDS MRC
//     for each cell: consume dense[] or raw[]        // same three lanes
//
// Both front ends feed the same cell driver (replay_engine.cc), so cells use
// the same lanes as BatchReplayTrace: remap-invariant policies read the
// dense stream (over a direct-indexed slot array when the distinct-id
// count is known upfront and small enough, the flat hash index otherwise);
// sampling/sketch policies read the raw chunk, whose original ids their
// decisions depend on. Belady is impossible here — it needs the full
// future — and aborts with the factory's diagnostic.
//
// The id mapper is chosen by `mem_budget_bytes`: 0 keeps the plain
// in-memory DenseIdMapper, sized from the `dense_universe` hint when one is
// given; a positive budget swaps in the spillable out-of-core mapper
// (src/trace/spill_mapper.h), making peak memory independent of the id
// universe. Either way the dense ids come out in first-appearance order,
// so miss ratios are byte-identical to materializing the trace and running
// BatchReplayTrace — pinned across policies and chunk sizes in
// tests/stream_replay_test.cc.
//
// Setting `shards_sample_rate` > 0 additionally threads every original id
// through a ShardsProfiler, so the same single pass that fills the cells
// also emits a whole sampled LRU miss-ratio curve at `mrc_sizes`.

#ifndef QDLP_SRC_SIM_STREAM_REPLAY_H_
#define QDLP_SRC_SIM_STREAM_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/batch_replay.h"
#include "src/sim/simulator.h"
#include "src/trace/trace_source.h"

namespace qdlp {

// The mapper, hint and SHARDS settings of a streamed replay; chunk_size and
// max_dense_universe are the engine's shared BatchReplayOptions.
struct StreamReplayOptions : BatchReplayOptions {
  // 0 = unbudgeted in-memory DenseIdMapper. Positive = spillable mapper
  // capped at this many resident bytes (see SpillMapperOptions).
  size_t mem_budget_bytes = 0;
  // Spill-run directory for the budgeted mapper ("" = $TMPDIR or /tmp).
  std::string spill_dir;
  // Exact distinct-id count of the stream, when known (from a counting
  // pre-pass or trace metadata). > 0 and <= max_dense_universe lets
  // remap-invariant cells use direct-indexed dense policies, matching the
  // in-memory front end's fast lane. Must not undercount: the replay
  // aborts if the stream produces more distinct ids than promised. 0 =
  // unknown; dense cells run over the flat hash index (same results).
  uint64_t dense_universe = 0;
  // > 0: record every original id into a ShardsProfiler at this sample
  // rate and emit the LRU miss-ratio curve at `mrc_sizes`.
  double shards_sample_rate = 0.0;
  std::vector<uint64_t> mrc_sizes;
};

struct StreamReplayResult {
  // One SimResult per input cell, in cell order; identical to what
  // BatchReplayTrace produces for the materialized stream.
  std::vector<SimResult> cells;
  uint64_t num_requests = 0;
  uint64_t num_objects = 0;  // distinct ids actually seen
  // (cache size, estimated LRU miss ratio) at each requested mrc_sizes
  // entry; empty unless shards_sample_rate > 0.
  std::vector<std::pair<uint64_t, double>> lru_mrc;
  // Id-mapper telemetry (spillable mapper only; zero for the in-memory
  // mapper, whose growth the budget does not cap).
  size_t mapper_peak_bytes = 0;
  size_t mapper_spilled_epochs = 0;
  // False when the source failed mid-stream (decode error, truncation) or
  // the budgeted mapper hit a spill I/O failure; `cells` is then empty.
  bool ok = false;
  std::string error;
};

// Replays every cell over the source's request stream in one pass.
// `trace_name` fills SimResult::trace. Aborts (factory diagnostic) on
// unknown policy names and on "belady", which cannot run on a stream.
// With no cells this is a counting pass: num_requests and num_objects
// without running any policy, e.g. to size fractional caches before a
// replay over a re-opened source.
StreamReplayResult StreamReplayTrace(TraceSource& source,
                                     const std::string& trace_name,
                                     const std::vector<BatchCellSpec>& cells,
                                     const StreamReplayOptions& options = {});

}  // namespace qdlp

#endif  // QDLP_SRC_SIM_STREAM_REPLAY_H_
