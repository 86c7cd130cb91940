// The replay engine: one cell driver under two front ends.
// BatchReplayTrace (batch_replay.h) feeds it a DenseTrace already in
// memory; StreamReplayTrace (stream_replay.h) feeds it chunks it remaps
// from a TraceSource. Lane selection, the per-chunk feed and the collection
// of results are written once, in CellDriver.

#include <algorithm>
#include <memory>
#include <utility>

#include "src/core/policy_factory.h"
#include "src/sim/batch_replay.h"
#include "src/sim/simulator.h"
#include "src/sim/stack_distance.h"
#include "src/sim/stream_replay.h"
#include "src/trace/dense_trace.h"
#include "src/trace/spill_mapper.h"
#include "src/util/check.h"

namespace qdlp {

namespace {

// Builds every (policy, cache size) cell, feeds the cells the request
// stream chunk by chunk, and collects their SimResults. Cells fall into
// three lanes, chosen per policy:
//  * dense index + dense ids — remap-invariant policy, universe known and
//    small enough: direct-indexed slot arrays, u32 stream, prefetch
//    pipeline.
//  * flat index + dense ids — remap-invariant policy, universe unknown or
//    above `max_dense_universe`: still reads the halved-width stream,
//    skips the translation, keeps the prefetch pipeline over the hash
//    index.
//  * flat index + original ids — policies whose decisions depend on id
//    values/hash order (random sampling, sketches) and Belady: fed the
//    exact original sequence so results match the per-cell replay bit for
//    bit.
class CellDriver {
 public:
  // `universe` is the exact number of distinct ids the stream will carry,
  // or 0 when unknown. Cells whose policy needs the original request
  // stream at construction (Belady) get `original_requests`; without it
  // they abort with the factory's diagnostic, as unknown policy names do.
  CellDriver(const std::vector<BatchCellSpec>& specs, uint64_t universe,
             const BatchReplayOptions& options,
             const std::vector<ObjectId>* original_requests) {
    QDLP_CHECK(options.chunk_size >= 1);
    if (universe > 0 && universe <= options.max_dense_universe) {
      dense_index_universe_ = universe;
    }
    cells_.reserve(specs.size());
    for (const BatchCellSpec& spec : specs) {
      Cell cell;
      // Remap-invariant policies read the dense stream directly — over a
      // direct-indexed slot array when the universe is known and small
      // enough to afford one, over the usual flat hash index otherwise.
      // Everything else gets the original ids its decisions depend on.
      if (HasDenseVariant(spec.policy)) {
        cell.dense_ids = true;
        cell.policy = dense_index_universe_ > 0
                          ? MakeDensePolicy(spec.policy, spec.cache_size,
                                            dense_index_universe_)
                          : MakePolicy(spec.policy, spec.cache_size);
      } else {
        cell.policy =
            MakePolicy(spec.policy, spec.cache_size, original_requests);
        reads_original_ids_ = true;
      }
      if (cell.policy == nullptr) {
        MakePolicyOrDie(spec.policy, spec.cache_size, original_requests);
      }
      cells_.push_back(std::move(cell));
    }
  }

  // True when some cell reads original ids, so Feed needs them.
  bool reads_original_ids() const { return reads_original_ids_; }

  // Feeds the next `len` requests to every cell: `dense` as dense ids and
  // `original` as original ids (read only when reads_original_ids()).
  // `num_ids` is how many distinct ids the stream has produced so far; it
  // must not exceed the universe promised to the constructor.
  void Feed(const uint32_t* dense, const ObjectId* original, size_t len,
            uint64_t num_ids) {
    QDLP_CHECK_MSG(
        dense_index_universe_ == 0 || num_ids <= dense_index_universe_,
        "stream has more distinct ids than the dense_universe hint promised");
    for (Cell& cell : cells_) {
      // The policies count their own hits (Stats(), read by Results); the
      // driver only drives accesses.
      if (cell.dense_ids) {
        cell.policy->AccessBatch(dense, len);
      } else {
        for (size_t i = 0; i < len; ++i) {
          cell.policy->Access(original[i]);
        }
      }
    }
    num_requests_ += len;
  }

  // One SimResult per cell, in cell order, over every request fed.
  std::vector<SimResult> Results(const std::string& trace_name) const {
    std::vector<SimResult> results;
    results.reserve(cells_.size());
    for (const Cell& cell : cells_) {
      SimResult result;
      result.policy = cell.policy->name();
      result.trace = trace_name;
      result.cache_size = cell.policy->capacity();
      result.requests = num_requests_;
      result.stats = cell.policy->Stats();
      result.hits = result.stats.hits;
      QDLP_CHECK(result.stats.requests == num_requests_);
      results.push_back(std::move(result));
    }
    return results;
  }

 private:
  struct Cell {
    std::unique_ptr<EvictionPolicy> policy;
    bool dense_ids = false;  // consumes the u32 chunk; else original ids
  };

  std::vector<Cell> cells_;
  // The universe the dense-index cells were sized for; 0 when that lane
  // is off.
  uint64_t dense_index_universe_ = 0;
  bool reads_original_ids_ = false;
  uint64_t num_requests_ = 0;
};

// Budget-selected id mapper: the plain in-memory DenseIdMapper when
// unbudgeted, the spillable out-of-core one otherwise. Both assign dense
// ids in first-appearance order, so the choice never changes results. The
// in-memory table is reserved for the dense_universe hint, as DensifyTrace
// reserves for num_objects, so a hinted pass never rehashes as it grows.
class StreamIdMapper {
 public:
  explicit StreamIdMapper(const StreamReplayOptions& options) {
    if (options.mem_budget_bytes > 0) {
      SpillMapperOptions spill_options;
      spill_options.mem_budget_bytes = options.mem_budget_bytes;
      spill_options.spill_dir = options.spill_dir;
      spill_ = std::make_unique<SpillableDenseIdMapper>(spill_options);
    } else {
      inmem_ = std::make_unique<DenseIdMapper>(options.dense_universe);
    }
  }

  uint32_t MapOrAssign(ObjectId id) {
    return spill_ ? spill_->MapOrAssign(id) : inmem_->MapOrAssign(id);
  }

  uint32_t num_ids() const {
    return spill_ ? spill_->num_ids() : inmem_->num_ids();
  }

  size_t peak_memory_bytes() const {
    return spill_ ? spill_->peak_memory_bytes() : 0;
  }
  size_t spilled_epochs() const { return spill_ ? spill_->spilled_epochs() : 0; }
  bool ok() const { return spill_ == nullptr || spill_->ok(); }
  std::string error() const {
    return spill_ ? spill_->error() : std::string();
  }

 private:
  std::unique_ptr<DenseIdMapper> inmem_;
  std::unique_ptr<SpillableDenseIdMapper> spill_;
};

}  // namespace

std::vector<SimResult> BatchReplayTrace(
    const DenseTrace& dense, const std::vector<BatchCellSpec>& cells,
    const BatchReplayOptions& options,
    const std::vector<ObjectId>* original_requests) {
  CellDriver driver(cells, dense.num_objects(), options, original_requests);
  const uint32_t* stream = dense.requests.data();
  const size_t num_requests = dense.requests.size();
  // Original-id cells share one translation of the current chunk.
  std::vector<ObjectId> original;
  if (driver.reads_original_ids()) {
    original.resize(std::min(options.chunk_size, num_requests));
  }
  for (size_t pos = 0; pos < num_requests; pos += options.chunk_size) {
    const size_t len = std::min(options.chunk_size, num_requests - pos);
    if (driver.reads_original_ids()) {
      for (size_t i = 0; i < len; ++i) {
        original[i] = dense.to_original[stream[pos + i]];
      }
    }
    driver.Feed(stream + pos, original.data(), len, dense.num_objects());
  }
  return driver.Results(dense.name);
}

StreamReplayResult StreamReplayTrace(TraceSource& source,
                                     const std::string& trace_name,
                                     const std::vector<BatchCellSpec>& cells,
                                     const StreamReplayOptions& options) {
  // The direct-indexed lane needs the universe size before the stream has
  // been seen, so it only engages when the caller supplies the hint. With
  // no original stream to construct it from, a Belady cell aborts here.
  CellDriver driver(cells, options.dense_universe, options, nullptr);
  StreamIdMapper mapper(options);
  std::unique_ptr<ShardsProfiler> profiler;
  if (options.shards_sample_rate > 0.0) {
    profiler = std::make_unique<ShardsProfiler>(options.shards_sample_rate);
  }

  StreamReplayResult result;
  std::vector<ObjectId> raw(options.chunk_size);
  std::vector<uint32_t> dense(options.chunk_size);
  while (const size_t len = source.NextChunk(raw.data(), options.chunk_size)) {
    for (size_t i = 0; i < len; ++i) {
      dense[i] = mapper.MapOrAssign(raw[i]);
    }
    if (profiler != nullptr) {
      for (size_t i = 0; i < len; ++i) {
        profiler->Record(raw[i]);
      }
    }
    driver.Feed(dense.data(), raw.data(), len, mapper.num_ids());
    result.num_requests += len;
  }

  result.num_objects = mapper.num_ids();
  result.mapper_peak_bytes = mapper.peak_memory_bytes();
  result.mapper_spilled_epochs = mapper.spilled_epochs();
  if (!source.ok()) {
    result.error = source.error();
    return result;
  }
  if (!mapper.ok()) {
    result.error = mapper.error();
    return result;
  }

  result.cells = driver.Results(trace_name);
  if (profiler != nullptr) {
    result.lru_mrc.reserve(options.mrc_sizes.size());
    for (const uint64_t size : options.mrc_sizes) {
      result.lru_mrc.emplace_back(size, profiler->MissRatioAt(size));
    }
  }
  result.ok = true;
  return result;
}

}  // namespace qdlp
