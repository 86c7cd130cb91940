// The per-layer ledger of the traced run.
//
// Each row times one layer through its public entry point, inside a span
// whose `ops` count turns the interval into a per-operation cost. The
// inputs are the workloads' own, made from the same seed: replay-grid's
// traces for the trace and policy layers, cache-churn's engine and key
// stream for the concurrent layers, serve-churn's op stream and value
// model for the store and server layers. README.md lists which end-to-end
// metric each row should move.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.h"
#include "serve_model.h"
#include "src/concurrent/striped_index.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/sim/batch_replay.h"
#include "src/sim/simulator.h"
#include "src/store/slab_store.h"
#include "src/trace/dense_trace.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace perfbench {

namespace {

double SpanNsPerOp(const SpanLog* log, uint64_t id) {
  const Span& span = log->Get(id);
  return span.ops == 0 ? 0.0
                       : static_cast<double>(span.end_ns - span.start_ns) /
                             static_cast<double>(span.ops);
}

// Runs fn() — which returns how many operations it did — inside a span
// named `name`, and returns the span's nanoseconds per operation.
template <typename Fn>
double NsPerOp(SpanLog* log, const char* name, uint64_t parent, Fn&& fn) {
  uint64_t id = 0;
  {
    ScopedSpan span(log, name, parent);
    span.set_ops(fn());
    id = span.id();
  }
  return SpanNsPerOp(log, id);
}

// The same across `threads` threads released together; body(t) returns
// the operations thread t did. Returns the per-thread cost of one
// operation: span time x threads / total operations.
template <typename Body>
double NsPerOpThreads(SpanLog* log, const char* name, uint64_t parent,
                      size_t threads, Body&& body) {
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<uint64_t> ops(threads, 0);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      ops[t] = body(t);
    });
  }
  while (ready.load() < threads) {
  }
  uint64_t id = 0;
  {
    ScopedSpan span(log, name, parent);
    go.store(true, std::memory_order_release);
    for (auto& worker : workers) {
      worker.join();
    }
    uint64_t total = 0;
    for (const uint64_t n : ops) {
      total += n;
    }
    span.set_ops(total);
    id = span.id();
  }
  return SpanNsPerOp(log, id) * static_cast<double>(threads);
}

// Span names must outlive the tracer's summary; per-policy names are built
// once here.
const std::vector<std::string>& PolicySpanNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const std::string& policy : GridPolicies()) {
      out.push_back("policy." + policy);
    }
    return out;
  }();
  return names;
}

void TraceAndPolicyRows(const Options& options, SpanLog* log,
                        uint64_t parent, Report& report) {
  std::vector<qdlp::Trace> traces;
  uint64_t generate_id = 0;
  {
    ScopedSpan span(log, "trace.generate_all", parent);
    traces = MakeGridTraces(options.seed, log, span.id());
    uint64_t requests = 0;
    for (const qdlp::Trace& trace : traces) {
      requests += trace.requests.size();
    }
    span.set_ops(requests);
    generate_id = span.id();
  }
  report.Add("trace.generate_ns_per_req", SpanNsPerOp(log, generate_id), "ns");
  std::vector<qdlp::DenseTrace> dense;
  report.Add("trace.densify_ns_per_req",
             NsPerOp(log, "trace.densify", parent,
                     [&] {
                       uint64_t n = 0;
                       for (const qdlp::Trace& trace : traces) {
                         dense.push_back(qdlp::DensifyTrace(trace));
                         n += trace.requests.size();
                       }
                       return n;
                     }),
             "ns");

  // One cell set per policy (both sizes) over every trace.
  const std::vector<std::string>& policies = GridPolicies();
  for (size_t p = 0; p < policies.size(); ++p) {
    double small = 0.0;
    double large = 0.0;
    const double ns = NsPerOp(log, PolicySpanNames()[p].c_str(), parent, [&] {
      uint64_t n = 0;
      for (size_t i = 0; i < traces.size(); ++i) {
        const std::vector<qdlp::BatchCellSpec> cells = {
            {policies[p], qdlp::CacheSizeForFraction(traces[i], 0.001)},
            {policies[p], qdlp::CacheSizeForFraction(traces[i], 0.10)}};
        const std::vector<qdlp::SimResult> results =
            qdlp::BatchReplayTrace(dense[i], cells, {}, &traces[i].requests);
        small += results[0].miss_ratio();
        large += results[1].miss_ratio();
        n += 2 * traces[i].requests.size();
      }
      return n;
    });
    const double count = static_cast<double>(traces.size());
    report.Add("policy." + policies[p] + ".ns_per_req", ns, "ns");
    report.Add("policy." + policies[p] + ".miss_ratio.small", small / count,
               "ratio");
    report.Add("policy." + policies[p] + ".miss_ratio.large", large / count,
               "ratio");
  }
}

void IndexRows(const Options& options, SpanLog* log, uint64_t parent,
               Report& report) {
  constexpr size_t kEntries = size_t{1} << 16;
  constexpr size_t kProbes = size_t{1} << 21;
  constexpr size_t kChurn = size_t{1} << 20;
  qdlp::Rng rng(options.seed ^ 0x1d3ull);
  const auto fresh_key = [&] { return rng.Next() >> 2; };  // never reserved
  qdlp::StripedAtomicIndex index(kEntries, 64);
  std::vector<uint64_t> present(kEntries);
  for (size_t i = 0; i < kEntries; ++i) {
    present[i] = fresh_key();
    index.Insert(present[i], static_cast<uint32_t>(i));
  }
  std::vector<uint64_t> hit_probes(kProbes);
  std::vector<uint64_t> miss_probes(kProbes);
  for (size_t i = 0; i < kProbes; ++i) {
    hit_probes[i] = present[rng.NextBounded(kEntries)];
    miss_probes[i] = fresh_key();
  }
  std::vector<uint64_t> newcomers(kChurn);
  for (uint64_t& key : newcomers) {
    key = fresh_key();
  }
  uint64_t found = 0;
  uint64_t sink = 0;
  const auto probe = [&](const std::vector<uint64_t>& keys) {
    for (const uint64_t key : keys) {
      uint32_t value = 0;
      found += index.Find(key, &value) ? 1 : 0;
      sink += value;
    }
    return keys.size();
  };
  report.Add("index.find_hit_ns",
             NsPerOp(log, "index.find_hit", parent,
                     [&] { return probe(hit_probes); }),
             "ns");
  const uint64_t hit_found = found;
  report.Add("index.find_miss_ns",
             NsPerOp(log, "index.find_miss", parent,
                     [&] { return probe(miss_probes); }),
             "ns");
  report.attempted += 2 * kProbes;
  if (hit_found != kProbes || found != kProbes) {
    ++report.failed;
    report.Diverged("ledger: StripedAtomicIndex lookups gave wrong answers");
  }
  // The miss path's churn: erase a victim, insert a newcomer.
  report.Add("index.insert_erase_ns",
             NsPerOp(log, "index.insert_erase", parent,
                     [&] {
                       for (size_t j = 0; j < kChurn; ++j) {
                         uint64_t& slot = present[j % kEntries];
                         index.Erase(slot);
                         slot = newcomers[j];
                         index.Insert(slot, static_cast<uint32_t>(j));
                       }
                       return kChurn;
                     }),
             "ns");
  index.CheckInvariants();
  std::printf("ledger: index checksum %llu\n",
              static_cast<unsigned long long>(sink));
}

void EngineRows(const Options& options, SpanLog* log, uint64_t parent,
                Report& report) {
  constexpr size_t kProbes = size_t{1} << 21;
  constexpr size_t kMisses = size_t{1} << 20;
  const size_t threads = Nproc();
  const qdlp::CacheConfig config = ChurnCacheConfig(8);
  qdlp::Rng rng(options.seed ^ 0xe91ull);

  // Hit only: half the capacity, touched until every key is resident.
  {
    std::unique_ptr<qdlp::Cache> cache = qdlp::MakeCache(config);
    const uint32_t hot = static_cast<uint32_t>(config.capacity / 2);
    for (int round = 0; round < 6; ++round) {
      uint64_t hits = 0;
      for (uint32_t key = 0; key < hot; ++key) {
        hits += cache->GetOrAdmit(key) ? 1 : 0;
      }
      if (hits == hot) {
        break;
      }
    }
    std::vector<uint32_t> probes(kProbes);
    for (uint32_t& key : probes) {
      key = static_cast<uint32_t>(rng.NextBounded(hot));
    }
    std::vector<uint64_t> hits(threads, 0);
    const auto run = [&](size_t t, size_t n) {
      uint64_t h = 0;
      for (size_t i = 0; i < n; ++i) {
        h += cache->GetOrAdmit(probes[(t * (kProbes / threads) + i) %
                                      kProbes])
                 ? 1
                 : 0;
      }
      hits[t] += h;
      return n;
    };
    report.Add("qdlp.get_hit_ns.1t",
               NsPerOp(log, "qdlp.get_hit_1t", parent,
                       [&] { return run(0, kProbes); }),
               "ns");
    report.Add("qdlp.get_hit_ns.nt",
               NsPerOpThreads(log, "qdlp.get_hit_nt", parent, threads,
                              [&](size_t t) { return run(t, kProbes); }),
               "ns");
    uint64_t total = 0;
    for (const uint64_t h : hits) {
      total += h;
    }
    std::printf("ledger: hit-only probes hit %.4f\n",
                static_cast<double>(total) /
                    static_cast<double>(kProbes * (threads + 1)));
  }

  // All miss: a full cache, then ids it has never seen.
  {
    std::unique_ptr<qdlp::Cache> cache = qdlp::MakeCache(config);
    for (uint64_t i = 0; i < 2 * config.capacity; ++i) {
      cache->GetOrAdmit((uint64_t{1} << 40) + i);
    }
    const auto run = [&](uint64_t base, size_t n) {
      for (size_t i = 0; i < n; ++i) {
        cache->GetOrAdmit(base + i);
      }
      return n;
    };
    report.Add("qdlp.get_miss_ns.1t",
               NsPerOp(log, "qdlp.get_miss_1t", parent,
                       [&] { return run(uint64_t{2} << 40, kMisses); }),
               "ns");
    report.Add("qdlp.get_miss_ns.nt",
               NsPerOpThreads(log, "qdlp.get_miss_nt", parent, threads,
                              [&](size_t t) {
                                return run((uint64_t{3 + t}) << 40, kMisses);
                              }),
               "ns");
  }

  // cache-churn's stream at nproc threads: per-miss flow and contention
  // counters at 8 domains, and at 1 domain, where admissions get dropped.
  const std::vector<uint32_t> stream = MakeChurnStream(options.seed);
  for (const size_t shards : {size_t{8}, size_t{1}}) {
    std::unique_ptr<qdlp::Cache> cache =
        qdlp::MakeCache(ChurnCacheConfig(shards));
    for (const uint32_t key : stream) {
      cache->GetOrAdmit(key);
    }
    const qdlp::CacheStats before = cache->Stats();
    NsPerOpThreads(log, shards == 8 ? "qdlp.churn_8shards" : "qdlp.churn_1shard",
                   parent, threads, [&](size_t t) {
                     const size_t start = t * (stream.size() / threads);
                     for (size_t i = 0; i < stream.size() / 2; ++i) {
                       cache->GetOrAdmit(
                           stream[(start + i) % stream.size()]);
                     }
                     return stream.size() / 2;
                   });
    const qdlp::CacheStats d = cache->Stats().DeltaSince(before);
    const double misses = static_cast<double>(d.misses);
    if (shards == 8) {
      report.Add("qdlp.lock_failures_per_miss",
                 static_cast<double>(d.lock_failures) / misses, "count");
      report.Add("qdlp.buffer_drops_per_miss",
                 static_cast<double>(d.buffer_drops) / misses, "count");
      report.Add("qdlp.ghost_hits_per_miss",
                 static_cast<double>(d.ghost_hits) / misses, "count");
      report.Add("qdlp.promotions_per_miss",
                 static_cast<double>(d.promotions) / misses, "count");
      report.Add("qdlp.demotions_per_miss",
                 static_cast<double>(d.demotions) / misses, "count");
      cache->CheckInvariants();
      continue;
    }
    report.Add("qdlp.buffer_drops_per_miss.1shard",
               static_cast<double>(d.buffer_drops) / misses, "count");

    // Delete on the churned one-domain cache (the qdlpd default) of keys
    // admitted just before, which still sit in probation — the removal that
    // compacts the probation ring. Each Delete is timed alone.
    constexpr uint64_t kDeletes = 2000;
    std::vector<uint64_t> fresh(kDeletes);
    for (uint64_t i = 0; i < kDeletes; ++i) {
      fresh[i] = (uint64_t{5} << 40) + i;
      cache->GetOrAdmit(fresh[i]);
    }
    for (uint64_t i = kDeletes - 1; i > 0; --i) {
      std::swap(fresh[i], fresh[rng.NextBounded(i + 1)]);
    }
    uint64_t deleted = 0;
    uint64_t deleted_ns = 0;
    {
      ScopedSpan span(log, "qdlp.delete", parent);
      for (const uint64_t key : fresh) {
        const uint64_t start = NowNs();
        const bool removed = cache->Delete(key);
        const uint64_t elapsed = NowNs() - start;
        if (removed) {
          ++deleted;
          deleted_ns += elapsed;
        }
      }
      span.set_ops(deleted);
    }
    report.Add("qdlp.delete_us",
               deleted == 0 ? 0.0
                            : static_cast<double>(deleted_ns) / 1e3 /
                                  static_cast<double>(deleted),
               "us");
    cache->CheckInvariants();
  }
}

void StoreRows(const Options& options, SpanLog* log, uint64_t parent,
               Report& report) {
  constexpr size_t kCells = 1024;
  qdlp::SlabStore store(kCells, 1, size_t{64} << 20, size_t{4} << 20);
  qdlp::Rng rng(options.seed ^ 0x51abull);
  std::string data(16384, '\0');
  for (char& c : data) {
    c = static_cast<char>(rng.Next());
  }
  std::vector<uint64_t> owner(kCells, 0);
  std::string out;
  const std::pair<size_t, const char*> sizes[] = {
      {32, "32B"}, {1024, "1KiB"}, {16384, "16KiB"}};
  for (const auto& [len, label] : sizes) {
    const size_t iters = len >= 16384 ? 50000 : 200000;
    uint64_t failures = 0;
    report.Add(std::string("slab.alloc_free_ns.") + label,
               NsPerOp(log, "slab.alloc_free", parent,
                       [&] {
                         for (size_t i = 0; i < iters; ++i) {
                           const auto chunk = store.Allocate(0, len);
                           failures += chunk == qdlp::SlabStore::kNullChunk;
                           store.FreeChunk(chunk);
                         }
                         return iters;
                       }),
               "ns");
    report.Add(std::string("slab.write_commit_ns.") + label,
               NsPerOp(log, "slab.write_commit", parent,
                       [&] {
                         for (size_t i = 0; i < iters; ++i) {
                           const uint32_t cell =
                               static_cast<uint32_t>(i % kCells);
                           const auto chunk = store.Allocate(0, len);
                           failures += chunk == qdlp::SlabStore::kNullChunk;
                           store.WriteChunk(chunk, data.data(), len);
                           store.FreeChunk(store.Commit(cell, i + 1, chunk, 0));
                           owner[cell] = i + 1;
                         }
                         return iters;
                       }),
               "ns");
    report.Add(std::string("slab.read_ns.") + label,
               NsPerOp(log, "slab.read", parent,
                       [&] {
                         for (size_t i = 0; i < iters; ++i) {
                           const uint32_t cell =
                               static_cast<uint32_t>(i % kCells);
                           failures += store.Read(cell, owner[cell], 0, &out) !=
                                       qdlp::SlabStore::ReadResult::kHit;
                         }
                         return iters;
                       }),
               "ns");
    report.attempted += 3 * iters;
    if (failures > 0 || out != data.substr(0, len)) {
      report.failed += failures;
      report.Diverged(std::string("ledger: SlabStore misbehaved at ") + label);
    }
    for (uint32_t cell = 0; cell < kCells; ++cell) {
      store.FreeChunk(store.ClearCell(cell));
    }
  }
  store.CheckInvariants();
}

// Value-path costs from serve-churn's op stream replayed in process on the
// served engine, each call timed alone; also the Stats() snapshot cost.
struct ValueCosts {
  double get_hit_ns = 0.0;
  double get_miss_ns = 0.0;
  double set_ns = 0.0;
  double delete_ns = 0.0;
};

ValueCosts ValueRows(const Options& options, SpanLog* log, uint64_t parent,
                     Report& report) {
  constexpr size_t kWarm = 300000;
  constexpr size_t kTimed = 600000;
  std::unique_ptr<qdlp::Cache> cache =
      qdlp::MakeCache(qdlp::QdlpdOptions::DefaultCacheConfig());
  const std::vector<uint32_t> ops = MakeServeOps(options.seed);
  const ValueModel model(options.seed);
  std::vector<uint32_t> version(ServeKeyspace(), 0);
  std::vector<bool> present(ServeKeyspace(), false);
  std::string value;
  std::string fill;
  uint64_t ns[4] = {0, 0, 0, 0};  // get hit, get miss, set, delete
  uint64_t count[4] = {0, 0, 0, 0};
  uint64_t mismatches = 0;
  uint64_t set_failures = 0;
  qdlp::CacheStats before;
  ScopedSpan span(log, "value.replay", parent);
  for (size_t i = 0; i < kWarm + kTimed; ++i) {
    if (i == kWarm) {
      before = cache->Stats();
    }
    const uint32_t op = ops[i % ops.size()];
    const uint32_t key = op & ~kDeleteBit;
    const bool timed = i >= kWarm;
    if (op & kDeleteBit) {
      const uint64_t start = NowNs();
      cache->Delete(key);
      ns[3] += timed ? NowNs() - start : 0;
      count[3] += timed;
      present[key] = false;
      continue;
    }
    uint64_t start = NowNs();
    const bool hit = cache->Get(key, &value);
    const uint64_t elapsed = NowNs() - start;
    if (hit) {
      ns[0] += timed ? elapsed : 0;
      count[0] += timed;
      mismatches += !present[key] ||
                    !model.Matches(key, version[key], value.data(),
                                   value.size());
      continue;
    }
    ns[1] += timed ? elapsed : 0;
    count[1] += timed;
    model.Build(key, version[key] + 1, &fill);
    start = NowNs();
    const bool stored = cache->Set(key, fill, 0) == qdlp::Cache::SetStatus::kOk;
    ns[2] += timed ? NowNs() - start : 0;
    count[2] += timed;
    ++version[key];
    present[key] = stored;
    set_failures += !stored;
  }
  span.set_ops(kTimed);
  const qdlp::CacheStats delta = cache->Stats().DeltaSince(before);
  report.attempted += kWarm + kTimed;
  report.failed += mismatches + set_failures;
  if (mismatches > 0) {
    report.Diverged("ledger: in-process GET returned bytes other than the "
                    "last SET");
  }
  const auto mean = [&](int k) {
    return count[k] == 0 ? 0.0
                         : static_cast<double>(ns[k]) /
                               static_cast<double>(count[k]);
  };
  ValueCosts costs{mean(0), mean(1), mean(2), mean(3)};
  report.Add("value.get_hit_ns", costs.get_hit_ns, "ns");
  report.Add("value.get_miss_ns", costs.get_miss_ns, "ns");
  report.Add("value.set_ns", costs.set_ns, "ns");
  report.Add("value.delete_ns", costs.delete_ns, "ns");
  report.Add("value.evictions_per_set",
             static_cast<double>(delta.evictions) /
                 static_cast<double>(std::max<uint64_t>(1, count[2])),
             "count");
  constexpr uint64_t kSnapshots = 2000;
  report.Add("obs.stats_us",
             NsPerOp(log, "obs.stats", parent,
                     [&] {
                       uint64_t sum = 0;
                       for (uint64_t i = 0; i < kSnapshots; ++i) {
                         sum += cache->Stats().requests;
                       }
                       return sum > 0 ? kSnapshots : 0;
                     }) /
                 1e3,
             "us");
  return costs;
}

// Frame parse and encode costs over serve-churn's request mix: GETs and
// DELETEs from the op stream plus a SET fill for every fifth GET.
void ProtocolRows(const Options& options, SpanLog* log, uint64_t parent,
                  Report& report, double* parse_ns, double* encode_ns) {
  constexpr size_t kOps = 100000;
  const std::vector<uint32_t> ops = MakeServeOps(options.seed);
  const ValueModel model(options.seed);
  std::string requests;
  std::string fill;
  size_t frames = 0;
  for (size_t i = 0; i < kOps; ++i) {
    const uint32_t key = ops[i] & ~kDeleteBit;
    if (ops[i] & kDeleteBit) {
      qdlp::AppendDeleteRequest(&requests, key);
    } else {
      qdlp::AppendGetRequest(&requests, key);
      if (i % 5 == 0) {
        model.Build(key, 1, &fill);
        qdlp::AppendSetRequest(&requests, key, 0, fill);
        ++frames;
      }
    }
    ++frames;
  }
  const auto* bytes = reinterpret_cast<const uint8_t*>(requests.data());
  uint64_t parsed = 0;
  uint64_t sink = 0;
  *parse_ns = NsPerOp(log, "proto.parse", parent, [&] {
    for (int rep = 0; rep < 10; ++rep) {
      size_t off = 0;
      qdlp::Frame frame;
      size_t consumed = 0;
      while (qdlp::ParseFrame(bytes + off, requests.size() - off, &frame,
                              &consumed) == qdlp::ParseStatus::kFrame) {
        off += consumed;
        sink += frame.key + frame.body_len;
        ++parsed;
      }
    }
    return parsed;
  });
  report.attempted += 1;
  if (parsed != 10 * frames) {
    ++report.failed;
    report.Diverged("ledger: ParseFrame did not return every encoded frame");
  }
  // Responses: a GET hit carries the value bytes, everything else is empty.
  std::string blob(ValueModel::kMaxLen, 'v');
  std::string out;
  *encode_ns = NsPerOp(log, "proto.encode", parent, [&] {
    uint64_t n = 0;
    for (int rep = 0; rep < 5; ++rep) {
      for (size_t i = 0; i < kOps; ++i) {
        const uint32_t key = ops[i] & ~kDeleteBit;
        if (ops[i] & kDeleteBit) {
          qdlp::AppendFrame(&out, qdlp::Op::kDelete, qdlp::Status::kOk, key,
                            nullptr, 0);
        } else if (i % 5 == 0) {
          qdlp::AppendFrame(&out, qdlp::Op::kGet, qdlp::Status::kMiss, key,
                            nullptr, 0);
          qdlp::AppendFrame(&out, qdlp::Op::kSet, qdlp::Status::kOk, key,
                            nullptr, 0);
          ++n;
        } else {
          qdlp::AppendFrame(&out, qdlp::Op::kGet, qdlp::Status::kOk, key,
                            blob.data(), model.Size(key));
        }
        ++n;
        if (out.size() > (size_t{256} << 10)) {
          sink += out.size();
          out.clear();
        }
      }
    }
    return n;
  });
  std::printf("ledger: protocol checksum %llu\n",
              static_cast<unsigned long long>(sink));
  report.Add("proto.parse_ns_per_frame", *parse_ns, "ns");
  report.Add("proto.encode_ns_per_frame", *encode_ns, "ns");
}

}  // namespace

void RunLedger(const Options& options, Tracer& tracer, Report& report) {
  QDLP_CHECK(tracer.enabled());
  SpanLog* log = tracer.NewLog();
  ScopedSpan root(log, "ledger");
  TraceAndPolicyRows(options, log, root.id(), report);
  IndexRows(options, log, root.id(), report);
  EngineRows(options, log, root.id(), report);
  StoreRows(options, log, root.id(), report);
  const ValueCosts value = ValueRows(options, log, root.id(), report);
  double parse_ns = 0.0;
  double encode_ns = 0.0;
  ProtocolRows(options, log, root.id(), report, &parse_ns, &encode_ns);

  const ServeLedgerRows serve =
      MeasureServeLedger(options, 2.0, tracer, report);
  report.Add("sock.ping_rtt_us", serve.ping_rtt_us, "us");
  report.Add("sock.ping_ns_per_frame", serve.ping_ns_per_frame, "ns");
  report.Add("serve.ns_per_req", serve.ns_per_req, "ns");
  // Reconciliation: what one served request costs end to end, minus the
  // layers it passes through. Growth here is a cost no row accounts for.
  const double cache_op = serve.frac_get_hit * value.get_hit_ns +
                          serve.frac_get_miss * value.get_miss_ns +
                          serve.frac_set * value.set_ns +
                          serve.frac_delete * value.delete_ns;
  report.Add("serve.gap_ns_per_req",
             serve.ns_per_req -
                 (parse_ns + cache_op + encode_ns + serve.ping_ns_per_frame),
             "ns");
}

}  // namespace perfbench
