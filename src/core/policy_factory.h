// Policy factory: build any eviction policy — including QD-composed ones —
// from a name and a total capacity budget. This is the public entry point
// the simulator, benches, and examples use.
//
// Recognized names:
//   fifo, lru, lfu, random, slru, 2q, arc, lirs, lecar, cacheus, lhd,
//   hyperbolic, belady (requires a trace), fifo-reinsertion (= clock1),
//   clock2, clock3, sieve, s3fifo,
//   qd-lp-fifo (probationary FIFO + ghost + 2-bit CLOCK main, the paper's
//   §4 algorithm), and qd-<base> for any non-composed base above
//   (e.g. qd-arc, qd-lirs, qd-lecar, qd-cacheus, qd-lhd).
//
// fifo-reinsertion/clock*, s3fifo and qd-lp-fifo run the lock-free caches'
// Regions single-threaded (regions_policy.h), so each of those designs has
// one implementation across MakePolicy, MakeDensePolicy and the concurrent
// caches.
//
// Two lanes (the replay engine picks per cell, src/sim/replay_engine.cc):
// MakePolicy's policies take original ids over FlatMap indexes;
// MakeDensePolicy's take dense ids over direct-indexed slot arrays. The
// dense lane covers fifo, lru, sieve, the CLOCK family, s3fifo, qd-lp-fifo,
// Fig 5's arc, arc-slow, arc-fixed, lirs, lecar, cacheus and lhd, and
// qd-<base> over each of those.
//
// For QD-composed policies the capacity is the *total* budget: 10% goes to
// the probationary FIFO and 90% to the main policy, as in the paper.

#ifndef QDLP_SRC_CORE_POLICY_FACTORY_H_
#define QDLP_SRC_CORE_POLICY_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/qd_cache.h"
#include "src/policies/eviction_policy.h"

namespace qdlp {

// Returns nullptr for unknown names or when "belady" is requested without a
// trace. Capacity must be >= 1 (>= 2 for QD compositions, checked).
std::unique_ptr<EvictionPolicy> MakePolicy(
    const std::string& name, size_t capacity,
    const std::vector<ObjectId>* trace = nullptr);

// Builds a QD wrapper with the given options around a named base policy.
std::unique_ptr<EvictionPolicy> MakeQdPolicy(
    const std::string& base_name, size_t total_capacity,
    const QdOptions& options = {},
    const std::vector<ObjectId>* trace = nullptr);

// True if `name` has a dense-index variant (MakeDensePolicy accepts it) AND
// its eviction decisions are invariant under a bijective id remap, so
// feeding it dense ids yields bit-identical miss ratios. The batched sweep
// engine uses this to pick the fast path per cell. A qd-<base> name has one
// exactly when its base does.
bool HasDenseVariant(const std::string& name);

// Builds the dense-index variant of `name`: identical eviction logic, but
// every id index is a direct-indexed slot array over [0, universe) instead
// of an open-addressing hash map. Ids fed to the returned policy must be
// dense (see trace/dense_trace.h). Returns nullptr for names without a
// dense variant. Each dense variant is the flat one's code over the other
// index, so miss ratios match the flat variant bit for bit.
std::unique_ptr<EvictionPolicy> MakeDensePolicy(const std::string& name,
                                                size_t capacity,
                                                uint64_t universe);

// All names MakePolicy accepts (Belady included), for docs/tests/sweeps.
std::vector<std::string> KnownPolicyNames();

}  // namespace qdlp

#endif  // QDLP_SRC_CORE_POLICY_FACTORY_H_
