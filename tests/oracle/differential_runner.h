// Lockstep differential replay: a production cache (the subject) and a
// reference model (the oracle) consume the same request stream; the runner
// cross-checks their decisions and the subject's structural invariants.
//
// Two comparison modes:
//  * exact (divergence_slack == 0): every request's hit/miss outcome must
//    match, and occupancy must agree after every request. For policies with
//    a deterministic spec (FIFO, LRU, LFU, CLOCK, SIEVE, S3-FIFO, the QD
//    composition, and the concurrent caches driven single-threaded).
//  * bounded (divergence_slack > 0): adaptive policies (ARC, LIRS,
//    CLOCK-Pro, W-TinyLFU, ...) legitimately disagree with any simple
//    oracle per-request; the runner instead bounds the cumulative hit-count
//    divergence and keeps the self-consistency checks (hit iff resident
//    before, size <= capacity, invariants) which are oracle-independent.
//
// The runner is gtest-free on purpose: fuzz drivers reuse it.

#ifndef QDLP_TESTS_ORACLE_DIFFERENTIAL_RUNNER_H_
#define QDLP_TESTS_ORACLE_DIFFERENTIAL_RUNNER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/concurrent/concurrent_cache.h"
#include "src/policies/eviction_policy.h"
#include "tests/oracle/reference_models.h"

namespace qdlp {
namespace oracle {

// Adapts anything with a bool-returning access operation to the runner.
// Size/Contains are optional: concurrent caches don't all expose them.
class DiffSubject {
 public:
  virtual ~DiffSubject() = default;

  virtual bool Access(ObjectId id) = 0;
  virtual size_t capacity() const = 0;
  virtual std::optional<size_t> Size() const { return std::nullopt; }
  virtual std::optional<bool> Contains(ObjectId /*id*/) const {
    return std::nullopt;
  }
  // Structural self-validation (aborts via QDLP_CHECK on violation).
  virtual void CheckInvariants() const {}
};

// Subject backed by a sequential EvictionPolicy.
class PolicySubject : public DiffSubject {
 public:
  explicit PolicySubject(EvictionPolicy& policy) : policy_(policy) {}

  bool Access(ObjectId id) override { return policy_.Access(id); }
  size_t capacity() const override { return policy_.capacity(); }
  std::optional<size_t> Size() const override { return policy_.size(); }
  std::optional<bool> Contains(ObjectId id) const override {
    return policy_.Contains(id);
  }
  void CheckInvariants() const override { policy_.CheckInvariants(); }

 private:
  EvictionPolicy& policy_;
};

// Subject backed by a thread-safe engine's Cache face, driven from one
// thread. Cache exposes neither size nor membership; CheckInvariants is
// non-const there (it takes the cache's locks).
class ConcurrentSubject : public DiffSubject {
 public:
  explicit ConcurrentSubject(Cache& cache) : cache_(cache) {}

  bool Access(ObjectId id) override { return cache_.GetOrAdmit(id); }
  size_t capacity() const override { return cache_.capacity(); }
  void CheckInvariants() const override { cache_.CheckInvariants(); }

 private:
  Cache& cache_;
};

struct DiffOptions {
  // 0 = exact mode. Otherwise the allowed cumulative hit-count divergence
  // is divergence_slack * requests_so_far + divergence_grace.
  double divergence_slack = 0.0;
  uint64_t divergence_grace = 300;
  // Run the subject's CheckInvariants every this many requests (and once at
  // the end). The checks are O(size); a prime stride keeps them cheap while
  // still catching corruption close to where it happened. When the build
  // defines QDLP_CHECK_INVARIANTS, sequential policies additionally
  // self-check after every access regardless of this setting.
  uint64_t invariant_stride = 61;
};

struct DiffOutcome {
  bool ok = true;
  std::string failure;  // empty when ok
  uint64_t requests = 0;
  uint64_t subject_hits = 0;
  uint64_t oracle_hits = 0;
};

// Replays `requests` through subject and oracle in lockstep. Returns the
// first failure (decision mismatch, occupancy mismatch, self-inconsistency,
// divergence budget exceeded) or ok = true. Invariant violations abort via
// QDLP_CHECK inside the subject.
DiffOutcome RunDifferential(DiffSubject& subject, ReferenceModel& model,
                            const std::vector<ObjectId>& requests,
                            const DiffOptions& options = {});

}  // namespace oracle
}  // namespace qdlp

#endif  // QDLP_TESTS_ORACLE_DIFFERENTIAL_RUNNER_H_
