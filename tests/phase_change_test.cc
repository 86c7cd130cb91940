// The footnote-2 conjecture: the impression that CLOCK is worse than LRU
// "came from the 1960s when LRU and CLOCK were designed for virtual memory
// page replacement", where working sets change abruptly between phases; the
// paper conjectures LRU adapts to such phase changes better than CLOCK, and
// observes that block/web cache workloads do not have them. These tests pin
// both halves on synthetic workloads.

#include <gtest/gtest.h>

#include "src/core/policy_factory.h"
#include "src/policies/lru.h"
#include "src/trace/generators.h"

namespace qdlp {
namespace {

uint64_t HitsOf(EvictionPolicy& policy, const Trace& trace) {
  uint64_t hits = 0;
  for (const ObjectId id : trace.requests) {
    hits += policy.Access(id) ? 1 : 0;
  }
  return hits;
}

TEST(PhaseChangeTest, GeneratorProducesDisjointPhases) {
  PhaseChangeConfig config;
  config.num_requests = 30000;
  config.working_set = 1000;
  config.phase_length = 10000;
  config.seed = 901;
  const Trace trace = GeneratePhaseChange(config);
  // Phase k draws ids from [k*W, (k+1)*W).
  for (uint64_t i = 0; i < trace.requests.size(); ++i) {
    const uint64_t phase = i / config.phase_length;
    ASSERT_GE(trace.requests[i], phase * config.working_set);
    ASSERT_LT(trace.requests[i], (phase + 1) * config.working_set);
  }
  EXPECT_GT(trace.num_objects, 2000u);  // at least two disjoint sets touched
}

TEST(PhaseChangeTest, LruAdaptsToAbruptPhasesBetterThanClock) {
  // The regime the paper concedes to LRU. Cache smaller than one working
  // set; at each phase switch CLOCK's surviving reference bits make it
  // keep dead pages for extra sweeps, while LRU flushes them in one pass.
  PhaseChangeConfig config;
  config.num_requests = 120000;
  config.working_set = 3000;
  config.skew = 0.6;  // flat-ish: most of the working set matters
  config.phase_length = 8000;
  config.seed = 903;
  const Trace trace = GeneratePhaseChange(config);
  constexpr size_t kCapacity = 2000;
  LruPolicy lru(kCapacity);
  const auto clock = MakePolicy("clock2", kCapacity);
  const uint64_t lru_hits = HitsOf(lru, trace);
  const uint64_t clock_hits = HitsOf(*clock, trace);
  EXPECT_GT(lru_hits, clock_hits);
}

TEST(PhaseChangeTest, NoPhasesMeansClockWinsAgain) {
  // The same parameters with a single endless phase flips the result back
  // to the paper's main finding (LP-FIFO >= LRU on cache workloads).
  PhaseChangeConfig config;
  config.num_requests = 120000;
  config.working_set = 3000;
  config.skew = 0.6;
  config.phase_length = 200000;  // never switches
  config.seed = 905;
  const Trace trace = GeneratePhaseChange(config);
  constexpr size_t kCapacity = 2000;
  LruPolicy lru(kCapacity);
  const auto clock = MakePolicy("clock2", kCapacity);
  const uint64_t lru_hits = HitsOf(lru, trace);
  const uint64_t clock_hits = HitsOf(*clock, trace);
  EXPECT_GE(clock_hits, lru_hits);
}

}  // namespace
}  // namespace qdlp
