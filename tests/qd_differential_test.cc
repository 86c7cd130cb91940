// Differential testing: the generic QdCache wrapper over 2-bit CLOCK vs the
// independently-written naive reference model in tests/oracle/. Every
// request's hit/miss outcome must match exactly across random workloads,
// capacities, and seeds — the strongest guard against subtle queue/ghost
// bookkeeping bugs. (The broader zoo-wide sweep lives in
// oracle_differential_test.cc; this test keeps direct control over the
// probation/main/ghost split and hammers it with adversarial id mixes.)

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/core/policy_factory.h"
#include "src/core/qd_cache.h"
#include "src/util/random.h"
#include "src/util/zipf.h"
#include "tests/oracle/reference_models.h"

namespace qdlp {
namespace {

struct FuzzCase {
  uint64_t seed;
  size_t probation;
  size_t main;
};

class QdDifferentialTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(QdDifferentialTest, HitMissSequencesMatchReference) {
  const FuzzCase fuzz = GetParam();
  QdCache real(fuzz.probation, MakePolicy("clock2", fuzz.main));
  // QdCache sizes its ghost as main * ghost_factor (default 1.0).
  oracle::RefQdLpFifo reference(fuzz.probation, fuzz.main, fuzz.main);

  Rng rng(fuzz.seed);
  ZipfSampler zipf(500, 0.9);
  ObjectId wonder = 1u << 20;
  for (int i = 0; i < 40000; ++i) {
    ObjectId id;
    const double kind = rng.NextDouble();
    if (kind < 0.6) {
      id = zipf.Sample(rng);  // popular core
    } else if (kind < 0.8) {
      id = 1000 + rng.NextBounded(5000);  // lukewarm band
    } else {
      id = wonder++;  // one-hit wonders
    }
    ASSERT_EQ(real.Access(id), reference.Access(id))
        << "diverged at request " << i << " (id " << id << ")";
    ASSERT_EQ(real.size(), reference.size())
        << "occupancy diverged at request " << i << " (id " << id << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, QdDifferentialTest,
    ::testing::Values(FuzzCase{11, 5, 45}, FuzzCase{12, 10, 90},
                      FuzzCase{13, 3, 17}, FuzzCase{14, 1, 9},
                      FuzzCase{15, 20, 60}, FuzzCase{16, 7, 193}),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_p" +
             std::to_string(info.param.probation) + "_m" +
             std::to_string(info.param.main);
    });

}  // namespace
}  // namespace qdlp
