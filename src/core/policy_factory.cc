#include "src/core/policy_factory.h"

#include "src/core/regions_policy.h"
#include "src/core/sieve.h"
#include "src/policies/arc.h"
#include "src/policies/belady.h"
#include "src/policies/cacheus.h"
#include "src/policies/car.h"
#include "src/policies/clockpro.h"
#include "src/policies/fifo.h"
#include "src/policies/hyperbolic.h"
#include "src/policies/lazy_lru.h"
#include "src/policies/lecar.h"
#include "src/policies/lfu.h"
#include "src/policies/lhd.h"
#include "src/policies/lirs.h"
#include "src/policies/lru.h"
#include "src/policies/lruk.h"
#include "src/policies/mq.h"
#include "src/policies/random_policy.h"
#include "src/policies/slru.h"
#include "src/policies/twoq.h"
#include "src/policies/wtinylfu.h"
#include "src/util/check.h"

namespace qdlp {

namespace {

// The designs whose one implementation is the lock-free caches' Regions,
// run single-threaded over `factory`'s index (regions_policy.h).
template <typename IndexFactory>
std::unique_ptr<EvictionPolicy> MakeRegionsPolicy(const std::string& name,
                                                  size_t capacity,
                                                  const IndexFactory& factory) {
  int bits = 0;
  if (name == "fifo-reinsertion" || name == "clock" || name == "clock1") {
    bits = 1;
  } else if (name == "clock2") {
    bits = 2;
  } else if (name == "clock3") {
    bits = 3;
  }
  if (bits > 0) {
    // 1-bit CLOCK is FIFO-Reinsertion (§3), and reports that name.
    return std::make_unique<RegionsPolicy<ClockRegions, IndexFactory>>(
        capacity, bits == 1 ? "fifo-reinsertion" : name, factory, bits);
  }
  if (name == "s3fifo") {
    return std::make_unique<RegionsPolicy<S3FifoRegions, IndexFactory>>(
        capacity, name, factory);
  }
  if (name == "qd-lp-fifo") {
    return std::make_unique<RegionsPolicy<QdLpRegions, IndexFactory>>(
        capacity, name, factory);
  }
  return nullptr;
}

// The designs with one implementation over either index backing: the
// flat one is MakePolicy's, the dense one MakeDensePolicy's. Each is built
// with its constructor's defaults.
template <typename IndexFactory>
std::unique_ptr<EvictionPolicy> MakeIndexedBase(const std::string& name,
                                                size_t capacity,
                                                const IndexFactory& factory) {
  if (name == "fifo") {
    return std::make_unique<BasicFifoPolicy<IndexFactory>>(capacity, factory);
  }
  if (name == "lru") {
    return std::make_unique<BasicLruPolicy<IndexFactory>>(capacity, factory);
  }
  if (name == "sieve") {
    return std::make_unique<BasicSievePolicy<IndexFactory>>(capacity, factory);
  }
  if (name == "arc") {
    return std::make_unique<BasicArcPolicy<IndexFactory>>(capacity, 1.0, -1.0,
                                                          factory);
  }
  if (name == "arc-slow") {
    return std::make_unique<BasicArcPolicy<IndexFactory>>(
        capacity, /*adaptation_rate=*/0.25, -1.0, factory);
  }
  if (name == "arc-fixed") {
    return std::make_unique<BasicArcPolicy<IndexFactory>>(
        capacity, 1.0, /*fixed_p_fraction=*/0.1, factory);
  }
  if (name == "lirs") {
    return std::make_unique<BasicLirsPolicy<IndexFactory>>(capacity, 0.01, 3.0,
                                                           factory);
  }
  if (name == "lecar") {
    return std::make_unique<BasicLecarPolicy<IndexFactory>>(capacity, 7, 0.45,
                                                            factory);
  }
  if (name == "cacheus") {
    return std::make_unique<BasicCacheusPolicy<IndexFactory>>(capacity, 11,
                                                              factory);
  }
  if (name == "lhd") {
    return std::make_unique<BasicLhdPolicy<IndexFactory>>(capacity, 13,
                                                          factory);
  }
  return MakeRegionsPolicy(name, capacity, factory);
}

std::unique_ptr<EvictionPolicy> MakeBase(const std::string& name,
                                         size_t capacity,
                                         const std::vector<ObjectId>* trace) {
  if (name == "lfu") {
    return std::make_unique<LfuPolicy>(capacity);
  }
  if (name == "random") {
    return std::make_unique<RandomPolicy>(capacity);
  }
  if (name == "slru") {
    return std::make_unique<SlruPolicy>(capacity);
  }
  if (name == "2q") {
    return std::make_unique<TwoQPolicy>(capacity);
  }
  if (name == "car") {
    return std::make_unique<CarPolicy>(capacity);
  }
  if (name == "mq") {
    return std::make_unique<MqPolicy>(capacity);
  }
  if (name == "lru2") {
    return std::make_unique<LruKPolicy>(capacity, 2);
  }
  if (name == "wtinylfu") {
    return std::make_unique<WTinyLfuPolicy>(capacity);
  }
  if (name == "lru-batched") {
    return std::make_unique<BatchedPromotionLru>(capacity);
  }
  if (name == "lru-promote-old") {
    return std::make_unique<PromoteOldOnlyLru>(capacity);
  }
  if (name == "hyperbolic") {
    return std::make_unique<HyperbolicPolicy>(capacity);
  }
  if (name == "clockpro") {
    return std::make_unique<ClockProPolicy>(capacity);
  }
  if (name == "belady") {
    if (trace == nullptr) {
      return nullptr;
    }
    return std::make_unique<BeladyPolicy>(capacity, *trace);
  }
  return MakeIndexedBase(name, capacity, FlatIndexFactory{});
}

// The paper's budget split: QdCache over the main policy `make_main`
// builds for the remainder of `total_capacity` after probation.
template <typename IndexFactory, typename MakeMain>
std::unique_ptr<EvictionPolicy> MakeQdCache(size_t total_capacity,
                                            const QdOptions& options,
                                            const IndexFactory& factory,
                                            MakeMain&& make_main) {
  QDLP_CHECK(total_capacity >= 2);
  QDLP_CHECK(options.probation_fraction > 0.0 && options.probation_fraction < 1.0);
  const size_t probation =
      QdProbationCapacity(total_capacity, options.probation_fraction);
  auto main = make_main(total_capacity - probation);
  if (main == nullptr) {
    return nullptr;
  }
  return std::make_unique<BasicQdCache<IndexFactory>>(
      probation, std::move(main), options, factory);
}

// Base names MakeIndexedBase builds.
bool IsIndexedBase(const std::string& name) {
  static const char* const kIndexed[] = {
      "fifo",       "lru",     "sieve",  "arc",    "arc-slow",
      "arc-fixed",  "lirs",    "lecar",  "cacheus", "lhd",
      "fifo-reinsertion",      "clock",  "clock1", "clock2",
      "clock3",     "s3fifo",  "qd-lp-fifo",
  };
  for (const char* indexed : kIndexed) {
    if (name == indexed) {
      return true;
    }
  }
  return false;
}

bool IsQdComposition(const std::string& name) {
  return name.rfind("qd-", 0) == 0 && name != "qd-lp-fifo";
}

}  // namespace

std::unique_ptr<EvictionPolicy> MakeQdPolicy(const std::string& base_name,
                                             size_t total_capacity,
                                             const QdOptions& options,
                                             const std::vector<ObjectId>* trace) {
  return MakeQdCache(
      total_capacity, options, FlatIndexFactory{},
      [&](size_t main_capacity) -> std::unique_ptr<EvictionPolicy> {
        if (base_name == "belady" || base_name.rfind("qd-", 0) == 0) {
          // Belady consumes the trace positionally; behind a QD filter its
          // next-use bookkeeping would desynchronize from the request
          // stream. And QD composes over plain bases only.
          return nullptr;
        }
        return MakeBase(base_name, main_capacity, trace);
      });
}

// Every name MakeIndexedBase builds has a dense variant, and so does
// qd-<base> over each of them (QD composes over plain bases only). None of
// these policies reads an id's value or hash, or iterates a hash table:
// their decisions depend on ids only through index lookups and their own
// lists' order (LHD samples its object vector by position, which the
// access sequence alone determines), so a bijective remap to dense ids
// cannot change any eviction decision. Policies that sample the index
// (random, hyperbolic) or hash ids into sketches (wtinylfu) have none.
bool HasDenseVariant(const std::string& name) {
  if (IsQdComposition(name)) {
    const std::string base = name.substr(3);
    return base.rfind("qd-", 0) != 0 && IsIndexedBase(base);
  }
  return IsIndexedBase(name);
}

std::unique_ptr<EvictionPolicy> MakeDensePolicy(const std::string& name,
                                                size_t capacity,
                                                uint64_t universe) {
  if (!HasDenseVariant(name)) {
    return nullptr;
  }
  const DenseIndexFactory factory{universe};
  if (IsQdComposition(name)) {
    return MakeQdCache(capacity, QdOptions{}, factory,
                       [&](size_t main_capacity) {
                         return MakeIndexedBase(name.substr(3), main_capacity,
                                                factory);
                       });
  }
  return MakeIndexedBase(name, capacity, factory);
}

std::unique_ptr<EvictionPolicy> MakePolicy(const std::string& name,
                                           size_t capacity,
                                           const std::vector<ObjectId>* trace) {
  if (auto policy = MakeBase(name, capacity, trace)) {
    return policy;
  }
  if (name.rfind("qd-", 0) == 0) {
    return MakeQdPolicy(name.substr(3), capacity, QdOptions{}, trace);
  }
  return nullptr;
}

std::vector<std::string> KnownPolicyNames() {
  return {
      "fifo",        "lru",        "lfu",        "random",     "slru",
      "2q",          "arc",        "arc-slow",   "arc-fixed",  "car",
      "mq",          "lru2",       "wtinylfu",   "lru-batched",
      "lru-promote-old",           "lirs",       "lecar",      "cacheus",
      "lhd",         "hyperbolic", "belady",     "fifo-reinsertion",
      "clock2",      "clock3",     "clockpro",   "sieve",      "s3fifo",     "qd-lp-fifo",
      "qd-arc",      "qd-lirs",    "qd-lecar",   "qd-cacheus", "qd-lhd",
  };
}

}  // namespace qdlp
