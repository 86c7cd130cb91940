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

using PolicyPtr = std::unique_ptr<EvictionPolicy>;

// How KnownPolicyNames lists a row: not at all (an alias), by its name, or
// by its name and, after all the bases, as qd-<name> (Fig 5's
// compositions).
enum class Listing { kAlias, kListed, kListedWithQd };

// A name the factory builds without composing. `flat` builds the policy
// for original ids over FlatMap indexes (MakePolicy; `trace` is Belady's
// future request stream). `dense`, null for a design without a dense
// variant, builds the same code over DenseIndexFactory's direct-indexed
// slot arrays (MakeDensePolicy).
using FlatBuild = PolicyPtr (*)(size_t capacity,
                                const std::vector<ObjectId>* trace);
using DenseBuild = PolicyPtr (*)(size_t capacity,
                                 const DenseIndexFactory& factory);
struct PolicyRow {
  const char* name;
  FlatBuild flat;
  DenseBuild dense = nullptr;
  Listing listing = Listing::kListed;
};

// A design with a flat variant only, built with its constructor's
// defaults.
template <typename Policy>
PolicyPtr FlatOnly(size_t capacity, const std::vector<ObjectId>*) {
  return std::make_unique<Policy>(capacity);
}

// A design with one implementation over either index backing:
// `Build{}(capacity, factory)` constructs it over `factory`'s index.
template <typename Build>
constexpr PolicyRow Indexed(const char* name, Build,
                            Listing listing = Listing::kListed) {
  return {name,
          [](size_t capacity, const std::vector<ObjectId>*) -> PolicyPtr {
            return Build{}(capacity, FlatIndexFactory{});
          },
          [](size_t capacity, const DenseIndexFactory& factory) -> PolicyPtr {
            return Build{}(capacity, factory);
          },
          listing};
}

// CLOCK with `bits`-bit counters, on the lock-free caches' Regions run
// single-threaded (regions_policy.h). 1-bit CLOCK is FIFO-Reinsertion
// (§3), and reports that name.
template <int bits>
constexpr auto kClock = []<typename F>(size_t capacity, const F& factory) {
  return std::make_unique<RegionsPolicy<ClockRegions, F>>(
      capacity, bits == 1 ? "fifo-reinsertion" : "clock" + std::to_string(bits),
      factory, bits);
};

// Every name the factory builds without composing, in KnownPolicyNames'
// order. A design has a dense variant when its decisions depend on ids
// only through index lookups and its own lists' order (LHD samples its
// object vector by position, which the access sequence alone determines),
// so a bijective remap to dense ids cannot change any eviction decision.
// Policies that sample the index (random, hyperbolic) or hash ids into
// sketches (wtinylfu) have none.
const PolicyRow kPolicies[] = {
    Indexed("fifo", []<typename F>(size_t capacity, const F& factory) {
      return std::make_unique<BasicFifoPolicy<F>>(capacity, factory);
    }),
    Indexed("lru", []<typename F>(size_t capacity, const F& factory) {
      return std::make_unique<BasicLruPolicy<F>>(capacity, factory);
    }),
    {"lfu", &FlatOnly<LfuPolicy>},
    {"random", &FlatOnly<RandomPolicy>},
    {"slru", &FlatOnly<SlruPolicy>},
    {"2q", &FlatOnly<TwoQPolicy>},
    Indexed(
        "arc",
        []<typename F>(size_t capacity, const F& factory) {
          return std::make_unique<BasicArcPolicy<F>>(capacity, 1.0, -1.0,
                                                     factory);
        },
        Listing::kListedWithQd),
    Indexed("arc-slow", []<typename F>(size_t capacity, const F& factory) {
      return std::make_unique<BasicArcPolicy<F>>(
          capacity, /*adaptation_rate=*/0.25, -1.0, factory);
    }),
    Indexed("arc-fixed", []<typename F>(size_t capacity, const F& factory) {
      return std::make_unique<BasicArcPolicy<F>>(
          capacity, 1.0, /*fixed_p_fraction=*/0.1, factory);
    }),
    {"car", &FlatOnly<CarPolicy>},
    {"mq", &FlatOnly<MqPolicy>},
    {"lru2", &FlatOnly<LruKPolicy>},
    {"wtinylfu", &FlatOnly<WTinyLfuPolicy>},
    {"lru-batched", &FlatOnly<BatchedPromotionLru>},
    {"lru-promote-old", &FlatOnly<PromoteOldOnlyLru>},
    Indexed(
        "lirs",
        []<typename F>(size_t capacity, const F& factory) {
          return std::make_unique<BasicLirsPolicy<F>>(capacity, 0.01, 3.0,
                                                      factory);
        },
        Listing::kListedWithQd),
    Indexed(
        "lecar",
        []<typename F>(size_t capacity, const F& factory) {
          return std::make_unique<BasicLecarPolicy<F>>(capacity, 7, 0.45,
                                                       factory);
        },
        Listing::kListedWithQd),
    Indexed(
        "cacheus",
        []<typename F>(size_t capacity, const F& factory) {
          return std::make_unique<BasicCacheusPolicy<F>>(capacity, 11,
                                                         factory);
        },
        Listing::kListedWithQd),
    Indexed(
        "lhd",
        []<typename F>(size_t capacity, const F& factory) {
          return std::make_unique<BasicLhdPolicy<F>>(capacity, 13, factory);
        },
        Listing::kListedWithQd),
    {"hyperbolic", &FlatOnly<HyperbolicPolicy>},
    {"belady",
     [](size_t capacity, const std::vector<ObjectId>* trace) -> PolicyPtr {
       if (trace == nullptr) {
         return nullptr;
       }
       return std::make_unique<BeladyPolicy>(capacity, *trace);
     }},
    Indexed("fifo-reinsertion", kClock<1>),
    Indexed("clock", kClock<1>, Listing::kAlias),
    Indexed("clock1", kClock<1>, Listing::kAlias),
    Indexed("clock2", kClock<2>),
    Indexed("clock3", kClock<3>),
    {"clockpro", &FlatOnly<ClockProPolicy>},
    Indexed("sieve", []<typename F>(size_t capacity, const F& factory) {
      return std::make_unique<BasicSievePolicy<F>>(capacity, factory);
    }),
    Indexed("s3fifo", []<typename F>(size_t capacity, const F& factory) {
      return std::make_unique<RegionsPolicy<S3FifoRegions, F>>(
          capacity, "s3fifo", factory);
    }),
    Indexed("qd-lp-fifo", []<typename F>(size_t capacity, const F& factory) {
      return std::make_unique<RegionsPolicy<QdLpRegions, F>>(
          capacity, "qd-lp-fifo", factory);
    }),
};

const PolicyRow* FindRow(const std::string& name) {
  for (const PolicyRow& row : kPolicies) {
    if (name == row.name) {
      return &row;
    }
  }
  return nullptr;
}

std::unique_ptr<EvictionPolicy> MakeBase(const std::string& name,
                                         size_t capacity,
                                         const std::vector<ObjectId>* trace) {
  const PolicyRow* row = FindRow(name);
  return row == nullptr ? nullptr : row->flat(capacity, trace);
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

// qd-<base>, built by MakeQdPolicy over a base row, as opposed to a row
// of its own (qd-lp-fifo).
bool IsQdComposition(const std::string& name) {
  return name.rfind("qd-", 0) == 0 && FindRow(name) == nullptr;
}

// The dense builder of the row `name` names, or null.
DenseBuild DenseBuilder(const std::string& name) {
  const PolicyRow* row = FindRow(name);
  return row == nullptr ? nullptr : row->dense;
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

// A row with a dense builder has a dense variant, and so does qd-<base>
// over each such row (QD composes over plain bases only).
bool HasDenseVariant(const std::string& name) {
  if (IsQdComposition(name)) {
    const std::string base = name.substr(3);
    return base.rfind("qd-", 0) != 0 && DenseBuilder(base) != nullptr;
  }
  return DenseBuilder(name) != nullptr;
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
                         return DenseBuilder(name.substr(3))(main_capacity,
                                                             factory);
                       });
  }
  return DenseBuilder(name)(capacity, factory);
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
  std::vector<std::string> names;
  for (const PolicyRow& row : kPolicies) {
    if (row.listing != Listing::kAlias) {
      names.push_back(row.name);
    }
  }
  for (const PolicyRow& row : kPolicies) {
    if (row.listing == Listing::kListedWithQd) {
      names.push_back(std::string("qd-") + row.name);
    }
  }
  return names;
}

}  // namespace qdlp
