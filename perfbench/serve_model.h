// serve-churn's inputs and its expected-state model, shared with the
// ledger (which replays the same op stream in process).
//
// Keys are Zipf 0.99 over 4x the served capacity; about 2% of operations
// are DELETEs and the rest GETs, demand-filled with a SET on a miss. Each
// key has a fixed value size: mostly 32-256 B, some 1-4 KiB, a few 16-32
// KiB, so the 64 MiB arena has to evict to make space. The bytes of
// version v of key k are a 16-byte header (key, version, length) followed
// by a slice of a seeded pattern, so the client can check every GET hit
// against the owning connection's last SET without storing values.

#ifndef QDLP_PERFBENCH_SERVE_MODEL_H_
#define QDLP_PERFBENCH_SERVE_MODEL_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/server/server.h"
#include "src/util/random.h"
#include "src/util/zipf.h"

namespace perfbench {

// One operation: the key in the low bits, kDeleteBit for a DELETE.
constexpr uint32_t kDeleteBit = 0x80000000u;
constexpr size_t kServeOpsLen = size_t{1} << 20;
constexpr double kServeDeleteFrac = 0.02;

inline size_t ServeCapacity() {
  return qdlp::QdlpdOptions::DefaultCacheConfig().capacity;
}
inline uint32_t ServeKeyspace() {
  return static_cast<uint32_t>(4 * ServeCapacity());
}

inline std::vector<uint32_t> MakeServeOps(uint64_t seed) {
  qdlp::Rng rng(seed * 0xbf58476d1ce4e5b9ull + 0x5e7u);
  const qdlp::ZipfSampler zipf(ServeKeyspace(), 0.99);
  std::vector<uint32_t> ops(kServeOpsLen);
  for (uint32_t& op : ops) {
    op = static_cast<uint32_t>(zipf.Sample(rng));
    if (rng.NextDouble() < kServeDeleteFrac) {
      op |= kDeleteBit;
    }
  }
  return ops;
}

class ValueModel {
 public:
  static constexpr size_t kHeader = 16;
  static constexpr size_t kMaxLen = 32 * 1024;

  explicit ValueModel(uint64_t seed)
      : pattern_(2 * kMaxLen, '\0') {
    qdlp::Rng rng(seed ^ 0x7a11e5ull);
    for (char& c : pattern_) {
      c = static_cast<char>(rng.Next());
    }
  }

  // Sizes follow the key alone, not the seed: keys are Zipf ranks and the
  // arena is smaller than the keys' values, so a seed that made hot values
  // bigger would change the hit ratio and the traffic, not just the sample.
  static size_t Size(uint32_t key) {
    const uint64_t u = qdlp::SplitMix64(uint64_t{key} << 1) >> 32;
    const uint32_t r = key % 100;
    if (r < 85) {
      return 32 + u % 225;  // 32-256 B
    }
    if (r < 97) {
      return 1024 + u % 3073;  // 1-4 KiB
    }
    return 16384 + u % 16385;  // 16-32 KiB
  }

  void Build(uint32_t key, uint32_t version, std::string* out) const {
    const size_t len = Size(key);
    out->resize(len);
    WriteHeader(key, version, len, out->data());
    std::memcpy(out->data() + kHeader, pattern_.data() + Offset(key, version),
                len - kHeader);
  }

  bool Matches(uint32_t key, uint32_t version, const void* data,
               size_t len) const {
    if (len != Size(key)) {
      return false;
    }
    char header[kHeader];
    WriteHeader(key, version, len, header);
    const char* bytes = static_cast<const char*>(data);
    return std::memcmp(bytes, header, kHeader) == 0 &&
           std::memcmp(bytes + kHeader, pattern_.data() + Offset(key, version),
                       len - kHeader) == 0;
  }

 private:
  static void WriteHeader(uint32_t key, uint32_t version, size_t len,
                          char* out) {
    const uint64_t key64 = key;
    const uint32_t len32 = static_cast<uint32_t>(len);
    std::memcpy(out, &key64, 8);
    std::memcpy(out + 8, &version, 4);
    std::memcpy(out + 12, &len32, 4);
  }
  size_t Offset(uint32_t key, uint32_t version) const {
    return qdlp::SplitMix64((uint64_t{key} << 32) | version) % kMaxLen;
  }

  std::string pattern_;
};

}  // namespace perfbench

#endif  // QDLP_PERFBENCH_SERVE_MODEL_H_
