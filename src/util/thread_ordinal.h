// Process-wide dense thread ordinal: every live thread holds a distinct
// small integer, taken the first time it asks and returned when it exits.
// A new thread takes the smallest free ordinal, so the ordinals of live
// threads stay dense however many threads the process has started and
// joined. Subsystems that stripe per-thread state (MPSC insert buffers,
// telemetry counter cells) use it to give each thread a stable private
// stripe without any registration protocol.
//
// The first 64 ordinals, one per exclusive counter cell
// (src/obs/concurrent_counters.h), are recycled through one bitmap word;
// threads beyond 64 live at once get fresh ordinals that are never reused.
// An exiting thread clears its bit with a release RMW and the next thread
// sets it with an acquire CAS, so the old owner's last store to
// per-ordinal state happens before the new owner's first load: a thread
// that inherits an exclusive counter cell may keep updating it with plain
// stores.
//
// Taking an ordinal never blocks, because a thread's first call often comes
// from inside a cache's eviction-domain lock. That is why the ordinal is
// returned by a pthread key destructor: registering a thread_local
// destructor instead takes the C library's process-wide loader lock.
// Thread exit runs such destructors in an unspecified order, so no cache
// may be called from a thread_local or pthread key destructor. The pool is
// never destroyed, so threads may still exit after main() has returned.

#ifndef QDLP_SRC_UTIL_THREAD_ORDINAL_H_
#define QDLP_SRC_UTIL_THREAD_ORDINAL_H_

#include <pthread.h>

#include <atomic>
#include <bit>
#include <cstdint>

#include "src/util/check.h"

namespace qdlp {

namespace thread_ordinal_internal {

constexpr uint32_t kRecycled = 64;
// Bit i is set while a live thread holds ordinal i.
inline std::atomic<uint64_t> taken{0};
inline std::atomic<uint32_t> next_fresh{kRecycled};

// The key's value is the ordinal + 1: a null value runs no destructor.
inline void Return(void* held) {
  const auto ordinal =
      static_cast<uint32_t>(reinterpret_cast<uintptr_t>(held) - 1);
  if (ordinal < kRecycled) {
    taken.fetch_and(~(uint64_t{1} << ordinal), std::memory_order_release);
  }
}

inline pthread_key_t ReturnKey() {
  static const pthread_key_t key = [] {
    pthread_key_t created;
    QDLP_CHECK(pthread_key_create(&created, &Return) == 0);
    return created;
  }();
  return key;
}

inline uint32_t Take() {
  uint32_t ordinal;
  uint64_t bits = taken.load(std::memory_order_relaxed);
  while (true) {
    if (bits == ~uint64_t{0}) {
      ordinal = next_fresh.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    const uint64_t lowest_free = ~bits & (bits + 1);
    if (taken.compare_exchange_weak(bits, bits | lowest_free,
                                    std::memory_order_acquire,
                                    std::memory_order_relaxed)) {
      ordinal = static_cast<uint32_t>(std::countr_zero(lowest_free));
      break;
    }
  }
  QDLP_CHECK(pthread_setspecific(ReturnKey(), reinterpret_cast<void*>(
                                                  uintptr_t{ordinal} + 1)) ==
             0);
  return ordinal;
}

}  // namespace thread_ordinal_internal

inline uint32_t ThreadOrdinal() {
  thread_local const uint32_t ordinal = thread_ordinal_internal::Take();
  return ordinal;
}

}  // namespace qdlp

#endif  // QDLP_SRC_UTIL_THREAD_ORDINAL_H_
