// SlabStore — the value-storing layer under qdlpd (docs/SERVER.md).
//
// The metadata caches manage stable u32 slot locations (probation list
// slots, CLOCK slots, slab nodes); this store gives every one of those
// locations a value *cell*, so cached bytes ride exactly the slots the
// intrusive queues already shuffle. The cache's eviction path frees a
// victim's value in O(1) under the home-domain mutex it already holds —
// no cross-shard coordination, no reference counting, no deferred
// reclamation queue.
//
// Layout:
//  * One cell per cache location (4 atomic words: seqlock version, owner
//    id, packed chunk reference, expiry). Cells are keyed by the cache's
//    location index, so a metadata move (probation -> main promotion) is
//    MoveCell(), not a copy of the bytes.
//  * Per-domain arenas of atomic u64 words holding the value bytes. Each
//    eviction domain owns one arena with a bump allocator and a buddy
//    system: power-of-two size-class freelists, larger free chunks split
//    down on allocation, and freed chunks merged with their free buddy
//    back up on free. Allocate and Free are O(log classes) worst case and
//    touch only the owning domain — the same sharding argument as
//    eviction_domains.h, applied to memory. Coalescing is what keeps the
//    arena serviceable under size churn: an arena carved into small
//    classes by small values reassembles into large chunks as they free,
//    so a later large value does not strand on kNoSpace.
//
// Concurrency contract (mirrors striped_index.h):
//  * Writers — Allocate/WriteChunk/Commit/Clear/Move/FreeChunk for a given
//    cell — must hold the owning domain's mutex (the cache's shard mutex).
//    There is exactly one writer per cell at a time.
//  * Read() is lock-free: a seqlock loop that snapshots the cell header,
//    copies the value words, and validates the version. A concurrent
//    Commit/Clear/Move of the same cell, or a Free+reuse of the chunk the
//    reader is copying, bumps the version and the reader retries (the
//    arena is atomic words, so a torn copy is detected, never undefined
//    behavior).
//  * The seqlock uses no fences, which ThreadSanitizer does not model.
//    Every writer store to a cell's id, chunk or expiry and to an arena
//    word is a release store; Read() loads them, and the version both
//    times, with acquire. If one of a reader's loads returns a store made
//    after its first version read, the reader synchronizes with that
//    store, so its re-check sees the newer odd version and retries. This
//    also orders what fences would leave out of the C++ model: one thread
//    clears a cell and frees its chunk, and another reuses the chunk under
//    the same domain mutex. A fence synchronizes only through stores
//    sequenced after it in its own thread, and the reusing thread's
//    stores are not. On x86-64 a release store or an acquire load is the
//    same mov as a relaxed one.
//  * A reader passes the id it expects the cell to hold; an id mismatch
//    (the cache moved or replaced the occupant between the caller's index
//    probe and the cell read) returns kStale and the caller re-probes. A
//    vacant cell (never used, cleared, or the source of a MoveCell) is
//    owned by kVacantId, which no index or wire key can be, so it is stale
//    for every id a reader can pass.
//
// TTLs are lazy, as in production caches: Commit stores an absolute expiry
// second, Read reports kExpired past it, and the caller removes the
// object — nothing scans for expired values.

#ifndef QDLP_SRC_STORE_SLAB_STORE_H_
#define QDLP_SRC_STORE_SLAB_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace qdlp {

class SlabStore {
 public:
  // A packed chunk reference: [domain:8][word offset:32][byte len:24].
  // kNullChunk (0) means "no value"; a zero-length value in domain 0 at
  // offset 0 is impossible because offset 0 is never handed out (the
  // allocator burns word 0 of every arena as a sentinel).
  using ChunkRef = uint64_t;
  static constexpr ChunkRef kNullChunk = 0;
  // A vacant cell's owner: the index's empty key, reserved on the wire too.
  static constexpr uint64_t kVacantId = ~uint64_t{0};

  enum class ReadResult {
    kHit,      // value copied to *out
    kNoValue,  // cell owned by the id but no value committed yet
    kStale,    // cell is not (or no longer) owned by the id — re-probe
    kExpired,  // value present but past its ttl — caller should remove
  };

  // `num_cells` cache locations; `num_domains` arenas of
  // `arena_bytes_per_domain` (rounded up to whole words, at least one
  // chunk) each; values longer than `max_value_len` are rejected.
  SlabStore(size_t num_cells, size_t num_domains,
            size_t arena_bytes_per_domain, size_t max_value_len);

  size_t num_cells() const { return cells_.size(); }
  size_t num_domains() const { return domains_.size(); }
  size_t max_value_len() const { return max_value_len_; }
  size_t arena_bytes_per_domain() const { return arena_words_ * 8; }

  // ---- Writer side (caller holds the owning domain's mutex). ----
  // A SET, GET or DELETE reaches each: their checks hold in every build.

  // O(1) chunk allocation from the domain's freelists / bump pointer.
  // Returns kNullChunk when the domain arena cannot satisfy `len` right
  // now (the caller evicts — freeing chunks back to this domain — and
  // retries) or when len > max_value_len (retrying cannot help; the
  // caller should report the value as too large).
  ChunkRef Allocate(size_t domain, size_t len);

  // Copies `len` value bytes into the chunk (release atomic word stores).
  // Must happen before the chunk is published via Commit.
  void WriteChunk(ChunkRef chunk, const void* data, size_t len);

  // Publishes (id, chunk, expiry) into the cell under its seqlock and
  // returns the previously committed chunk (kNullChunk if none) for the
  // caller to FreeChunk. `expiry_s` is an absolute second (0 = no expiry).
  ChunkRef Commit(uint32_t cell, uint64_t id, ChunkRef chunk,
                  uint64_t expiry_s);

  // Vacates the cell (eviction/removal); returns the chunk that was
  // committed, for the caller to FreeChunk.
  ChunkRef ClearCell(uint32_t cell) {
    return Commit(cell, kVacantId, kNullChunk, 0);
  }

  // Moves `from`'s (id, chunk, expiry) into `to` and clears `from` — the
  // value-bytes side of a metadata slot move. `to` must be empty (the
  // cache clears the destination's occupant first).
  void MoveCell(uint32_t from, uint32_t to);

  // Returns the chunk to its domain's freelist. kNullChunk is a no-op.
  void FreeChunk(ChunkRef chunk);

  // ---- Reader side (lock-free). ----

  // Copies the cell's value into *out if the cell is owned by `id` and
  // not expired at `now_s`. kNoValue leaves *out empty.
  ReadResult Read(uint32_t cell, uint64_t id, uint64_t now_s,
                  std::string* out) const;

  // Approximate bytes of live value data (sum of committed chunk lengths),
  // maintained relaxed per domain.
  size_t live_value_bytes() const;
  size_t ApproxMetadataBytes() const;

  // Writer-quiescent structural self-check: freelist chunks are in-bounds,
  // non-overlapping with each other and with committed chunks, cell
  // versions are even, and committed chunks' domains/offsets are valid.
  void CheckInvariants() const;

 private:
  // Chunk sizes are powers of two in words and chunks are aligned to their
  // own size, so every chunk has a well-defined buddy (offset ^ size):
  // splitting serves large-to-small churn, coalescing serves small-to-
  // large, and nothing is lost to fragmentation drift in either direction.
  static constexpr size_t kNumClasses = 24;  // up to 2^23 words = 64 MiB

  struct Cell {
    // Seqlock: odd while a writer is mid-update.
    std::atomic<uint64_t> version{0};
    std::atomic<uint64_t> id{kVacantId};
    std::atomic<uint64_t> chunk{kNullChunk};
    std::atomic<uint64_t> expiry{0};
  };

  // The seqlock write section, the one place a cell changes: the odd
  // version (relaxed), then id, chunk and expiry as release stores, then
  // the even version (release). Caller holds the cell's domain mutex.
  static void WriteCell(Cell& c, uint64_t id, ChunkRef chunk,
                        uint64_t expiry_s);

  struct alignas(64) Domain {
    std::unique_ptr<std::atomic<uint64_t>[]> words;
    size_t bump = 1;  // word 0 is the null-chunk sentinel, never allocated
    // Head word-offset of the doubly-linked freelist per size class
    // (0 = empty); both links live packed in the first word of each free
    // chunk ([prev:32][next:32]), so unlinking a buddy is O(1).
    size_t free_head[kNumClasses] = {};
    // Per-word-offset tag: 0 when the offset does not head a free chunk,
    // class + 1 when it does. This is how FreeBlock tells in O(1) whether
    // a buddy is free at the same class and thus mergeable.
    std::unique_ptr<uint8_t[]> free_class;
    std::atomic<size_t> live_bytes{0};
  };

  // Freelist link word: [prev offset:32][next offset:32], 0 = none (word
  // 0 is the never-allocated sentinel, so 0 is free as a null).
  static uint64_t PackLink(size_t prev, size_t next) {
    return (static_cast<uint64_t>(prev) << 32) | static_cast<uint64_t>(next);
  }
  static size_t LinkPrev(uint64_t link) { return link >> 32; }
  static size_t LinkNext(uint64_t link) { return link & 0xFFFFFFFFull; }

  // Splices the free chunk headed at `offset` (class `cls`) onto its
  // freelist / off it. Caller holds the domain's mutex.
  static void PushFree(Domain& domain, size_t offset, size_t cls);
  static void UnlinkFree(Domain& domain, size_t offset, size_t cls);
  // Frees the aligned block [offset, offset + 2^cls), merging it with its
  // free buddy (repeatedly) before pushing the result.
  static void FreeBlock(Domain& domain, size_t offset, size_t cls);

  static size_t ClassFor(size_t words) {
    size_t cls = 0;
    while ((size_t{1} << cls) < words) {
      ++cls;
    }
    return cls;
  }

  static ChunkRef PackChunk(size_t domain, size_t offset, size_t len) {
    return (static_cast<uint64_t>(domain) << 56) |
           (static_cast<uint64_t>(offset) << 24) | static_cast<uint64_t>(len);
  }
  static size_t ChunkDomain(ChunkRef c) { return c >> 56; }
  static size_t ChunkOffset(ChunkRef c) {
    return (c >> 24) & 0xFFFFFFFFull;
  }
  static size_t ChunkLen(ChunkRef c) { return c & 0xFFFFFFull; }
  static size_t ChunkWords(size_t len) {
    // Zero-length values still occupy one word so their offset is nonzero.
    const size_t words = (len + 7) / 8;
    return size_t{1} << ClassFor(words == 0 ? 1 : words);
  }

  const size_t max_value_len_;
  size_t arena_words_ = 0;
  std::vector<Cell> cells_;
  std::vector<Domain> domains_;
};

}  // namespace qdlp

#endif  // QDLP_SRC_STORE_SLAB_STORE_H_
