// The server's RAM file cache.
//
//   "A separate table in RAM maintains the administration of the cached
//    files. ... An rnode contains: 1) the inode table index of the
//    corresponding file; 2) a pointer to the file in RAM cache; 3) an age
//    field to implement an LRU cache strategy. The free rnodes and free
//    parts in the RAM cache are also maintained using free lists."
//
// Files are kept *contiguously* in one arena, exactly as on disk, so a
// cached file can be shipped in a single RPC.
//
// Deviations from the paper's description, all for the hot path:
//
//  * No arena compaction. The paper alleviates fragmentation "by
//    compacting part or all of the RAM cache from time to time"; here a
//    miss that finds no hole evicts LRU victims until first-fit succeeds,
//    and cached bytes never move while their entry lives. Compacting on
//    the miss path cost far more than the hits it saved: on a cold read of
//    64 KB-1 MB files through a 16 MB cache, 10.7% of READs compacted, each
//    moving ~10.6 MB (~1.95 ms) under the server's exclusive lock, for
//    122 us/op of lock wait and a 4009 us service p99 against a 59 us
//    device read. Evicting instead cost ~2 points of hit ratio (0.248 ->
//    0.227), cut the lock wait to <1 us/op and the service p99 to 738 us,
//    and doubled throughput: re-reading a 1 MB file from a page-cached
//    image costs about what moving 1 MB of arena does.
//
//  * The arena is *block-aligned*: entries are rounded up to whole device
//    blocks (`block_size`), with the padding tail zeroed. The server can
//    therefore write a freshly created file to disk straight from the
//    arena (`padded_data`) and read a missed file from disk straight into
//    the arena (`mutable_padded_data`) — no per-file staging buffer for
//    the unaligned tail block. Capacity is accounted in those same padded
//    units, so the arena never fragments below block granularity.
//
//  * LRU is an intrusive doubly-linked recency list threaded through the
//    rnodes instead of the paper's age-field scan, making eviction O(1)
//    rather than O(live entries) — the same victims in the same order,
//    without the O(n²) scan storms a cache-thrashing workload provokes.
//    `stats().evict_scans` counts rnodes examined while picking victims.
//
//  * Concurrency (the paper's server was single-threaded; ours serves
//    reads from a worker pool). The cache is internally synchronized by
//    one mutex, and entries carry a *pin count*: a pinned entry is never
//    evicted and its space never reused — eviction skips pinned entries
//    (walking past one costs an evict_scan and a pinned_evict_defer).
//    remove() of a pinned entry does not free the bytes; the entry becomes
//    a *zombie* on the deferred-free list, unlinked from the LRU and
//    invisible to lookups, and its arena space is reclaimed when the last
//    pin drops. The arena itself is allocated once and never moves, so a
//    pinned span survives any concurrent insert/evict.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "bullet/extent_allocator.h"
#include "common/bytes.h"
#include "common/error.h"

namespace bullet {

// 1-based handle into the rnode table; 0 means "not cached" and is what an
// inode's cache_index field holds when the file is not in memory.
using RnodeIndex = std::uint16_t;

class FileCache {
 public:
  struct Stats {
    std::uint64_t capacity = 0;  // arena bytes (a whole number of blocks)
    std::uint64_t used = 0;      // padded bytes allocated (block granular)
    std::uint64_t entries = 0;   // live mappings (zombies excluded)
    std::uint64_t evictions = 0;
    std::uint64_t evict_scans = 0;  // rnodes examined choosing LRU victims
    // Concurrency counters: victims skipped because a reader held a pin,
    // and zombie entries whose space was reclaimed when the last pin
    // dropped (each remove-while-pinned eventually becomes one).
    std::uint64_t pinned_evict_defers = 0;
    std::uint64_t deferred_frees = 0;
  };

  // `capacity_bytes` is rounded down to a whole number of blocks;
  // `block_size` 1 (the default) disables alignment (byte-granular arena).
  explicit FileCache(std::uint64_t capacity_bytes,
                     std::uint32_t block_size = 1,
                     std::uint32_t max_entries = 65534);

  // Space for `size` bytes bound to `inode_index`, first fit, evicting
  // unpinned entries in LRU order until a hole fits (their inode indices
  // are appended to `evicted` so the caller can clear the corresponding
  // inode cache_index fields). No live entry moves. The entry occupies
  // `size` rounded up to whole blocks; the padding tail is zeroed. Fails
  // with too_large when the padded size exceeds the whole cache and
  // no_space when pinned or zombie entries leave no hole large enough.
  Result<RnodeIndex> insert(std::uint32_t inode_index, std::uint32_t size,
                            std::vector<std::uint32_t>* evicted);

  // Drop one entry (e.g. the file was deleted). If the entry is pinned the
  // free is deferred: the mapping disappears now, the bytes when the last
  // pin drops.
  void remove(RnodeIndex index);

  // Cached bytes of an entry (exactly the file's `size` bytes).
  ByteSpan data(RnodeIndex index) const;
  MutableByteSpan mutable_data(RnodeIndex index);

  // The entry's whole block-aligned allocation: the file bytes followed by
  // the zeroed padding tail. Suitable for direct block-device transfers.
  ByteSpan padded_data(RnodeIndex index) const;
  MutableByteSpan mutable_padded_data(RnodeIndex index);

  std::uint32_t inode_of(RnodeIndex index) const;

  // Record a use for LRU purposes ("the age field is updated to reflect
  // the recent access").
  void touch(RnodeIndex index);

  // The concurrent-read fast path, one lock acquisition: verify the entry
  // is live and still maps `inode_index`, record a use, take a pin, and
  // return the file bytes. nullopt when the entry is gone/recycled (the
  // caller falls back to the miss path). Every success must be matched by
  // exactly one unpin().
  std::optional<ByteSpan> touch_and_pin(RnodeIndex index,
                                        std::uint32_t inode_index);

  // Additional pin on an entry known to be live (caller excludes
  // concurrent removal, e.g. under the server's exclusive lock).
  void pin(RnodeIndex index);

  // Release one pin; reclaims the entry's space if it was removed while
  // pinned and this was the last pin. Safe from any thread.
  void unpin(RnodeIndex index);

  bool contains(RnodeIndex index) const noexcept;
  Stats stats() const;
  std::uint64_t free_bytes() const;
  std::uint32_t block_size() const noexcept { return block_size_; }
  // Entries awaiting their last unpin before the space returns (tests).
  std::size_t deferred_free_pending() const;

 private:
  struct Rnode {
    bool in_use = false;
    bool zombie = false;       // removed while pinned; bytes not yet freed
    std::uint32_t pins = 0;    // readers holding the bytes
    std::uint32_t inode_index = 0;
    std::uint64_t offset = 0;  // into arena_
    std::uint32_t size = 0;    // file bytes
    std::uint32_t alloc = 0;   // padded bytes (whole blocks)
    // Intrusive LRU recency list (0 = end of list).
    RnodeIndex lru_prev = 0;
    RnodeIndex lru_next = 0;
  };

  Rnode& slot(RnodeIndex index);
  const Rnode& slot(RnodeIndex index) const;

  std::uint64_t padded(std::uint64_t size) const noexcept {
    return (size + block_size_ - 1) / block_size_ * block_size_;
  }

  // Recency-list maintenance; head = most recent, tail = LRU victim.
  // Callers hold mu_.
  void lru_link_front(RnodeIndex index);
  void lru_unlink(RnodeIndex index);

  // Evict the least-recently-used *unpinned* entry; returns false when
  // every cached entry is pinned (or nothing is cached). The victim's
  // inode index is appended to `evicted`. Caller holds mu_.
  bool evict_lru(std::vector<std::uint32_t>* evicted);

  // remove() body; caller holds mu_.
  void remove_locked(RnodeIndex index);

  // Free a (possibly zombie) entry's arena space and recycle its slot.
  // Caller holds mu_; the entry must be unpinned and off the LRU list.
  void free_slot(RnodeIndex index);

  mutable std::mutex mu_;
  Bytes arena_;                 // allocated once; never reallocates
  std::uint32_t block_size_ = 1;
  ExtentAllocator arena_free_;
  std::vector<Rnode> rnodes_;              // slot i <-> RnodeIndex i+1
  std::vector<RnodeIndex> free_rnodes_;    // free list of slots (1-based)
  std::vector<RnodeIndex> deferred_;       // zombies awaiting last unpin
  RnodeIndex lru_head_ = 0;                // most recently used
  RnodeIndex lru_tail_ = 0;                // least recently used
  Stats stats_;
};

}  // namespace bullet
