// Extent-based free-space management with first-fit allocation.
//
//   "By scanning the inodes it can figure out which parts of disk are
//    free. It uses this information to build a free list in RAM. ...
//    For this we use a first fit strategy."
//
// One allocator instance manages the disk data region (units = blocks);
// another manages the RAM cache arena (units = bytes). Free extents are
// kept in an ordered map so freeing coalesces neighbours in O(log n) and
// first-fit is a forward scan.
//
// Thread safety: every individual operation is internally synchronized (an
// uncontended mutex), so concurrent pollers of total_free()/largest_hole()
// never observe a torn update. Compound sequences (allocate-then-release,
// compaction planning via holes()) still need the caller's lock — the
// BulletServer's exclusive state lock in practice.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>

#include "common/error.h"

namespace bullet {

class ExtentAllocator {
 public:
  ExtentAllocator() = default;
  // Manage [start, start + length).
  ExtentAllocator(std::uint64_t start, std::uint64_t length);

  // Copy/move transfer the hole map, not the mutex (each instance owns its
  // own lock). The source must be quiescent apart from the locked read.
  ExtentAllocator(const ExtentAllocator& other);
  ExtentAllocator(ExtentAllocator&& other) noexcept;
  ExtentAllocator& operator=(const ExtentAllocator& other);
  ExtentAllocator& operator=(ExtentAllocator&& other) noexcept;

  // First-fit allocation of `length` units; nullopt when no hole fits.
  std::optional<std::uint64_t> allocate(std::uint64_t length);

  // Return [offset, offset + length) to the free pool, coalescing with
  // adjacent holes. Fails if any part is already free or out of range.
  Status release(std::uint64_t offset, std::uint64_t length);

  // Remove [offset, offset + length) from the free pool (used when the
  // startup scan discovers a live file there). Fails unless the whole range
  // is currently free.
  Status reserve(std::uint64_t offset, std::uint64_t length);

  bool is_free(std::uint64_t offset, std::uint64_t length) const;

  std::uint64_t total_free() const noexcept {
    std::lock_guard<std::mutex> lock(mu_);
    return total_free_;
  }
  // O(1): hole sizes are maintained incrementally in a multiset as holes
  // split and coalesce (every metrics scrape polls this; a scan of the
  // hole map per poll would be O(holes)).
  std::uint64_t largest_hole() const noexcept {
    std::lock_guard<std::mutex> lock(mu_);
    return hole_sizes_.empty() ? 0 : *hole_sizes_.rbegin();
  }
  std::size_t hole_count() const noexcept {
    std::lock_guard<std::mutex> lock(mu_);
    return holes_.size();
  }
  std::uint64_t managed_start() const noexcept { return start_; }
  std::uint64_t managed_length() const noexcept { return length_; }

  // Ordered view of the holes (offset -> length), for compaction planning
  // and invariant checks. Unsynchronized by nature: only valid while the
  // caller excludes concurrent mutation (exclusive server lock).
  const std::map<std::uint64_t, std::uint64_t>& holes() const noexcept {
    return holes_;
  }

 private:
  // Every mutation of holes_ goes through these so hole_sizes_ stays a
  // multiset of exactly the values of holes_ (the largest_hole invariant).
  // Callers hold mu_.
  void add_hole(std::uint64_t offset, std::uint64_t length);
  void drop_hole(std::map<std::uint64_t, std::uint64_t>::iterator it);
  bool is_free_locked(std::uint64_t offset, std::uint64_t length) const;

  mutable std::mutex mu_;
  std::uint64_t start_ = 0;
  std::uint64_t length_ = 0;
  std::uint64_t total_free_ = 0;
  std::map<std::uint64_t, std::uint64_t> holes_;  // offset -> length
  std::multiset<std::uint64_t> hole_sizes_;       // lengths of holes_
};

}  // namespace bullet
