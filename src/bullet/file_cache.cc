#include "bullet/file_cache.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace bullet {

FileCache::FileCache(std::uint64_t capacity_bytes, std::uint32_t block_size,
                     std::uint32_t max_entries)
    : arena_(block_size == 0
                 ? capacity_bytes
                 : capacity_bytes / block_size * block_size,
             0),
      block_size_(std::max<std::uint32_t>(block_size, 1)),
      arena_free_(0, arena_.size()),
      rnodes_(std::min<std::uint32_t>(max_entries, 65534)) {
  free_rnodes_.reserve(rnodes_.size());
  // Hand slots out in ascending order (push high indices first).
  for (std::size_t i = rnodes_.size(); i > 0; --i) {
    free_rnodes_.push_back(static_cast<RnodeIndex>(i));
  }
  stats_.capacity = arena_.size();
}

FileCache::Rnode& FileCache::slot(RnodeIndex index) {
  assert(index >= 1 && index <= rnodes_.size());
  return rnodes_[index - 1u];
}

const FileCache::Rnode& FileCache::slot(RnodeIndex index) const {
  assert(index >= 1 && index <= rnodes_.size());
  return rnodes_[index - 1u];
}

bool FileCache::contains(RnodeIndex index) const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return index >= 1 && index <= rnodes_.size() && rnodes_[index - 1u].in_use;
}

void FileCache::lru_link_front(RnodeIndex index) {
  Rnode& node = slot(index);
  node.lru_prev = 0;
  node.lru_next = lru_head_;
  if (lru_head_ != 0) slot(lru_head_).lru_prev = index;
  lru_head_ = index;
  if (lru_tail_ == 0) lru_tail_ = index;
}

void FileCache::lru_unlink(RnodeIndex index) {
  Rnode& node = slot(index);
  if (node.lru_prev != 0) {
    slot(node.lru_prev).lru_next = node.lru_next;
  } else {
    lru_head_ = node.lru_next;
  }
  if (node.lru_next != 0) {
    slot(node.lru_next).lru_prev = node.lru_prev;
  } else {
    lru_tail_ = node.lru_prev;
  }
  node.lru_prev = 0;
  node.lru_next = 0;
}

void FileCache::free_slot(RnodeIndex index) {
  Rnode& node = slot(index);
  assert(node.pins == 0);
  if (node.alloc > 0) {
    const Status st = arena_free_.release(node.offset, node.alloc);
    assert(st.ok());
    (void)st;
  }
  stats_.used -= node.alloc;
  node = Rnode{};
  free_rnodes_.push_back(index);
}

Result<RnodeIndex> FileCache::insert(std::uint32_t inode_index,
                                     std::uint32_t size,
                                     std::vector<std::uint32_t>* evicted) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t alloc = padded(size);
  if (alloc > arena_.size()) {
    return Error(ErrorCode::too_large, "file exceeds cache");
  }
  if (free_rnodes_.empty()) {
    // All rnode slots busy: evict to recycle one.
    if (!evict_lru(evicted)) {
      return Error(ErrorCode::no_space, "no rnode available");
    }
  }

  // "First the memory free list is searched to see if there is a part
  //  large enough to hold the file. If not, the least recently accessed
  //  file is removed from the RAM cache ... repeating until enough memory
  //  is found." Pinned entries are skipped, so the loop ends with no_space
  // when they alone leave no hole large enough.
  std::optional<std::uint64_t> offset =
      alloc == 0 ? std::optional<std::uint64_t>(0)
                 : arena_free_.allocate(alloc);
  while (!offset.has_value()) {
    if (!evict_lru(evicted)) {
      return Error(ErrorCode::no_space, "cache exhausted");
    }
    offset = arena_free_.allocate(alloc);
  }

  if (free_rnodes_.empty()) {
    // Eviction above may not have recycled a slot if the loop allocated on
    // the first try; guarantee one now.
    if (!evict_lru(evicted)) {
      if (alloc > 0) {
        const Status released = arena_free_.release(*offset, alloc);
        assert(released.ok());
        (void)released;
      }
      return Error(ErrorCode::no_space, "no rnode available");
    }
  }

  const RnodeIndex index = free_rnodes_.back();
  free_rnodes_.pop_back();
  Rnode& node = slot(index);
  node.in_use = true;
  node.inode_index = inode_index;
  node.offset = *offset;
  node.size = size;
  node.alloc = static_cast<std::uint32_t>(alloc);
  lru_link_front(index);
  // The padding tail must read as zero: the region may be recycled arena
  // space, and callers ship padded_data() straight to disk.
  if (alloc > size) {
    std::memset(arena_.data() + node.offset + size, 0, alloc - size);
  }
  ++stats_.entries;
  stats_.used += alloc;
  return index;
}

void FileCache::remove_locked(RnodeIndex index) {
  if (index < 1 || index > rnodes_.size()) return;
  Rnode& node = slot(index);
  if (!node.in_use) return;
  lru_unlink(index);
  node.in_use = false;
  --stats_.entries;
  if (node.pins > 0) {
    // A reader still holds the bytes: the mapping is gone (lookups now
    // miss) but the arena space waits for the last unpin.
    node.zombie = true;
    deferred_.push_back(index);
    return;
  }
  free_slot(index);
}

void FileCache::remove(RnodeIndex index) {
  std::lock_guard<std::mutex> lock(mu_);
  remove_locked(index);
}

ByteSpan FileCache::data(RnodeIndex index) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Rnode& node = slot(index);
  assert(node.in_use);
  return ByteSpan(arena_.data() + node.offset, node.size);
}

MutableByteSpan FileCache::mutable_data(RnodeIndex index) {
  std::lock_guard<std::mutex> lock(mu_);
  Rnode& node = slot(index);
  assert(node.in_use);
  return MutableByteSpan(arena_.data() + node.offset, node.size);
}

ByteSpan FileCache::padded_data(RnodeIndex index) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Rnode& node = slot(index);
  assert(node.in_use);
  return ByteSpan(arena_.data() + node.offset, node.alloc);
}

MutableByteSpan FileCache::mutable_padded_data(RnodeIndex index) {
  std::lock_guard<std::mutex> lock(mu_);
  Rnode& node = slot(index);
  assert(node.in_use);
  return MutableByteSpan(arena_.data() + node.offset, node.alloc);
}

std::uint32_t FileCache::inode_of(RnodeIndex index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return slot(index).inode_index;
}

void FileCache::touch(RnodeIndex index) {
  std::lock_guard<std::mutex> lock(mu_);
  if (lru_head_ == index) return;  // already most recent
  lru_unlink(index);
  lru_link_front(index);
}

std::optional<ByteSpan> FileCache::touch_and_pin(RnodeIndex index,
                                                 std::uint32_t inode_index) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index < 1 || index > rnodes_.size()) return std::nullopt;
  Rnode& node = slot(index);
  if (!node.in_use || node.inode_index != inode_index) return std::nullopt;
  if (lru_head_ != index) {
    lru_unlink(index);
    lru_link_front(index);
  }
  ++node.pins;
  return ByteSpan(arena_.data() + node.offset, node.size);
}

void FileCache::pin(RnodeIndex index) {
  std::lock_guard<std::mutex> lock(mu_);
  Rnode& node = slot(index);
  assert(node.in_use);
  ++node.pins;
}

void FileCache::unpin(RnodeIndex index) {
  std::lock_guard<std::mutex> lock(mu_);
  Rnode& node = slot(index);
  assert(node.pins > 0);
  --node.pins;
  if (node.pins == 0 && node.zombie) {
    deferred_.erase(std::find(deferred_.begin(), deferred_.end(), index));
    ++stats_.deferred_frees;
    free_slot(index);
  }
}

bool FileCache::evict_lru(std::vector<std::uint32_t>* evicted) {
  // The recency list makes the victim the tail: one rnode examined,
  // regardless of how many are live (the paper scanned every age field) —
  // unless readers hold pins, in which case the walk skips towards the
  // head until it finds an unpinned victim.
  RnodeIndex victim = lru_tail_;
  while (victim != 0) {
    ++stats_.evict_scans;
    const Rnode& node = slot(victim);
    if (node.pins == 0) break;
    ++stats_.pinned_evict_defers;
    victim = node.lru_prev;
  }
  if (victim == 0) return false;
  if (evicted != nullptr) evicted->push_back(slot(victim).inode_index);
  remove_locked(victim);
  ++stats_.evictions;
  return true;
}

FileCache::Stats FileCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::uint64_t FileCache::free_bytes() const {
  return arena_free_.total_free();
}

std::size_t FileCache::deferred_free_pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return deferred_.size();
}

}  // namespace bullet
