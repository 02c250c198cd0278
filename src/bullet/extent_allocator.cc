#include "bullet/extent_allocator.h"

#include <algorithm>
#include <cassert>

namespace bullet {

ExtentAllocator::ExtentAllocator(std::uint64_t start, std::uint64_t length)
    : start_(start), length_(length), total_free_(length) {
  if (length > 0) add_hole(start, length);
}

ExtentAllocator::ExtentAllocator(const ExtentAllocator& other) {
  std::lock_guard<std::mutex> lock(other.mu_);
  start_ = other.start_;
  length_ = other.length_;
  total_free_ = other.total_free_;
  holes_ = other.holes_;
  hole_sizes_ = other.hole_sizes_;
}

ExtentAllocator::ExtentAllocator(ExtentAllocator&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.mu_);
  start_ = other.start_;
  length_ = other.length_;
  total_free_ = other.total_free_;
  holes_ = std::move(other.holes_);
  hole_sizes_ = std::move(other.hole_sizes_);
}

ExtentAllocator& ExtentAllocator::operator=(const ExtentAllocator& other) {
  if (this == &other) return *this;
  std::scoped_lock lock(mu_, other.mu_);
  start_ = other.start_;
  length_ = other.length_;
  total_free_ = other.total_free_;
  holes_ = other.holes_;
  hole_sizes_ = other.hole_sizes_;
  return *this;
}

ExtentAllocator& ExtentAllocator::operator=(ExtentAllocator&& other) noexcept {
  if (this == &other) return *this;
  std::scoped_lock lock(mu_, other.mu_);
  start_ = other.start_;
  length_ = other.length_;
  total_free_ = other.total_free_;
  holes_ = std::move(other.holes_);
  hole_sizes_ = std::move(other.hole_sizes_);
  return *this;
}

void ExtentAllocator::add_hole(std::uint64_t offset, std::uint64_t length) {
  holes_.emplace(offset, length);
  hole_sizes_.insert(length);
}

void ExtentAllocator::drop_hole(
    std::map<std::uint64_t, std::uint64_t>::iterator it) {
  const auto size_it = hole_sizes_.find(it->second);
  assert(size_it != hole_sizes_.end());
  hole_sizes_.erase(size_it);
  holes_.erase(it);
}

std::optional<std::uint64_t> ExtentAllocator::allocate(std::uint64_t length) {
  std::lock_guard<std::mutex> lock(mu_);
  // The largest-hole check fails a miss in O(1), without the scan: the
  // cache's evict-until-fit loop retries after every eviction.
  if (length == 0 || hole_sizes_.empty() || length > *hole_sizes_.rbegin()) {
    return std::nullopt;
  }
  for (auto it = holes_.begin(); it != holes_.end(); ++it) {
    if (it->second < length) continue;
    const std::uint64_t offset = it->first;
    const std::uint64_t remaining = it->second - length;
    drop_hole(it);
    if (remaining > 0) add_hole(offset + length, remaining);
    total_free_ -= length;
    return offset;
  }
  return std::nullopt;
}

Status ExtentAllocator::release(std::uint64_t offset, std::uint64_t length) {
  std::lock_guard<std::mutex> lock(mu_);
  if (length == 0) return Status::success();
  if (offset < start_ || offset + length > start_ + length_) {
    return Error(ErrorCode::bad_argument, "release out of range");
  }
  // Find the hole at or after `offset` and the one before it.
  auto next = holes_.lower_bound(offset);
  if (next != holes_.end() && next->first < offset + length) {
    return Error(ErrorCode::bad_state, "double free (overlaps hole after)");
  }
  auto prev = next;
  if (prev != holes_.begin()) {
    --prev;
    if (prev->first + prev->second > offset) {
      return Error(ErrorCode::bad_state, "double free (overlaps hole before)");
    }
  } else {
    prev = holes_.end();
  }

  std::uint64_t new_offset = offset;
  std::uint64_t new_length = length;
  // Coalesce with the preceding hole.
  if (prev != holes_.end() && prev->first + prev->second == offset) {
    new_offset = prev->first;
    new_length += prev->second;
    drop_hole(prev);
  }
  // Coalesce with the following hole.
  if (next != holes_.end() && offset + length == next->first) {
    new_length += next->second;
    drop_hole(next);
  }
  add_hole(new_offset, new_length);
  total_free_ += length;
  return Status::success();
}

Status ExtentAllocator::reserve(std::uint64_t offset, std::uint64_t length) {
  std::lock_guard<std::mutex> lock(mu_);
  if (length == 0) return Status::success();
  if (!is_free_locked(offset, length)) {
    return Error(ErrorCode::bad_state, "range not free");
  }
  // The containing hole: the last hole starting at or before `offset`.
  auto it = holes_.upper_bound(offset);
  --it;
  const std::uint64_t hole_offset = it->first;
  const std::uint64_t hole_length = it->second;
  drop_hole(it);
  if (offset > hole_offset) {
    add_hole(hole_offset, offset - hole_offset);
  }
  const std::uint64_t tail = hole_offset + hole_length - (offset + length);
  if (tail > 0) add_hole(offset + length, tail);
  total_free_ -= length;
  return Status::success();
}

bool ExtentAllocator::is_free(std::uint64_t offset,
                              std::uint64_t length) const {
  std::lock_guard<std::mutex> lock(mu_);
  return is_free_locked(offset, length);
}

bool ExtentAllocator::is_free_locked(std::uint64_t offset,
                                     std::uint64_t length) const {
  if (length == 0) return true;
  if (offset < start_ || offset + length > start_ + length_) return false;
  auto it = holes_.upper_bound(offset);
  if (it == holes_.begin()) return false;
  --it;
  return it->first + it->second >= offset + length;
}

}  // namespace bullet
