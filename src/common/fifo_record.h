// A bounded record of recent entries, evicted oldest first.
//
// A hash index over an insertion-order FIFO: put, find, clear and the
// eviction a full record makes on each new key are all O(1), and iteration
// visits entries oldest first. Overwriting a key's value keeps its place in
// the FIFO, so an entry's age is the age of its first put. The servers keep
// their at-most-once reply records and Bullet's delete tombstones in it
// (DESIGN.md §11, §14). Not thread-safe: the owner locks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <utility>

namespace bullet {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class FifoRecord {
 public:
  using Entry = std::pair<Key, Value>;

  explicit FifoRecord(std::size_t capacity) : capacity_(capacity) {}

  // Records `value` under `key`. A key already present keeps its place and
  // takes the new value; a new key goes to the back, evicting the oldest
  // entry when the record is full. Returns whether the key was new.
  bool put(const Key& key, Value value) {
    const auto [it, inserted] = index_.try_emplace(key, head_ + fifo_.size());
    if (!inserted) {
      fifo_[it->second - head_].second = std::move(value);
      return false;
    }
    fifo_.emplace_back(key, std::move(value));
    if (fifo_.size() > capacity_) {
      index_.erase(fifo_.front().first);
      fifo_.pop_front();
      ++head_;
    }
    return true;
  }

  // The value recorded under `key`, or nullptr.
  const Value* find(const Key& key) const {
    const auto it = index_.find(key);
    return it == index_.end() ? nullptr : &fifo_[it->second - head_].second;
  }

  bool contains(const Key& key) const { return index_.count(key) != 0; }

  void clear() {
    head_ += fifo_.size();
    fifo_.clear();
    index_.clear();
  }

  std::size_t size() const { return fifo_.size(); }

  // Oldest first.
  auto begin() const { return fifo_.begin(); }
  auto end() const { return fifo_.end(); }

 private:
  std::size_t capacity_;
  std::deque<Entry> fifo_;
  // Each key's sequence number; fifo_[seq - head_] holds the entry, where
  // head_ is the sequence number of fifo_.front().
  std::unordered_map<Key, std::uint64_t, Hash> index_;
  std::uint64_t head_ = 0;
};

}  // namespace bullet
