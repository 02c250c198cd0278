// Client-side caching of immutable Bullet files (§5 of the paper):
//
//   "Client caching of immutable files is straightforward. Checking if a
//    cached copy of a file is still current is simply done by looking up
//    its capability in the directory service, and comparing it to the
//    capability on which the copy is based."
//
// Because files are immutable, a cached copy keyed by capability can never
// be stale — a "newer version" is a *different* capability. Two modes:
//
//  * read(cap): served from cache whenever the capability matches; no
//    validation traffic at all.
//  * read_name(dir, name): resolves the name through the directory server
//    (one small RPC) and serves the bytes from cache if the bound
//    capability is unchanged — the validation protocol quoted above.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

#include "bullet/client.h"
#include "dir/client.h"

namespace bullet {

class CachingBulletClient {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t validations = 0;  // name lookups performed
    std::uint64_t evictions = 0;
    std::uint64_t bytes_cached = 0;
  };

  // `inner` and `names` are copied; their transports must outlive this
  // object. `capacity_bytes` bounds the cache (LRU eviction).
  CachingBulletClient(BulletClient inner, dir::DirClient names,
                      std::uint64_t capacity_bytes)
      : inner_(std::move(inner)),
        names_(std::move(names)),
        capacity_(capacity_bytes) {}

  // Whole-file read via the cache. Immutability makes this trivially
  // coherent: a capability always names the same bytes.
  Result<Bytes> read(const Capability& cap);

  // Resolve `name` in `dir`, then serve from cache if the binding still
  // points at the version we hold.
  Result<Bytes> read_name(const Capability& dir, const std::string& name);

  // Writes pass straight through (and populate the cache, since the new
  // file's content is known).
  Result<Capability> create(ByteSpan data, int pfactor);

  // Deletion passes through and drops any cached copy.
  Status erase(const Capability& cap);

  // Drop everything (e.g. to bound memory before a big job).
  void clear();

  const Stats& stats() const noexcept { return stats_; }
  std::uint64_t bytes_cached() const noexcept { return stats_.bytes_cached; }
  BulletClient& underlying() noexcept { return inner_; }

  // Stamp every pass-through RPC (misses, creates, deletes) with a
  // per-call time budget; cache hits are local and never wait. See
  // BulletClient::set_deadline_budget_ms for the overload contract.
  void set_deadline_budget_ms(std::uint32_t ms) noexcept {
    inner_.set_deadline_budget_ms(ms);
  }

  // Draw pass-through mutations' message ids from this client's own
  // sequence. See BulletClient::enable_message_ids.
  void enable_message_ids(std::uint64_t seed) noexcept {
    inner_.enable_message_ids(seed);
  }

 private:
  struct Entry {
    Bytes data;
    std::list<std::string>::iterator lru_pos;
  };

  // Cache key: the full capability (port, object, rights, check) — two
  // capabilities for the same object with different rights hash alike but
  // compare exactly.
  static std::string key_of(const Capability& cap);

  void touch(const std::string& key, Entry& entry);
  void insert(const std::string& key, Bytes data);
  void drop(const std::string& key);

  BulletClient inner_;
  dir::DirClient names_;
  std::uint64_t capacity_;
  std::unordered_map<std::string, Entry> cache_;
  std::list<std::string> lru_;  // front = most recent
  Stats stats_;
};

}  // namespace bullet
