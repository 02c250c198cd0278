// Client-side shard routing for a Bullet cluster.
//
// The hot path is one ring lookup and one direct RPC to the owning shard —
// no directory hop, matching the paper's "contact the file server directly"
// discipline. The client caches the placement map and self-corrects:
//
//   * `wrong_shard` reply: the cached map is stale. Refetch it from the
//     directory server and re-route. Bounded, because the rebalance flip
//     installs the new map on every shard *before* the directory server,
//     so by the time a refetch can observe the new epoch the target shard
//     already judges requests under it.
//   * `no_such_object` (or `bad_capability`) right after an epoch change:
//     the object may be a create that raced the rebalance copy phase and
//     still lives at its pre-flip owner. A fallback probe at the
//     *previous* map's owner (then, for clients with no previous
//     generation, a sweep of the remaining shards) keeps every acked
//     object readable throughout a live rebalance — old owners hold moved
//     objects until the drain phase, which runs only after the reconcile
//     pass has re-homed such stragglers.
//
// All shards of a cluster share private port and secret, so a capability
// minted by any shard verifies at every shard, and one server capability
// (object 0) addresses all of them; only the transport differs per shard.
#pragma once

#include <cstdint>
#include <functional>

#include "bullet/wire.h"
#include "cap/capability.h"
#include "cluster/placement.h"
#include "dir/client.h"
#include "rpc/transport.h"

namespace bullet::cluster {

class RoutingClient {
 public:
  // Maps a shard to the transport that reaches it — in production shape a
  // FailoverTransport over the shard's replica endpoints. Returns nullptr
  // when the embedding program has no route to the shard. Called on every
  // routed operation, so it should be a cheap lookup.
  using Resolver = std::function<rpc::Transport*(const ShardInfo&)>;

  // `cluster_super` is the shards' shared server capability (object 0)
  // carrying at least the write right for create.
  RoutingClient(dir::DirClient* dir, Capability cluster_super,
                Resolver resolver)
      : dir_(dir), super_(cluster_super), resolver_(std::move(resolver)) {}

  // Fetch the current map from the directory server; a newer epoch retires
  // the cached map to the fallback generation. Every operation calls this
  // lazily on first use — explicit calls are for tests and tools.
  Status refresh_map();

  // The paper operations, routed. create() round-robins across shards (any
  // shard accepts a create and allocates a slot it owns under its installed
  // ring) and moves on to the next shard when one is full or unreachable.
  Result<Capability> create(ByteSpan data, int pfactor);
  Result<std::uint32_t> size(const Capability& cap);
  Result<Bytes> read(const Capability& cap);
  Result<Bytes> read_whole(const Capability& cap);
  Result<Bytes> read_range(const Capability& cap, std::uint32_t offset,
                           std::uint32_t length);
  Status erase(const Capability& cap);

  // The owner of `object` under the cached map (fetching one if needed).
  Result<std::uint32_t> shard_for(std::uint32_t object);

  std::uint64_t epoch() const noexcept { return map_.epoch; }
  const PlacementMap& map() const noexcept { return map_; }

  // Request-trailer controls (rpc/message.h), same contract as BulletClient
  // (bullet/client.h).
  void set_trace_id(std::uint64_t id) noexcept { trace_id_ = id; }
  void set_deadline_budget_ms(std::uint32_t ms) noexcept {
    deadline_budget_us_ = static_cast<std::uint64_t>(ms) * 1000;
  }
  void enable_message_ids(std::uint64_t seed) noexcept {
    next_message_id_ = seed | 1;
  }

  // Routing telemetry.
  std::uint64_t map_fetches() const noexcept { return map_fetches_; }
  std::uint64_t wrong_shard_retries() const noexcept {
    return wrong_shard_retries_;
  }
  std::uint64_t fallback_reads() const noexcept { return fallback_reads_; }
  std::uint64_t create_reroutes() const noexcept { return create_reroutes_; }

 private:
  Status ensure_map();
  std::uint64_t claim_message_id();
  Result<rpc::Transport*> transport_for(const PlacementMap& map,
                                        std::uint32_t shard_id);
  // One RPC to one shard; `body` is copied so callers can retry it.
  Result<Bytes> call_at(const PlacementMap& map, std::uint32_t shard_id,
                        const Capability& target, std::uint16_t opcode,
                        const Bytes& body, std::uint64_t message_id);
  // Route by ring lookup with the wrong_shard / fallback loop above.
  Result<Bytes> call_routed(const Capability& cap, std::uint16_t opcode,
                            const Bytes& body);

  dir::DirClient* dir_;
  Capability super_;
  Resolver resolver_;

  PlacementMap map_;  // epoch 0: nothing cached yet
  Ring ring_;
  PlacementMap prev_map_;  // previous generation, for the rebalance fallback
  Ring prev_ring_;
  std::size_t rr_ = 0;  // create round-robin cursor

  std::uint64_t trace_id_ = 0;
  std::uint64_t deadline_budget_us_ = 0;
  std::uint64_t next_message_id_ = 0;  // 0 = message ids disabled

  std::uint64_t map_fetches_ = 0;
  std::uint64_t wrong_shard_retries_ = 0;
  std::uint64_t fallback_reads_ = 0;
  std::uint64_t create_reroutes_ = 0;
};

}  // namespace bullet::cluster
