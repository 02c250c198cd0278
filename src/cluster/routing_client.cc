#include "cluster/routing_client.h"

namespace bullet::cluster {
namespace {

// Routing attempts per operation. Each wrong_shard round trips through the
// directory server, so this bounds how long a client chases a flip that is
// still in progress (shards installed, directory not yet).
constexpr int kMaxRouteAttempts = 4;

}  // namespace

Status RoutingClient::refresh_map() {
  BULLET_ASSIGN_OR_RETURN(const dir::DirClient::MapFetch fetched,
                          dir_->fetch_map());
  ++map_fetches_;
  if (fetched.epoch == 0) {
    return Error(ErrorCode::bad_state,
                 "directory server has no placement map installed");
  }
  // Equal or older epoch: keep what we have (the cached map can be ahead of
  // a directory replica that is still catching up).
  if (map_.epoch != 0 && fetched.epoch <= map_.epoch) return Status::success();
  BULLET_ASSIGN_OR_RETURN(PlacementMap fresh,
                          PlacementMap::decode_bytes(ByteSpan(fetched.map)));
  if (fresh.epoch != fetched.epoch) {
    return Error(ErrorCode::corrupt, "map epoch disagrees with its envelope");
  }
  prev_map_ = std::move(map_);
  prev_ring_ = std::move(ring_);
  ring_ = fresh.ring();
  map_ = std::move(fresh);
  return Status::success();
}

Status RoutingClient::ensure_map() {
  if (map_.epoch != 0) return Status::success();
  return refresh_map();
}

std::uint64_t RoutingClient::claim_message_id() {
  if (next_message_id_ == 0) return 0;
  const std::uint64_t id = next_message_id_;
  if (++next_message_id_ == 0) ++next_message_id_;
  return id;
}

Result<rpc::Transport*> RoutingClient::transport_for(const PlacementMap& map,
                                                     std::uint32_t shard_id) {
  const ShardInfo* info = map.shard(shard_id);
  if (info == nullptr) {
    return Error(ErrorCode::unreachable, "shard missing from placement map");
  }
  rpc::Transport* transport = resolver_(*info);
  if (transport == nullptr) {
    return Error(ErrorCode::unreachable, "no route to shard");
  }
  return transport;
}

Result<Bytes> RoutingClient::call_at(const PlacementMap& map,
                                     std::uint32_t shard_id,
                                     const Capability& target,
                                     std::uint16_t opcode, const Bytes& body,
                                     std::uint64_t message_id) {
  BULLET_ASSIGN_OR_RETURN(rpc::Transport* const transport,
                          transport_for(map, shard_id));
  rpc::Request request;
  request.target = target;
  request.opcode = opcode;
  request.body = body;  // copy: the caller may retry at another shard
  request.trace_id = trace_id_;
  request.deadline_us = deadline_budget_us_;
  request.message_id = message_id;
  BULLET_ASSIGN_OR_RETURN(rpc::Reply reply, transport->call(request));
  if (reply.status != ErrorCode::ok) return Error(reply.status);
  return std::move(reply).take_payload();
}

Result<Bytes> RoutingClient::call_routed(const Capability& cap,
                                         std::uint16_t opcode,
                                         const Bytes& body) {
  BULLET_RETURN_IF_ERROR(ensure_map());
  if (ring_.empty()) {
    return Error(ErrorCode::bad_state, "placement map has no shards");
  }
  // One id per logical operation: every routed attempt re-sends the same
  // id, so per-shard dedup treats them as the one operation they are.
  const std::uint64_t message_id =
      opcode == wire::kDelete ? claim_message_id() : 0;
  Result<Bytes> last = Error(ErrorCode::unreachable, "not routed");
  for (int attempt = 0; attempt < kMaxRouteAttempts; ++attempt) {
    const std::uint32_t owner = ring_.owner_of(cap.object);
    auto result = call_at(map_, owner, cap, opcode, body, message_id);
    if (result.ok()) return result;
    if (result.code() == ErrorCode::wrong_shard) {
      // Stale map: refetch and re-route. The loop (not a single retry)
      // covers the flip window where shards already run the new map but
      // the directory still serves the old epoch.
      ++wrong_shard_retries_;
      last = std::move(result);
      BULLET_RETURN_IF_ERROR(refresh_map());
      continue;
    }
    const bool maybe_strayed = result.code() == ErrorCode::no_such_object ||
                               result.code() == ErrorCode::bad_capability;
    if (maybe_strayed) {
      // Mid-rebalance window: a create that raced the copy phase lives at
      // its pre-flip owner until the reconcile pass re-homes it (and
      // bad_capability can mean a post-flip create was dealt the slot a
      // stray still occupies elsewhere). Probe the previous map's owner
      // first — the likeliest holder, and possibly a shard the current map
      // no longer lists — so acked objects stay readable throughout.
      std::uint32_t prev_owner = owner;
      if (prev_map_.epoch != 0 && !prev_ring_.empty()) {
        prev_owner = prev_ring_.owner_of(cap.object);
        if (prev_owner != owner) {
          auto fallback =
              call_at(prev_map_, prev_owner, cap, opcode, body, message_id);
          if (fallback.ok()) {
            ++fallback_reads_;
            return fallback;
          }
        }
      }
      // A client born after the flip has no previous generation to
      // consult: sweep the remaining shards. Only genuinely absent
      // objects pay the O(shards) probing, and held objects are always
      // served wherever they sit, so the sweep finds any stray.
      for (const ShardInfo& s : map_.shards) {
        if (s.id == owner || s.id == prev_owner) continue;
        auto fallback = call_at(map_, s.id, cap, opcode, body, message_id);
        if (fallback.ok()) {
          ++fallback_reads_;
          return fallback;
        }
      }
    }
    return result;
  }
  return last;
}

Result<Capability> RoutingClient::create(ByteSpan data, int pfactor) {
  if (pfactor < 0 || pfactor > 255) {
    return Error(ErrorCode::bad_argument, "pfactor out of range");
  }
  BULLET_RETURN_IF_ERROR(ensure_map());
  const std::size_t shard_count = map_.shards.size();
  if (shard_count == 0) {
    return Error(ErrorCode::bad_state, "placement map has no shards");
  }
  Writer w(1 + 4 + data.size());
  w.u8(static_cast<std::uint8_t>(pfactor));
  w.blob(data);
  const Bytes body = std::move(w).take();
  const std::uint64_t message_id = claim_message_id();
  Result<Bytes> last = Error(ErrorCode::unreachable, "no shards attempted");
  for (std::size_t i = 0; i < shard_count; ++i) {
    const std::uint32_t shard_id = map_.shards[rr_ % shard_count].id;
    rr_ = (rr_ + 1) % shard_count;
    auto result =
        call_at(map_, shard_id, super_, wire::kCreate, body, message_id);
    if (result.ok()) {
      Reader r(result.value());
      return Capability::decode(r);
    }
    const ErrorCode code = result.code();
    last = std::move(result);
    if (code == ErrorCode::no_space || code == ErrorCode::unreachable ||
        code == ErrorCode::all_replicas_unreachable) {
      // Full or dead shard: spill the create to the next one. The same
      // message id rides every attempt, so a shard that did execute a
      // create we could not hear about answers the retry from its dedup
      // record rather than double-creating.
      ++create_reroutes_;
      continue;
    }
    break;
  }
  return last.error();
}

Result<std::uint32_t> RoutingClient::size(const Capability& cap) {
  BULLET_ASSIGN_OR_RETURN(Bytes body, call_routed(cap, wire::kSize, {}));
  Reader r(body);
  return r.u32();
}

Result<Bytes> RoutingClient::read(const Capability& cap) {
  BULLET_ASSIGN_OR_RETURN(Bytes body, call_routed(cap, wire::kRead, {}));
  Reader r(body);
  BULLET_ASSIGN_OR_RETURN(ByteSpan data, r.blob());
  return Bytes(data.begin(), data.end());
}

Result<Bytes> RoutingClient::read_whole(const Capability& cap) {
  BULLET_ASSIGN_OR_RETURN(const std::uint32_t n, size(cap));
  BULLET_ASSIGN_OR_RETURN(Bytes data, read(cap));
  if (data.size() != n) {
    return Error(ErrorCode::io_error, "size/read mismatch");
  }
  return data;
}

Result<Bytes> RoutingClient::read_range(const Capability& cap,
                                        std::uint32_t offset,
                                        std::uint32_t length) {
  Writer w(8);
  w.u32(offset);
  w.u32(length);
  BULLET_ASSIGN_OR_RETURN(
      Bytes body, call_routed(cap, wire::kReadRange, std::move(w).take()));
  Reader r(body);
  BULLET_ASSIGN_OR_RETURN(ByteSpan data, r.blob());
  return Bytes(data.begin(), data.end());
}

Status RoutingClient::erase(const Capability& cap) {
  auto result = call_routed(cap, wire::kDelete, {});
  if (!result.ok()) return result.error();
  return Status::success();
}

Result<std::uint32_t> RoutingClient::shard_for(std::uint32_t object) {
  BULLET_RETURN_IF_ERROR(ensure_map());
  if (ring_.empty()) {
    return Error(ErrorCode::bad_state, "placement map has no shards");
  }
  return ring_.owner_of(object);
}

}  // namespace bullet::cluster
