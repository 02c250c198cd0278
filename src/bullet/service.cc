// RPC surface of the BulletServer: opcode dispatch and payload codecs.
#include "bullet/server.h"

#include "obs/trace.h"

namespace bullet {
namespace {

rpc::Reply to_reply(const Status& status) {
  return status.ok() ? rpc::Reply::success() : rpc::Reply::error(status.code());
}

// READ / READ_RANGE reply. Zero-copy: own only the 4-byte blob length;
// borrow the file bytes from the cache arena, pinned there by the retainer
// for as long as the Reply lives (so a concurrent worker can encode it
// while other requests evict). Wire bytes are identical to a
// Writer::blob() reply.
rpc::Reply pinned_reply(Result<BulletServer::PinnedFile> data) {
  if (!data.ok()) return rpc::Reply::error(data.code());
  Writer w(4);
  w.u32(static_cast<std::uint32_t>(data.value().data.size()));
  return rpc::Reply::success_borrowed(std::move(w).take(), data.value().data,
                                      std::move(data.value().retainer));
}

// Close the request's handle span, which doubles as its service-latency
// sample: the histogram and the trace share one sampling decision and one
// pair of clock reads. A no-op for an unsampled request.
void close_handle_span(obs::LatencyHistogram* latency, std::uint64_t t0) {
  if (auto* trace = obs::RequestTrace::current()) {
    const std::uint64_t dur = obs::now_ns() - t0;
    trace->add_span(obs::Stage::kHandle, t0, dur);
    if (latency != nullptr) latency->record(dur);
  }
}

}  // namespace

rpc::Reply BulletServer::cap_reply(const Result<Capability>& cap) {
  if (!cap.ok()) return rpc::Reply::error(cap.code());
  Writer w(Capability::kWireSize);
  cap.value().encode(w);
  return rpc::Reply::success(std::move(w).take());
}

void BulletServer::respond_created(std::uint16_t opcode,
                                   std::uint64_t message_id,
                                   const Result<Capability>& cap,
                                   ByteSpan data, rpc::Responder respond) {
  if (!cap.ok()) return respond(rpc::Reply::error(cap.code()));
  const std::uint32_t object = cap.value().object;
  const std::uint64_t random = object_random(object);
  replicate_create(object, random, data, message_id,
                   [this, opcode, message_id, object, random,
                    reply = cap_reply(cap),
                    respond = std::move(respond)]() mutable {
                     dedup_record(message_id, opcode, reply.body, object,
                                  random);
                     respond(std::move(reply));
                   });
}

rpc::Reply BulletServer::handle(const rpc::Request& request) {
  // In-process transports enter here, so this is where their requests are
  // sampled; over UDP the transport's trace is already current and this
  // is a no-op.
  obs::RequestTrace trace(request.opcode, request.trace_id);
  return await<rpc::Reply>(
      [&](auto done) { handle_async(request, std::move(done)); });
}

void BulletServer::handle_async(const rpc::Request& request,
                                rpc::Responder respond) {
  // The handle span doubles as the per-operation service-latency sample:
  // the histogram and the trace share one sampling decision and one pair
  // of clock reads, the second taken when the reply is ready — inline, or
  // in the continuation of a request that parked on the disk queue.
  if (obs::RequestTrace::current() != nullptr) {
    obs::LatencyHistogram* latency = nullptr;
    switch (request.opcode) {
      case wire::kRead:
      case wire::kReadRange:
        latency = &read_latency_ns_;
        break;
      case wire::kCreate:
      case wire::kCreateFrom:
        latency = &create_latency_ns_;
        break;
      case wire::kDelete:
        latency = &delete_latency_ns_;
        break;
    }
    respond = [respond = std::move(respond), latency,
               t0 = obs::now_ns()](rpc::Reply&& reply) {
      close_handle_span(latency, t0);
      respond(std::move(reply));
    };
  }

  // Mutations carrying a message id consult the cross-replica dedup record
  // first: a retried (or failed-over) create/delete whose original already
  // completed is answered from the recorded reply, never re-executed.
  switch (request.opcode) {
    case wire::kCreate:
    case wire::kCreateFrom:
    case wire::kDelete: {
      rpc::Reply recorded;
      if (dedup_lookup(request.message_id, &recorded)) {
        return respond(std::move(recorded));
      }
      break;
    }
  }

  const auto bad = [&] { respond(rpc::Reply::error(ErrorCode::bad_argument)); };
  // Verify the target for an admin-style opcode, replying on failure;
  // `server_object` additionally requires the server object itself.
  const auto denied = [&](std::uint8_t required, bool server_object) {
    ErrorCode code = ErrorCode::ok;
    {
      const auto lock = lock_shared();
      const auto verified = verify(request.target, required);
      if (!verified.ok()) {
        code = verified.code();
      } else if (server_object && verified.value() != 0) {
        code = ErrorCode::bad_argument;
      }
    }
    if (code != ErrorCode::ok) respond(rpc::Reply::error(code));
    return code != ErrorCode::ok;
  };
  Reader body(request.body);
  switch (request.opcode) {
    case wire::kCreate: {
      auto pfactor = body.u8();
      auto data = pfactor.ok() ? body.blob() : Result<ByteSpan>(pfactor.error());
      if (!data.ok() || !body.done()) return bad();
      // CREATE addresses the server object; require the write right on it.
      if (denied(rights::kWrite, true)) return;
      create_async(data.value(), pfactor.value(),
                   [this, respond = std::move(respond),
                    message_id = request.message_id](
                       Result<Capability> cap, ByteSpan bytes) mutable {
                     respond_created(wire::kCreate, message_id, cap, bytes,
                                     std::move(respond));
                   });
      return;
    }
    case wire::kRead: {
      if (!body.done()) return bad();
      if (auto hit = read_hit(request.target)) {
        return respond(pinned_reply(std::move(*hit)));
      }
      read_miss_async(request.target,
                      [respond = std::move(respond)](Result<PinnedFile> data) {
                        respond(pinned_reply(std::move(data)));
                      });
      return;
    }
    case wire::kReadRange: {
      auto offset = body.u32();
      auto length = offset.ok() ? body.u32() : offset;
      if (!length.ok() || !body.done()) return bad();
      read_range_pinned_async(request.target, offset.value(), length.value(),
                              [respond = std::move(respond)](
                                  Result<PinnedFile> data) {
                                respond(pinned_reply(std::move(data)));
                              });
      return;
    }
    case wire::kSize: {
      if (!body.done()) return bad();
      auto n = size(request.target);
      if (!n.ok()) return respond(rpc::Reply::error(n.code()));
      Writer w(4);
      w.u32(n.value());
      return respond(rpc::Reply::success(std::move(w).take()));
    }
    case wire::kDelete: {
      if (!body.done()) return bad();
      // Capture the doomed file's identity before it goes: the tombstone
      // and the peer push both need (object, random).
      const std::uint32_t object = request.target.object;
      const std::uint64_t random = object_random(object);
      const Status st = erase(request.target);
      if (!st.ok() || random == 0) return respond(to_reply(st));
      replicate_erase(object, random, request.message_id,
                      [this, object, random, message_id = request.message_id,
                       respond = std::move(respond)] {
                        dedup_record(message_id, wire::kDelete, Bytes{},
                                     object, random);
                        respond(rpc::Reply::success());
                      });
      return;
    }
    case wire::kCreateFrom: {
      auto pfactor = body.u8();
      auto count = pfactor.ok() ? body.u32() : Result<std::uint32_t>(pfactor.error());
      if (!count.ok()) return bad();
      // Untrusted count: each edit occupies at least 13 bytes on the wire.
      if (count.value() > body.remaining() / 13) return bad();
      std::vector<wire::FileEdit> edits;
      edits.reserve(count.value());
      for (std::uint32_t i = 0; i < count.value(); ++i) {
        auto edit = wire::FileEdit::decode(body);
        if (!edit.ok()) return bad();
        edits.push_back(std::move(edit).value());
      }
      if (!body.done()) return bad();
      create_from_async(request.target, std::move(edits), pfactor.value(),
                        [this, respond = std::move(respond),
                         message_id = request.message_id](
                            Result<Capability> cap, ByteSpan bytes) mutable {
                          respond_created(wire::kCreateFrom, message_id, cap,
                                          bytes, std::move(respond));
                        });
      return;
    }
    case wire::kSync: {
      if (denied(rights::kAdmin, false)) return;
      return respond(to_reply(sync()));
    }
    case wire::kCompactDisk: {
      if (denied(rights::kAdmin, false)) return;
      compact_disk_async(
          [respond = std::move(respond)](Result<std::uint64_t> moved) {
            if (!moved.ok()) return respond(rpc::Reply::error(moved.code()));
            Writer w(8);
            w.u64(moved.value());
            respond(rpc::Reply::success(std::move(w).take()));
          });
      return;
    }
    case wire::kFsck: {
      if (denied(rights::kAdmin, false)) return;
      Writer w(5 * 8);
      check_consistency().encode(w);
      return respond(rpc::Reply::success(std::move(w).take()));
    }
    case wire::kStats2: {
      if (!body.done()) return bad();
      if (denied(rights::kAdmin, false)) return;
      Writer w;
      w.str(metrics_text());
      return respond(rpc::Reply::success(std::move(w).take()));
    }
    case wire::kTraceDump: {
      auto threshold_ns = body.u64();
      auto max_spans = threshold_ns.ok()
                           ? body.u32()
                           : Result<std::uint32_t>(threshold_ns.error());
      if (!max_spans.ok() || !body.done()) return bad();
      if (denied(rights::kAdmin, false)) return;
      // Note the sink is process-wide (traces cross transport and server
      // layers), so a dump through any server drains all of them.
      const auto spans = obs::TraceSink::instance().drain(threshold_ns.value(),
                                                          max_spans.value());
      Writer w(4 + spans.size() * wire::TraceSpan::kWireSize);
      w.u32(static_cast<std::uint32_t>(spans.size()));
      for (const obs::SpanRecord& s : spans) {
        wire::TraceSpan out;
        out.trace_id = s.trace_id;
        out.seq = s.seq;
        out.opcode = s.opcode;
        out.stage = static_cast<std::uint8_t>(s.stage);
        out.start_ns = s.start_ns;
        out.dur_ns = s.dur_ns;
        out.encode(w);
      }
      return respond(rpc::Reply::success(std::move(w).take()));
    }
    case wire::kReplicate: {
      // Peer-originated replication traffic, sealed with the pair's shared
      // admin capability (the peer addresses our super capability).
      if (denied(rights::kAdmin, true)) return;
      handle_replicate(request, std::move(respond));
      return;
    }
    case wire::kReplResync: {
      if (!body.done()) return bad();
      if (denied(rights::kAdmin, true)) return;
      return respond(handle_repl_resync());
    }
    case wire::kShardMap: {
      // Cluster placement administration, sealed with the cluster's shared
      // admin capability like kReplicate.
      if (denied(rights::kAdmin, true)) return;
      return respond(handle_shard_map(request));
    }
    case wire::kRestrict: {
      auto new_rights = body.u8();
      if (!new_rights.ok() || !body.done()) return bad();
      return respond(cap_reply(restrict(request.target, new_rights.value())));
    }
    default:
      return respond(rpc::Reply::error(ErrorCode::not_supported));
  }
}

std::optional<rpc::Reply> BulletServer::try_handle_now(
    const rpc::Request& request, std::size_t max_payload) {
  // The reply is the 4-byte blob length, then the file.
  if (request.opcode != wire::kRead || !request.body.empty() ||
      max_payload < 4) {
    return std::nullopt;
  }
  const std::uint64_t t0 =
      obs::RequestTrace::current() != nullptr ? obs::now_ns() : 0;
  auto hit = read_hit(request.target, /*wait=*/false, max_payload - 4);
  if (!hit.has_value()) return std::nullopt;
  rpc::Reply reply = pinned_reply(std::move(*hit));
  close_handle_span(&read_latency_ns_, t0);
  return reply;
}

// kShardMap sub-op dispatch; the caller already verified the admin right on
// the super capability.
rpc::Reply BulletServer::handle_shard_map(const rpc::Request& request) {
  Reader body(request.body);
  const auto sub = body.u8();
  if (!sub.ok()) return rpc::Reply::error(ErrorCode::bad_argument);
  switch (sub.value()) {
    case wire::kShardMapInstall: {
      auto shard = body.u32();
      auto blob = shard.ok() ? body.blob() : Result<ByteSpan>(shard.error());
      if (!blob.ok() || !body.done()) {
        return rpc::Reply::error(ErrorCode::bad_argument);
      }
      auto map = cluster::PlacementMap::decode_bytes(blob.value());
      if (!map.ok()) return rpc::Reply::error(map.code());
      const Status st =
          install_placement(shard.value(), std::move(map).value());
      if (!st.ok()) return rpc::Reply::error(st.code());
      return rpc::Reply::success();
    }
    case wire::kShardMapFetch: {
      if (!body.done()) return rpc::Reply::error(ErrorCode::bad_argument);
      const cluster::PlacementMap map = placement();
      const Bytes encoded = map.encode_bytes();
      Writer w(4 + encoded.size());
      w.blob(encoded);
      return rpc::Reply::success(std::move(w).take());
    }
    default:
      return rpc::Reply::error(ErrorCode::bad_argument);
  }
}

}  // namespace bullet
