#include "bullet/client.h"

namespace bullet {
namespace {

// A READ/READ-RANGE reply is a u32 length ‖ the bytes. Strip the prefix in
// place, so the reply buffer becomes the result without another copy.
Result<Bytes> take_blob(Bytes body) {
  Reader r(body);
  BULLET_ASSIGN_OR_RETURN(const ByteSpan data, r.blob());
  const std::size_t size = data.size();
  body.erase(body.begin(), body.begin() + 4);
  body.resize(size);
  return body;
}

}  // namespace

Result<Bytes> BulletClient::call(const Capability& target,
                                 std::uint16_t opcode, Bytes body) {
  rpc::Request request;
  request.target = target;
  request.opcode = opcode;
  request.body = std::move(body);
  request.trace_id = trace_id_;
  request.deadline_us = deadline_budget_us_;
  if (next_message_id_ != 0) {
    switch (opcode) {
      case wire::kCreate:
      case wire::kCreateFrom:
      case wire::kDelete:
        // One fresh id per logical operation; the transport layer re-sends
        // the same Request on retransmit and failover, so every copy of
        // this operation carries the same id.
        request.message_id = next_message_id_;
        if (++next_message_id_ == 0) ++next_message_id_;
        break;
    }
  }
  BULLET_ASSIGN_OR_RETURN(rpc::Reply reply, transport_->call(request));
  if (reply.status != ErrorCode::ok) return Error(reply.status);
  // Borrowed segments (zero-copy READ replies) are only valid until the
  // next server operation; materialize them before returning.
  return std::move(reply).take_payload();
}

Result<Capability> BulletClient::create(ByteSpan data, int pfactor) {
  if (pfactor < 0 || pfactor > 255) {
    return Error(ErrorCode::bad_argument, "pfactor out of range");
  }
  Writer w(1 + 4 + data.size());
  w.u8(static_cast<std::uint8_t>(pfactor));
  w.blob(data);
  BULLET_ASSIGN_OR_RETURN(Bytes body,
                          call(server_, wire::kCreate, std::move(w).take()));
  Reader r(body);
  return Capability::decode(r);
}

Result<std::uint32_t> BulletClient::size(const Capability& cap) {
  BULLET_ASSIGN_OR_RETURN(Bytes body, call(cap, wire::kSize, {}));
  Reader r(body);
  return r.u32();
}

Result<Bytes> BulletClient::read(const Capability& cap) {
  BULLET_ASSIGN_OR_RETURN(Bytes body, call(cap, wire::kRead, {}));
  return take_blob(std::move(body));
}

Result<Bytes> BulletClient::read_whole(const Capability& cap) {
  BULLET_ASSIGN_OR_RETURN(const std::uint32_t n, size(cap));
  BULLET_ASSIGN_OR_RETURN(Bytes data, read(cap));
  if (data.size() != n) {
    return Error(ErrorCode::io_error, "size/read mismatch");
  }
  return data;
}

Status BulletClient::erase(const Capability& cap) {
  auto result = call(cap, wire::kDelete, {});
  if (!result.ok()) return result.error();
  return Status::success();
}

Result<Capability> BulletClient::create_from(
    const Capability& source, std::span<const wire::FileEdit> edits,
    int pfactor) {
  if (pfactor < 0 || pfactor > 255) {
    return Error(ErrorCode::bad_argument, "pfactor out of range");
  }
  Writer w;
  w.u8(static_cast<std::uint8_t>(pfactor));
  w.u32(static_cast<std::uint32_t>(edits.size()));
  for (const wire::FileEdit& e : edits) e.encode(w);
  BULLET_ASSIGN_OR_RETURN(
      Bytes body, call(source, wire::kCreateFrom, std::move(w).take()));
  Reader r(body);
  return Capability::decode(r);
}

Result<Bytes> BulletClient::read_range(const Capability& cap,
                                       std::uint32_t offset,
                                       std::uint32_t length) {
  Writer w(8);
  w.u32(offset);
  w.u32(length);
  BULLET_ASSIGN_OR_RETURN(Bytes body,
                          call(cap, wire::kReadRange, std::move(w).take()));
  return take_blob(std::move(body));
}

Result<Capability> BulletClient::restrict(const Capability& cap,
                                          std::uint8_t new_rights) {
  Writer w(1);
  w.u8(new_rights);
  BULLET_ASSIGN_OR_RETURN(Bytes body,
                          call(cap, wire::kRestrict, std::move(w).take()));
  Reader r(body);
  return Capability::decode(r);
}

Result<std::string> BulletClient::stats_text() {
  BULLET_ASSIGN_OR_RETURN(Bytes body, call(server_, wire::kStats2, {}));
  Reader r(body);
  return r.str();
}

Result<std::vector<wire::TraceSpan>> BulletClient::trace_dump(
    std::uint64_t threshold_ns, std::uint32_t max_spans) {
  Writer w(12);
  w.u64(threshold_ns);
  w.u32(max_spans);
  BULLET_ASSIGN_OR_RETURN(Bytes body,
                          call(server_, wire::kTraceDump, std::move(w).take()));
  Reader r(body);
  BULLET_ASSIGN_OR_RETURN(const std::uint32_t count, r.u32());
  if (count > r.remaining() / wire::TraceSpan::kWireSize) {
    return Error(ErrorCode::bad_argument, "trace dump count out of range");
  }
  std::vector<wire::TraceSpan> spans;
  spans.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    BULLET_ASSIGN_OR_RETURN(wire::TraceSpan span, wire::TraceSpan::decode(r));
    spans.push_back(span);
  }
  return spans;
}

Status BulletClient::sync() {
  auto result = call(server_, wire::kSync, {});
  if (!result.ok()) return result.error();
  return Status::success();
}

Result<std::uint64_t> BulletClient::compact_disk() {
  BULLET_ASSIGN_OR_RETURN(Bytes body, call(server_, wire::kCompactDisk, {}));
  Reader r(body);
  return r.u64();
}

Result<wire::FsckReport> BulletClient::fsck() {
  BULLET_ASSIGN_OR_RETURN(Bytes body, call(server_, wire::kFsck, {}));
  Reader r(body);
  return wire::FsckReport::decode(r);
}

Result<wire::ReplResyncReport> BulletClient::repl_resync() {
  BULLET_ASSIGN_OR_RETURN(Bytes body, call(server_, wire::kReplResync, {}));
  Reader r(body);
  return wire::ReplResyncReport::decode(r);
}

}  // namespace bullet
