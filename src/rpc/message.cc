#include "rpc/message.h"

#include <atomic>
#include <random>

namespace bullet::rpc {

std::uint64_t fresh_message_id() noexcept {
  static std::atomic<std::uint64_t> next{[] {
    std::random_device seed;
    return (std::uint64_t{seed()} << 32) ^ seed();
  }()};
  std::uint64_t id = 0;
  while (id == 0) id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Bytes Request::encode(std::uint64_t default_message_id) const {
  const std::uint64_t id = message_id != 0 ? message_id : default_message_id;
  const bool trailer = trace_id != 0 || deadline_us != 0 || id != 0;
  Writer w(kHeaderSize + body.size() + (trailer ? kTrailerSize : 0));
  target.encode(w);
  w.u16(opcode);
  w.blob(body);
  if (trailer) {
    w.u64(trace_id);
    w.u64(deadline_us);
    w.u64(id);
  }
  return std::move(w).take();
}

Result<Request> Request::decode(ByteSpan wire) {
  Reader r(wire);
  Request req;
  BULLET_ASSIGN_OR_RETURN(req.target, Capability::decode(r));
  BULLET_ASSIGN_OR_RETURN(req.opcode, r.u16());
  BULLET_ASSIGN_OR_RETURN(ByteSpan body, r.blob());
  req.body.assign(body.begin(), body.end());
  if (r.remaining() == kTrailerSize) {
    BULLET_ASSIGN_OR_RETURN(req.trace_id, r.u64());
    BULLET_ASSIGN_OR_RETURN(req.deadline_us, r.u64());
    BULLET_ASSIGN_OR_RETURN(req.message_id, r.u64());
  }
  if (!r.done()) return Error(ErrorCode::bad_argument, "trailing bytes");
  return req;
}

std::size_t Request::trailer_offset(ByteSpan wire) noexcept {
  if (wire.size() < kHeaderSize + kTrailerSize) return 0;
  Reader r(wire.subspan(kHeaderSize - 4, 4));
  const std::uint64_t body_len = r.u32().value();
  if (wire.size() - kHeaderSize - kTrailerSize != body_len) return 0;
  return kHeaderSize + body_len;
}

std::uint64_t Request::peek_deadline_us(ByteSpan wire) noexcept {
  const std::size_t at = trailer_offset(wire);
  if (at == 0) return 0;
  Reader r(wire.subspan(at + 8, 8));
  return r.u64().value();
}

void Request::restamp_deadline(Bytes& wire, std::uint64_t remaining_us) noexcept {
  const std::size_t at = trailer_offset(ByteSpan(wire));
  if (at == 0) return;
  for (std::size_t i = 0; i < 8; ++i) {
    wire[at + 8 + i] = static_cast<std::uint8_t>(remaining_us >> (8 * i));
  }
}

std::array<std::uint8_t, Reply::kHeaderSize> Reply::encode_header() const {
  const auto code = static_cast<std::uint16_t>(status);
  const auto length = static_cast<std::uint32_t>(payload_size());
  return {static_cast<std::uint8_t>(code), static_cast<std::uint8_t>(code >> 8),
          static_cast<std::uint8_t>(length),
          static_cast<std::uint8_t>(length >> 8),
          static_cast<std::uint8_t>(length >> 16),
          static_cast<std::uint8_t>(length >> 24)};
}

Bytes Reply::encode() const {
  Writer w(wire_size());
  w.bytes(encode_header());
  w.bytes(body);
  for (const ByteSpan s : segments) w.bytes(s);
  return std::move(w).take();
}

Bytes Reply::take_payload() && {
  if (segments.empty()) return std::move(body);
  Bytes out;
  out.reserve(payload_size());
  append(out, body);
  for (const ByteSpan s : segments) append(out, s);
  segments.clear();
  return out;
}

Result<Reply> Reply::decode(ByteSpan wire) {
  Reader r(wire);
  Reply rep;
  BULLET_ASSIGN_OR_RETURN(const std::uint16_t status, r.u16());
  rep.status = static_cast<ErrorCode>(status);
  BULLET_ASSIGN_OR_RETURN(ByteSpan body, r.blob());
  rep.body.assign(body.begin(), body.end());
  if (!r.done()) return Error(ErrorCode::bad_argument, "trailing bytes");
  return rep;
}

Result<Reply> Reply::decode(Bytes&& wire) {
  Reader r(wire);
  Reply rep;
  BULLET_ASSIGN_OR_RETURN(const std::uint16_t status, r.u16());
  rep.status = static_cast<ErrorCode>(status);
  if (const auto payload = r.blob(); !payload.ok()) return payload.error();
  if (!r.done()) return Error(ErrorCode::bad_argument, "trailing bytes");
  wire.erase(wire.begin(), wire.begin() + kHeaderSize);
  rep.body = std::move(wire);
  return rep;
}

}  // namespace bullet::rpc
