// RPC message framing.
//
// Amoeba RPC addresses a *capability*, not a host: the header carries the
// full capability (port, object, rights, check) plus an opcode, and the
// server validates the check field before touching the object. Bodies are
// opaque byte strings built with common/serde.h.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "cap/capability.h"
#include "common/bytes.h"
#include "common/error.h"
#include "common/serde.h"

namespace bullet::rpc {

struct Request {
  Capability target;        // object the operation applies to
  std::uint16_t opcode = 0; // service-specific operation
  Bytes body;               // operation arguments

  // The optional trailer after the body blob. It is absent when all three
  // fields below are zero, so an untraced request without a deadline or
  // operation id costs nothing extra; otherwise it is exactly kTrailerSize
  // bytes: trace_id u64 ‖ deadline_us u64 ‖ message_id u64. decode()
  // rejects every other trailing length. Only this module knows the
  // layout: transports read and rewrite the deadline through
  // peek_deadline_us() and restamp_deadline().
  static constexpr std::size_t kTrailerSize = 24;

  // Client-chosen trace id (see obs/trace.h), 0 = untraced.
  std::uint64_t trace_id = 0;

  // Remaining time budget in microseconds (0 = no deadline). Relative, not
  // absolute — no clock synchronization is assumed; the client re-stamps
  // the remaining budget on every retransmit and the server measures
  // expiry from arrival.
  std::uint64_t deadline_us = 0;

  // Operation id (0 = none), stable across retransmits AND across replica
  // failover — unlike the UDP fragment header's message id, which numbers
  // one transport's calls. A service whose second run of an operation
  // would answer differently (a Bullet create or delete, a directory
  // mutation) records the reply under this id and answers a repeat from
  // the record; the Bullet server also replicates its records to its peer,
  // so a create retried against the other replica is not executed twice.
  // This is the system's one at-most-once layer. UdpTransport and
  // FailoverTransport give an id-less request a fresh_message_id(); the
  // in-process transports send what the caller built.
  std::uint64_t message_id = 0;

  // Bytes this request occupies on the wire (for the network model).
  std::uint64_t wire_size() const noexcept {
    return kHeaderSize + body.size() + (has_trailer() ? kTrailerSize : 0);
  }

  // `default_message_id` stands in for a zero message_id, so a transport
  // stamps an id-less request in its one encode, without copying it.
  Bytes encode(std::uint64_t default_message_id = 0) const;
  static Result<Request> decode(ByteSpan wire);

  // The deadline of an encoded request in O(1), without decoding it: 0
  // unless `wire` holds a header, a body of the length it declares, and
  // then exactly a trailer — i.e. the decoded deadline_us of every wire
  // decode() accepts, and 0 for every wire it rejects.
  static std::uint64_t peek_deadline_us(ByteSpan wire) noexcept;

  // Overwrite the deadline of an encoded request in place (a retransmit
  // carries the budget it has left). No-op on a wire without a trailer.
  static void restamp_deadline(Bytes& wire, std::uint64_t remaining_us) noexcept;

 private:
  // capability ‖ opcode u16 ‖ body-length u32.
  static constexpr std::size_t kHeaderSize = Capability::kWireSize + 2 + 4;
  bool has_trailer() const noexcept {
    return trace_id != 0 || deadline_us != 0 || message_id != 0;
  }
  // Offset of the trailer in `wire`, or 0 when it carries none.
  static std::size_t trailer_offset(ByteSpan wire) noexcept;
};

// A fresh nonzero message id. One process-wide counter serves every
// caller; it starts at a value drawn from std::random_device, so two
// processes' sequences do not meet in a server's records. Thread-safe.
std::uint64_t fresh_message_id() noexcept;

// A reply's payload is the concatenation of `body` (owned, usually a small
// header the handler serialized) and `segments` (borrowed views, usually
// file bytes referencing the server's cache arena). In-process transports
// pass the Reply through without touching the payload, so a cache-hit read
// moves zero bytes inside the server; only a real wire boundary (UDP)
// gathers the segments, via encode(). On the wire the payload is
// indistinguishable from an owned body: status u16 ‖ payload-length u32 ‖
// payload.
//
// Lifetime of borrowed segments: when `retainer` is set, the segments stay
// valid (and immobile) for as long as any copy of this Reply is alive —
// the concurrent server pins the cache entry behind the span and releases
// the pin when the retainer's last reference drops. When `retainer` is
// empty the legacy single-threaded contract applies: segments are valid
// until the next operation on the owning service.
struct Reply {
  ErrorCode status = ErrorCode::ok;
  Bytes body;                      // owned payload prefix (valid when status==ok)
  std::vector<ByteSpan> segments;  // borrowed payload tail, in order
  std::shared_ptr<const void> retainer;  // keeps `segments` alive (may be null)

  std::uint64_t payload_size() const noexcept {
    std::uint64_t n = body.size();
    for (const ByteSpan s : segments) n += s.size();
    return n;
  }

  // status u16 ‖ payload-length u32.
  static constexpr std::size_t kHeaderSize = 6;

  std::uint64_t wire_size() const noexcept {
    return kHeaderSize + payload_size();
  }

  // The wire prefix. It, `body` and then `segments` are the encoded reply,
  // so a UDP server sends the three in place instead of calling encode().
  std::array<std::uint8_t, kHeaderSize> encode_header() const;

  // Gather header + body + segments into one wire buffer (a small reply
  // built whole, such as the UDP server's pushback; in-process transports
  // never call this).
  Bytes encode() const;
  static Result<Reply> decode(ByteSpan wire);
  // Same checks, but the caller's buffer becomes `body` (its header
  // stripped in place), so a reassembled reply is not copied again.
  static Result<Reply> decode(Bytes&& wire);

  // Materialize the full payload as one owned buffer. Moves `body` out
  // without copying when there are no borrowed segments (the common case
  // for every non-READ opcode).
  Bytes take_payload() &&;

  static Reply error(ErrorCode code) {
    Reply r;
    r.status = code;
    return r;
  }
  static Reply success(Bytes body = {}) {
    Reply r;
    r.body = std::move(body);
    return r;
  }
  // An ok reply whose payload is `header` followed by borrowed `payload`.
  // `retainer`, when provided, owns the payload's lifetime (see above).
  static Reply success_borrowed(Bytes header, ByteSpan payload,
                                std::shared_ptr<const void> retainer = nullptr) {
    Reply r;
    r.body = std::move(header);
    r.segments.push_back(payload);
    r.retainer = std::move(retainer);
    return r;
  }
};

}  // namespace bullet::rpc
