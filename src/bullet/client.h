// Typed client stub for the Bullet service: wraps the four paper operations
// (plus extensions) over any rpc::Transport. This is the public API a
// Bullet application links against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bullet/wire.h"
#include "cap/capability.h"
#include "rpc/transport.h"

namespace bullet {

class BulletClient {
 public:
  // `transport` must outlive the client. `server` is a capability for the
  // server object (object 0) with at least the write right for create.
  BulletClient(rpc::Transport* transport, Capability server)
      : transport_(transport), server_(server) {}

  // BULLET.CREATE(SERVER, DATA, SIZE, P-FACTOR) -> CAPABILITY
  Result<Capability> create(ByteSpan data, int pfactor);

  // BULLET.SIZE(CAPABILITY) -> SIZE
  Result<std::uint32_t> size(const Capability& cap);

  // BULLET.READ(CAPABILITY, &DATA)
  Result<Bytes> read(const Capability& cap);

  // Convenience: SIZE + READ in the call sequence the paper prescribes
  // ("First BULLET.SIZE is called ... after which local memory is
  // allocated ... Then BULLET.READ is invoked").
  Result<Bytes> read_whole(const Capability& cap);

  // BULLET.DELETE(CAPABILITY)
  Status erase(const Capability& cap);

  // §5 extensions.
  Result<Capability> create_from(const Capability& source,
                                 std::span<const wire::FileEdit> edits,
                                 int pfactor);
  Result<Bytes> read_range(const Capability& cap, std::uint32_t offset,
                           std::uint32_t length);
  // Mint a weaker capability for the same object (Amoeba's std_restrict).
  Result<Capability> restrict(const Capability& cap, std::uint8_t new_rights);

  // Administration (server capability needs the admin right).
  // BS_STATS2: the server's named-metric exposition (Prometheus text);
  // read one value with obs::metric_value().
  Result<std::string> stats_text();
  // BS_TRACE_DUMP: drain traced span chains whose wall-clock extent is at
  // least `threshold_ns`, at most `max_spans` spans.
  Result<std::vector<wire::TraceSpan>> trace_dump(std::uint64_t threshold_ns,
                                                  std::uint32_t max_spans);
  Status sync();
  Result<std::uint64_t> compact_disk();
  Result<wire::FsckReport> fsck();

  // BS_REPL_RESYNC: ask the server to reconcile with its replica peer.
  Result<wire::ReplResyncReport> repl_resync();

  // Stamp every subsequent request from this client with `id` (0 = none).
  // A nonzero id forces the server to trace those requests regardless of
  // its sampling rate. The id rides the request trailer (rpc/message.h),
  // which is absent while the trace id, deadline and message id are all
  // zero.
  void set_trace_id(std::uint64_t id) noexcept { trace_id_ = id; }
  std::uint64_t trace_id() const noexcept { return trace_id_; }

  // Per-call time budget (0 = none). A nonzero budget rides the request
  // trailer as a remaining-microseconds deadline: the transport re-stamps
  // it on every retransmit, an overloaded server answers with BS_PUSHBACK
  // instead of silently queueing, expired requests are dropped at dequeue
  // rather than executed, and the call fails with deadline_expired once
  // the budget is gone.
  void set_deadline_budget_ms(std::uint32_t ms) noexcept {
    deadline_budget_us_ = static_cast<std::uint64_t>(ms) * 1000;
  }
  std::uint64_t deadline_budget_us() const noexcept {
    return deadline_budget_us_;
  }

  // Stamp every subsequent *mutating* request (create, create-from,
  // delete) with a message id drawn from this client's own counter,
  // starting at `seed | 1`, instead of leaving the id to the transport.
  // Without it, UdpTransport and FailoverTransport give each id-less
  // request a fresh id (rpc/message.h), which already makes a retransmit
  // or a failover retry execute once. An explicit sequence is for a
  // caller that needs the ids to be reproducible, or shared by several
  // clients and transports (each with a disjoint seed range, e.g. the
  // client index in the high bits); the in-process transports stamp
  // nothing, so it is also the only way to give their requests ids.
  void enable_message_ids(std::uint64_t seed) noexcept {
    next_message_id_ = seed | 1;
  }

  const Capability& server_capability() const noexcept { return server_; }

 private:
  Result<Bytes> call(const Capability& target, std::uint16_t opcode,
                     Bytes body);

  rpc::Transport* transport_;
  Capability server_;
  std::uint64_t trace_id_ = 0;
  std::uint64_t deadline_budget_us_ = 0;
  std::uint64_t next_message_id_ = 0;  // 0 = the transport stamps ids
};

}  // namespace bullet
