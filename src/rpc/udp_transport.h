// Real-network transport: Amoeba-style RPC over UDP datagrams.
//
// Everything else in this repository exchanges messages in-process (tests,
// benches on virtual time). This transport makes the same servers reachable
// over an actual socket, which is what a downstream user deploys:
//
//  * messages are fragmented into datagrams of kFragmentPayload bytes (the
//    last one shorter) with a {message id, fragment index/count} header,
//    and reassembled on receipt with one copy of each payload byte;
//  * the client retransmits the whole request on timeout (the reply is the
//    acknowledgement, as in Amoeba RPC);
//  * the server marks each request in flight, keyed by (client, fragment
//    message id), from arrival until its reply is sent, and drops a
//    retransmit that finds the mark. It keeps no reply afterwards: a later
//    retransmit executes again. That is harmless for a READ or SIZE of an
//    immutable file, and a mutation carries a request message id (the
//    client stamps one, see UdpTransport::call) that its service answers
//    from its own record — the one at-most-once layer (DESIGN.md §11);
//  * optional deterministic packet-loss injection for tests.
//
// Threading: one receive (RX) thread drains the socket in recvmmsg
// batches and reassembles fragments; a pool of `workers` dispatch threads
// executes requests through per-client ordered queues. Requests from one
// client endpoint execute one at a time in arrival order (preserving the
// in-flight suppression), while requests from different clients execute
// concurrently — services must be thread-safe (rpc::SerializedService
// wraps one that is not). The RX thread answers a request itself, with no
// queue hop, only when it arrived in one datagram from an endpoint with
// nothing queued, executing or parked, and its service's try_handle_now()
// accepts it: an answer that never blocks and fits one datagram, such as
// a Bullet cache-hit READ. Every other request goes to the pool, so the
// receive loop never waits on a lock, a device, a peer or a large send.
// Every message — request, reply, pushback — is sent by one sendmmsg
// gather: each datagram is its fragment header plus one iovec per slice
// of the message's parts, so a READ reply leaves straight from the pinned
// cache span and is never copied.
//
// Continuations: requests are dispatched through Service::handle_async().
// A service may defer its reply (e.g. a cache-miss read that submits disk
// I/O and resumes in the completion callback); the dispatching worker then
// *parks* the client — it returns to the pool and serves other clients,
// while the parked client's queue stays owned so no later request from the
// same endpoint can overtake the deferred reply. When the reply arrives it
// is sent from the completing thread, and only then is its in-flight mark
// cleared and the client released back to the ready list — per-client
// ordering and retransmit suppression hold exactly as in the synchronous
// path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "rpc/message.h"
#include "rpc/transport.h"

namespace bullet::rpc {

// Payload bytes per datagram. Every fragment of a message but the last
// carries exactly this many, the last at most this many. 63 KiB plus the
// 20-byte fragment header and 28 bytes of IPv4/UDP headers stays under the
// 65 535-byte IPv4 datagram limit and the 65 536-byte loopback MTU (the
// transport binds 127.0.0.1 only), so a 1 MB reply is 17 datagrams.
inline constexpr std::size_t kFragmentPayload = 63 * 1024;

// Fragment header: magic u32 ‖ message id u64 ‖ index u16 ‖ count u16 ‖
// payload length u32, followed by the payload.
inline constexpr std::size_t kFragmentHeader = 20;

// One datagram, parsed: header fields plus a view of the payload.
struct Fragment {
  std::uint64_t message_id = 0;
  std::uint16_t index = 0;
  std::uint16_t count = 0;
  ByteSpan payload;

  // Header and payload as one datagram (tests; the transport gathers the
  // header and the payload's slices in place instead).
  Bytes encode() const;
  // Rejects a wrong magic, a length that disagrees with the datagram,
  // count == 0 and index >= count.
  static Result<Fragment> parse(ByteSpan datagram);
};

// Rebuilds one message from its fragments with one copy of each payload
// byte: fragment i lands at offset i * kFragmentPayload of one buffer, and
// a bitmap drops duplicates. The server's receive thread and the client
// both use it.
//
// The first fragment reserves the buffer, up to kMaxReserve bytes, and
// in-order fragments append into that capacity, so the normal case
// zero-fills nothing. A fragment is dropped when its count differs from
// the first accepted one's, when it is not the last and carries other than
// kFragmentPayload bytes, or the last and carries more. It is also
// dropped while it would put the buffer's end past
// max(kMaxReserve, (received + 1) * kFragmentPayload): memory follows the
// bytes that actually arrived, so a hostile count or index cannot make the
// receiver allocate count * kFragmentPayload. The whole-message
// retransmit brings such a fragment again once the ones before it are in.
class Reassembler {
 public:
  static constexpr std::size_t kMaxReserve = 32 * kFragmentPayload;

  // Start over for `message_id`, dropping any partial message.
  void reset(std::uint64_t message_id);
  // Feed one fragment; true once the message is complete. Fragments of
  // any other message id are dropped.
  bool add(const Fragment& fragment);
  // The complete message (after add() returned true); starts over for the
  // same message id.
  Bytes take();

  std::uint64_t message_id() const noexcept { return message_id_; }

 private:
  std::uint64_t message_id_ = 0;
  std::uint16_t count_ = 0;  // 0 until the first accepted fragment
  std::uint16_t received_ = 0;
  std::vector<std::uint64_t> seen_;  // bitmap by fragment index
  Bytes buffer_;
};

struct UdpServerOptions {
  // Port 0 lets the kernel pick; the bound port is reported by port().
  std::uint16_t udp_port = 0;
  // Drop 1 in `drop_one_in` received datagrams and 1 in `drop_one_in`
  // outgoing replies (a whole reply, as losing any one of its fragments
  // would); 0 = never. Deterministic under `loss_seed`. Test hook: request
  // loss exercises retransmission; reply loss makes a retransmit reach a
  // request that already executed, which its service's message-id record
  // must answer.
  std::uint32_t drop_one_in = 0;
  std::uint64_t loss_seed = 1;
  // Dispatch threads; at least one (start() rejects 0 with bad_argument).
  unsigned workers = 2;
  // Admission control. A request that arrives when `max_queue` requests
  // are already queued across all clients, or `max_client_queue` from its
  // own endpoint, is shed in O(1) without touching a service: the client gets
  // a BS_PUSHBACK reply carrying a retry-after delay scaled by the current
  // queue depth, sleeps it and resends (UdpTransport::call). A queued
  // request whose deadline runs out before a worker reaches it is dropped
  // at dequeue. 0 = unbounded (the historical behaviour).
  std::size_t max_queue = 0;
  std::size_t max_client_queue = 0;
  // Retry-after advised when shedding at exactly max_queue depth; scaled
  // proportionally with occupancy and clamped to [1, 10 * shed_retry_ms].
  std::uint32_t shed_retry_ms = 50;
};

class UdpServer {
 public:
  // Binds 127.0.0.1:<udp_port> and starts the receive thread plus
  // `options.workers` dispatch threads; bad_argument when workers is 0.
  static Result<std::unique_ptr<UdpServer>> start(UdpServerOptions options);

  ~UdpServer();
  UdpServer(const UdpServer&) = delete;
  UdpServer& operator=(const UdpServer&) = delete;

  // Register before issuing requests; the service must outlive the server.
  Status register_service(Service* service);

  // The UDP port actually bound.
  std::uint16_t port() const noexcept { return udp_port_; }

  // Received datagrams and replies deliberately dropped by the loss
  // injector.
  std::uint64_t dropped() const noexcept;
  // Retransmits dropped because their request was still queued, executing
  // or parked on the disk when they arrived.
  std::uint64_t duplicates_suppressed() const noexcept;

  // Batch/wakeup/shed tallies; attach to a BulletServer to surface them in
  // its metrics_text().
  const IoCounters& io_counters() const noexcept;

  void stop();

 private:
  struct Impl;
  explicit UdpServer(std::shared_ptr<Impl> impl);

  // Shared, not unique: a request parked on async disk I/O holds a
  // reference from its responder context, so the socket and the per-client
  // queue state stay alive until the last deferred reply is sent — even if
  // the UdpServer itself is stopped and destroyed first.
  std::shared_ptr<Impl> impl_;
  std::uint16_t udp_port_ = 0;
};

struct UdpClientOptions {
  std::uint16_t server_udp_port = 0;  // required
  int max_attempts = 5;
  int timeout_ms = 250;       // first-attempt timeout (backoff base)
  int max_timeout_ms = 4000;  // backoff ceiling
  // Seed for the deterministic retransmit jitter; same seed, same schedule.
  std::uint64_t backoff_seed = 1;
};

// Receive timeout for the 0-based `attempt`: exponential backoff from
// `timeout_ms` with deterministic +/-25% jitter drawn from `backoff_seed`,
// clamped to [1, max_timeout_ms]. Doubling outruns the jitter band, so the
// schedule is strictly increasing until it reaches the ceiling. Exposed so
// tests can pin the schedule down.
int backoff_timeout_ms(const UdpClientOptions& options, int attempt);

// A Transport whose call() crosses the loopback network. One connection
// is one socket with one outstanding call: concurrent callers (a server's
// peer link, shared by UDP workers and disk-completion threads) are
// serialized inside call(), so each gets its own reply.
class UdpTransport final : public Transport {
 public:
  static Result<std::unique_ptr<UdpTransport>> connect(
      UdpClientOptions options);

  ~UdpTransport() override;
  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  // A request without a message id is sent with a fresh one
  // (rpc::fresh_message_id), stamped in the one encode() every attempt
  // resends, so its service can answer a retransmit that arrives after the
  // reply from its own record instead of executing it twice.
  //
  // Overload behaviour: when `request.deadline_us` is nonzero the call
  // carries a time budget — every retransmit is re-stamped with the
  // *remaining* budget, the per-attempt receive timeout never exceeds it,
  // and the call fails with ErrorCode::deadline_expired once it runs out.
  // With or without a deadline, a BS_PUSHBACK reply (ErrorCode::retry_later)
  // makes the client sleep the server-advised retry-after — overriding the
  // backoff schedule — and resend; attempts spent this way still count
  // against max_attempts.
  Result<Reply> call(const Request& request) override;

  std::uint64_t retransmissions() const noexcept {
    return retransmissions_.load(std::memory_order_relaxed);
  }
  // BS_PUSHBACK replies honored (slept and retried).
  std::uint64_t pushbacks() const noexcept {
    return pushbacks_.load(std::memory_order_relaxed);
  }

 private:
  struct Impl;
  explicit UdpTransport(std::unique_ptr<Impl> impl);

  std::unique_ptr<Impl> impl_;
  std::atomic<std::uint64_t> retransmissions_{0};
  std::atomic<std::uint64_t> pushbacks_{0};
};

}  // namespace bullet::rpc
