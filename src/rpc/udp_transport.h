// Real-network transport: Amoeba-style RPC over UDP datagrams.
//
// Everything else in this repository exchanges messages in-process (tests,
// benches on virtual time). This transport makes the same servers reachable
// over an actual socket, which is what a downstream user deploys:
//
//  * messages are fragmented into <= kFragmentPayload datagrams with a
//    {message id, fragment index/count} header and reassembled on receipt;
//  * the client retransmits the whole request on timeout (the reply is the
//    acknowledgement, as in Amoeba RPC);
//  * the server keeps a bounded cache of recently sent replies keyed by
//    (client, message id), so a retransmitted request is answered from the
//    cache instead of re-executing — at-most-once execution;
//  * optional deterministic packet-loss injection for tests.
//
// Threading: one receive thread drains the socket in recvmmsg batches and
// reassembles fragments. With `workers == 0` (the default) it also executes
// requests inline — the legacy single-threaded mode, where registered
// services are called from exactly one thread. With `workers > 0` complete
// requests are handed to a pool of dispatch threads through per-client
// ordered queues: requests from one client endpoint execute one at a time
// in arrival order (preserving the retransmit/dedup semantics), while
// requests from different clients execute concurrently — services must be
// thread-safe in this mode. Replies are sent with sendmmsg, two iovecs per
// fragment (header + payload slice), so the payload is never copied into
// per-fragment buffers.
//
// Continuations: requests are dispatched through Service::handle_async().
// A service may defer its reply (e.g. a cache-miss read that submits disk
// I/O and resumes in the completion callback); the dispatching worker then
// *parks* the client — it returns to the pool and serves other clients,
// while the parked client's queue stays owned so no later request from the
// same endpoint can overtake the deferred reply. When the reply arrives it
// is encoded, cached for retransmit suppression, and sent from the
// completing thread, and only then is the client released back to the
// ready list — per-client ordering and at-most-once execution hold exactly
// as in the synchronous path.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "rpc/message.h"
#include "rpc/transport.h"

namespace bullet::rpc {

// Payload bytes per datagram; comfortably under typical loopback MTUs once
// the 20-byte fragment header is added.
inline constexpr std::size_t kFragmentPayload = 16 * 1024;

// The server's retransmit-suppression cache: (peer, message id) -> encoded
// reply, FIFO-evicted when over the entry bound OR the byte bound. The byte
// bound matters because replies can be large (a whole-file read): without
// it, 128 cached 1 MB replies would quietly hold 128 MB. The newest entry
// is always kept, even if it alone exceeds the byte bound — the cache must
// be able to answer at least the retransmit of the last request. Internally
// synchronized; entries are shared_ptrs so a found reply can be sent while
// eviction concurrently drops it.
//
// hold()/release() protect in-flight requests from eviction churn: the
// server holds (peer, id) for the whole execute->reply window, so a burst
// of other clients' inserts can never evict a reply between its insert and
// its first transmission — the gap that would let a lost send plus a
// retransmit re-execute a request. Held keys are skipped by eviction
// (rotated back, still FIFO for everything else); the bounds may be
// exceeded transiently while more than max_entries requests are executing.
class ReplyCache {
 public:
  ReplyCache(std::size_t max_entries, std::uint64_t max_bytes)
      : max_entries_(max_entries), max_bytes_(max_bytes) {}

  // Re-bound the cache (setup time; takes effect on the next insert).
  void set_bounds(std::size_t max_entries, std::uint64_t max_bytes);

  void insert(std::uint64_t peer, std::uint64_t message_id,
              std::shared_ptr<const Bytes> reply);
  std::shared_ptr<const Bytes> find(std::uint64_t peer,
                                    std::uint64_t message_id) const;

  // Exempt (peer, id) from eviction until release(). Idempotent; the key
  // need not be cached yet (the usual case — hold at dispatch, insert at
  // reply time).
  void hold(std::uint64_t peer, std::uint64_t message_id);
  void release(std::uint64_t peer, std::uint64_t message_id);

  std::size_t entries() const;
  std::uint64_t bytes() const;
  std::uint64_t evictions() const;

 private:
  using Key = std::pair<std::uint64_t, std::uint64_t>;

  mutable std::mutex mu_;
  std::size_t max_entries_;
  std::uint64_t max_bytes_;
  std::uint64_t bytes_ = 0;
  std::uint64_t evictions_ = 0;
  std::map<Key, std::shared_ptr<const Bytes>> entries_;
  std::list<Key> fifo_;  // insertion order; front = oldest
  std::set<Key> held_;   // executing requests, exempt from eviction
};

struct UdpServerOptions {
  // Port 0 lets the kernel pick; the bound port is reported by port().
  std::uint16_t udp_port = 0;
  // Drop 1 in `drop_one_in` received datagrams (0 = never), deterministic
  // under `loss_seed`. Test hook for exercising retransmission.
  std::uint32_t drop_one_in = 0;
  std::uint64_t loss_seed = 1;
  // Replies remembered for retransmit suppression, bounded both ways.
  std::size_t reply_cache_entries = 128;
  std::uint64_t reply_cache_bytes = 8ull << 20;
  // Dispatch threads. 0 = execute requests inline on the receive thread
  // (single-threaded services); N > 0 = concurrent execution, services
  // must be thread-safe.
  unsigned workers = 0;
  // Admission control (worker-pool mode only; inline mode has no queue to
  // bound). A request that arrives when `max_queue` requests are already
  // queued across all clients, or `max_client_queue` from its own
  // endpoint, is shed in O(1) without touching a service: overload-aware
  // clients (16-byte deadline trailer) get a BS_PUSHBACK reply carrying a
  // retry-after delay scaled by the current queue depth; everyone else is
  // silently dropped and falls back to timeout/backoff retransmission.
  // 0 = unbounded (the historical behaviour).
  std::size_t max_queue = 0;
  std::size_t max_client_queue = 0;
  // Retry-after advised when shedding at exactly max_queue depth; scaled
  // proportionally with occupancy and clamped to [1, 10 * shed_retry_ms].
  std::uint32_t shed_retry_ms = 50;
};

class UdpServer {
 public:
  // Binds 127.0.0.1:<udp_port> and starts the receive thread plus
  // `options.workers` dispatch threads.
  static Result<std::unique_ptr<UdpServer>> start(UdpServerOptions options);

  ~UdpServer();
  UdpServer(const UdpServer&) = delete;
  UdpServer& operator=(const UdpServer&) = delete;

  // Register before issuing requests; the service must outlive the server.
  Status register_service(Service* service);

  // The UDP port actually bound.
  std::uint16_t port() const noexcept { return udp_port_; }

  // Datagrams deliberately dropped by the loss injector.
  std::uint64_t dropped() const noexcept;
  // Requests whose re-execution was suppressed (answered from the reply
  // cache, or already queued/executing when the retransmit arrived).
  std::uint64_t duplicates_suppressed() const noexcept;

  // Batch/wakeup tallies; attach to a BulletServer to surface in stats().
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

  // Overload behaviour: when `request.deadline_us` is nonzero the call
  // carries a time budget — every retransmit is re-stamped with the
  // *remaining* budget, the per-attempt receive timeout never exceeds it,
  // and the call fails with ErrorCode::deadline_expired once it runs out.
  // A BS_PUSHBACK reply (ErrorCode::retry_later) makes the client sleep
  // the server-advised retry-after — overriding the backoff schedule —
  // and resend; attempts spent this way still count against max_attempts.
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
