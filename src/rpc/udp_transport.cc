#include "rpc/udp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <optional>
#include <set>
#include <unordered_map>

#include "common/log.h"
#include "common/rng.h"
#include "common/serde.h"
#include "obs/trace.h"

namespace bullet::rpc {
namespace {

constexpr char kLog[] = "udp";
constexpr std::uint32_t kFragMagic = 0x424C4652;  // "BLFR"
// Datagrams per recvmmsg/sendmmsg batch.
constexpr std::size_t kIoBatch = 32;
// Receive buffer per datagram. The slack makes an oversize datagram fail
// the length check instead of arriving truncated to a plausible one.
constexpr std::size_t kDatagramBuffer = kFragmentPayload + kFragmentHeader + 64;

using FragmentHeader = std::array<std::uint8_t, kFragmentHeader>;

Error errno_error(const char* what) {
  return Error(ErrorCode::io_error,
               std::string(what) + ": " + std::strerror(errno));
}

void store_le(std::uint8_t* p, std::uint64_t v, std::size_t nbytes) {
  for (std::size_t i = 0; i < nbytes; ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

FragmentHeader fragment_header(std::uint64_t message_id, std::uint16_t index,
                               std::uint16_t count, std::uint32_t payload_len) {
  FragmentHeader h;
  store_le(h.data(), kFragMagic, 4);
  store_le(h.data() + 4, message_id, 8);
  store_le(h.data() + 12, index, 2);
  store_le(h.data() + 14, count, 2);
  store_le(h.data() + 16, payload_len, 4);
  return h;
}

// Fragment-and-send the concatenation of `parts` as one message via
// sendmmsg. Each datagram is gathered from its header (stack) and one
// iovec per slice of the parts it covers, so nothing is copied into a wire
// buffer: a READ reply goes out straight from its 6-byte header, its body
// and the pinned cache span. Requests, replies and pushbacks all leave
// through here.
Status send_message_batched(int fd, const sockaddr_in& to,
                            std::uint64_t message_id,
                            std::span<const ByteSpan> parts) {
  std::size_t total = 0;
  for (const ByteSpan part : parts) total += part.size();
  const std::size_t count =
      total == 0 ? 1 : (total + kFragmentPayload - 1) / kFragmentPayload;
  if (count > 0xFFFF) return Error(ErrorCode::too_large, "message too large");
  sockaddr_in dest = to;
  std::array<FragmentHeader, kIoBatch> headers;
  std::array<mmsghdr, kIoBatch> msgs;
  // A datagram needs at most its header plus one slice of every part.
  std::vector<iovec> iovs(std::min(kIoBatch, count) * (1 + parts.size()));
  std::size_t part = 0;    // cursor: the next unsent byte is
  std::size_t within = 0;  // parts[part][within]
  for (std::size_t first = 0; first < count; first += kIoBatch) {
    const std::size_t batch = std::min(kIoBatch, count - first);
    std::size_t used = 0;
    for (std::size_t j = 0; j < batch; ++j) {
      const std::size_t idx = first + j;
      const std::size_t len =
          std::min(kFragmentPayload, total - idx * kFragmentPayload);
      headers[j] = fragment_header(message_id, static_cast<std::uint16_t>(idx),
                                   static_cast<std::uint16_t>(count),
                                   static_cast<std::uint32_t>(len));
      iovec* const datagram = iovs.data() + used;
      iovs[used++] = {headers[j].data(), kFragmentHeader};
      for (std::size_t left = len; left > 0;) {
        const ByteSpan p = parts[part];
        const std::size_t slice = std::min(left, p.size() - within);
        if (slice > 0) {
          iovs[used++] = {const_cast<std::uint8_t*>(p.data() + within), slice};
        }
        within += slice;
        left -= slice;
        if (within == p.size()) {
          ++part;
          within = 0;
        }
      }
      msgs[j] = mmsghdr{};
      msgs[j].msg_hdr.msg_name = &dest;
      msgs[j].msg_hdr.msg_namelen = sizeof dest;
      msgs[j].msg_hdr.msg_iov = datagram;
      msgs[j].msg_hdr.msg_iovlen =
          static_cast<std::size_t>(iovs.data() + used - datagram);
    }
    std::size_t done = 0;
    while (done < batch) {
      const int sent =
          ::sendmmsg(fd, msgs.data() + done, static_cast<unsigned>(batch - done), 0);
      if (sent < 0) {
        if (errno == EINTR) continue;
        return errno_error("sendmmsg");
      }
      done += static_cast<std::size_t>(sent);
    }
  }
  return Status::success();
}

Status send_message_batched(int fd, const sockaddr_in& to,
                            std::uint64_t message_id, ByteSpan message) {
  return send_message_batched(fd, to, message_id, std::span(&message, 1));
}

// kIoBatch datagram buffers for recvmmsg, reused across receives.
class ReceiveRing {
 public:
  ReceiveRing()
      : buffers_(kIoBatch, std::vector<std::uint8_t>(kDatagramBuffer)),
        from_(kIoBatch),
        iovs_(kIoBatch),
        msgs_(kIoBatch) {}

  // MSG_WAITFORONE: block (up to SO_RCVTIMEO) for the first datagram, then
  // take whatever else is already queued — a burst of fragments arrives as
  // one batch, one syscall. Returns the datagram count, or -1 with errno.
  int receive(int fd) {
    for (std::size_t i = 0; i < kIoBatch; ++i) {
      iovs_[i] = {buffers_[i].data(), buffers_[i].size()};
      msgs_[i] = mmsghdr{};
      msgs_[i].msg_hdr.msg_name = &from_[i];
      msgs_[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
      msgs_[i].msg_hdr.msg_iov = &iovs_[i];
      msgs_[i].msg_hdr.msg_iovlen = 1;
    }
    return ::recvmmsg(fd, msgs_.data(), kIoBatch, MSG_WAITFORONE, nullptr);
  }
  ByteSpan datagram(int i) const {
    return ByteSpan(buffers_[i].data(), msgs_[i].msg_len);
  }
  const sockaddr_in& from(int i) const { return from_[i]; }

 private:
  std::vector<std::vector<std::uint8_t>> buffers_;
  std::vector<sockaddr_in> from_;
  std::vector<iovec> iovs_;
  std::vector<mmsghdr> msgs_;
};

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

Status set_recv_timeout(int fd, int timeout_ms) {
  if (timeout_ms <= 0) return Status::success();
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) != 0) {
    return errno_error("setsockopt");
  }
  return Status::success();
}

Result<int> make_socket(std::uint16_t bind_port, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return errno_error("socket");
  sockaddr_in addr = loopback(bind_port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const Error e = errno_error("bind");
    ::close(fd);
    return e;
  }
  // Large messages burst many fragments back-to-back; a roomy receive
  // buffer keeps the kernel from dropping them before the reader drains
  // the socket (clamped by net.core.rmem_max).
  const int kBufferBytes = 4 << 20;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &kBufferBytes,
                     sizeof kBufferBytes);
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &kBufferBytes,
                     sizeof kBufferBytes);
  const Status st = set_recv_timeout(fd, timeout_ms);
  if (!st.ok()) {
    ::close(fd);
    return Error(ErrorCode::io_error, st.to_string());
  }
  return fd;
}

std::uint16_t bound_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

// Key identifying one client endpoint.
std::uint64_t peer_key(const sockaddr_in& addr) {
  return (static_cast<std::uint64_t>(addr.sin_addr.s_addr) << 16) |
         addr.sin_port;
}

// The encoded BS_PUSHBACK reply: status retry_later, payload = u32
// retry-after milliseconds. Built directly on the RX thread — shedding a
// request costs one small allocation and one sendmmsg, never a service
// dispatch or a disk touch.
Bytes make_pushback_wire(std::uint32_t retry_after_ms) {
  Reply reply = Reply::error(ErrorCode::retry_later);
  Writer w(4);
  w.u32(retry_after_ms);
  reply.body = std::move(w).take();
  return reply.encode();
}

// Parse a pushback reply's advised delay (client side).
std::uint32_t pushback_retry_after_ms(const Reply& reply, int fallback_ms) {
  Reader r(reply.body);
  const auto ms = r.u32();
  if (!ms.ok() || !r.done()) {
    return static_cast<std::uint32_t>(std::max(1, fallback_ms));
  }
  return std::max<std::uint32_t>(1, ms.value());
}

}  // namespace

// --- fragments ---------------------------------------------------------------

Bytes Fragment::encode() const {
  const FragmentHeader header = fragment_header(
      message_id, index, count, static_cast<std::uint32_t>(payload.size()));
  Bytes out(header.begin(), header.end());
  append(out, payload);
  return out;
}

Result<Fragment> Fragment::parse(ByteSpan datagram) {
  Reader r(datagram);
  Fragment f;
  BULLET_ASSIGN_OR_RETURN(const std::uint32_t magic, r.u32());
  if (magic != kFragMagic) {
    return Error(ErrorCode::bad_argument, "not a fragment");
  }
  BULLET_ASSIGN_OR_RETURN(f.message_id, r.u64());
  BULLET_ASSIGN_OR_RETURN(f.index, r.u16());
  BULLET_ASSIGN_OR_RETURN(f.count, r.u16());
  BULLET_ASSIGN_OR_RETURN(const std::uint32_t len, r.u32());
  BULLET_ASSIGN_OR_RETURN(f.payload, r.bytes(len));
  if (!r.done() || f.count == 0 || f.index >= f.count) {
    return Error(ErrorCode::bad_argument, "malformed fragment");
  }
  return f;
}

void Reassembler::reset(std::uint64_t message_id) {
  message_id_ = message_id;
  count_ = 0;
  received_ = 0;
  seen_.clear();
  buffer_.clear();
}

bool Reassembler::add(const Fragment& f) {
  if (f.message_id != message_id_ || f.index >= f.count) return false;
  if (count_ != 0 && f.count != count_) return false;
  const bool last = f.index + 1 == f.count;
  if (last ? f.payload.size() > kFragmentPayload
           : f.payload.size() != kFragmentPayload) {
    return false;
  }
  const std::size_t offset = std::size_t{f.index} * kFragmentPayload;
  const std::size_t end = offset + f.payload.size();
  if (end > std::max(kMaxReserve,
                     (std::size_t{received_} + 1) * kFragmentPayload)) {
    return false;
  }
  if (count_ == 0) {
    count_ = f.count;
    seen_.assign((count_ + 63) / 64, 0);
    // Exact when the last fragment comes first, as a one-fragment message's
    // does.
    buffer_.reserve(std::min(
        last ? end : std::size_t{count_} * kFragmentPayload, kMaxReserve));
  }
  std::uint64_t& word = seen_[f.index / 64];
  const std::uint64_t bit = std::uint64_t{1} << (f.index % 64);
  if ((word & bit) != 0) return false;
  word |= bit;
  if (offset == buffer_.size()) {
    append(buffer_, f.payload);  // in order: no zero-fill
  } else {
    // Out of order: only the gap before it is zero-filled, and the
    // fragments that belong there overwrite it.
    if (end > buffer_.size()) buffer_.resize(end);
    std::copy(f.payload.begin(), f.payload.end(), buffer_.begin() + offset);
  }
  return ++received_ == count_;
}

Bytes Reassembler::take() {
  Bytes out = std::move(buffer_);
  reset(message_id_);
  return out;
}

// --- server ------------------------------------------------------------------

struct UdpServer::Impl : std::enable_shared_from_this<UdpServer::Impl> {
  int fd = -1;
  UdpServerOptions options;
  IoCounters io;

  std::mutex services_mu;
  std::unordered_map<std::uint64_t, Service*> services;  // by public port

  std::thread rx_thread;
  std::atomic<bool> running{false};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> duplicates{0};
  Rng loss_rng{1};  // RX thread only
  // Reply-side loss: finish() runs on the RX thread, workers and
  // completion threads.
  std::mutex reply_loss_mu;
  Rng reply_loss_rng{1};

  // Multi-fragment messages being reassembled, at most one per client
  // endpoint; RX thread only. A UdpTransport connection has one call
  // outstanding and reuses its message id for every retransmit, so a
  // fragment of another message from the same endpoint means the client
  // has moved on (or restarted on the same port): it replaces the partial
  // message, which then costs no more than one endpoint's entry.
  struct Inbound {
    Reassembler message;
    std::uint64_t first_ns = 0;  // first-fragment arrival (0 = not tracing)
  };
  std::unordered_map<std::uint64_t, Inbound> assembling;

  // Worker-pool state. Each client endpoint gets an ordered queue; at most
  // one worker drains a given client at a time, so requests from one
  // client execute in arrival order while different clients proceed in
  // parallel. `pending_ids` suppresses re-execution of a retransmitted
  // request that is still queued, executing or parked; once its reply is
  // sent a retransmit executes again (see the header). Client entries are
  // never erased — one small record per distinct endpoint.
  struct WorkItem {
    sockaddr_in from{};
    std::uint64_t message_id = 0;
    // The request as it arrived. A one-datagram request the RX thread
    // offered to the fast path arrives decoded instead, with the trace the
    // RX thread started for it (sampled or not): each request gets one
    // sampling decision, wherever it runs.
    Bytes wire;
    std::optional<Request> request;
    std::unique_ptr<obs::RequestTrace> trace;
    // Trace timestamps, 0 when tracing is off: first-fragment arrival and
    // reassembly-complete/enqueue time (the queue span's start).
    std::uint64_t rx_first_ns = 0;
    std::uint64_t rx_done_ns = 0;
    // Absolute steady-clock expiry (0 = no deadline), stamped at admission
    // from the request's relative budget. Checked again at dequeue so an
    // expired request costs the worker an O(1) drop, not a dispatch.
    std::uint64_t deadline_ns = 0;
  };
  struct ClientState {
    std::deque<WorkItem> pending;
    std::set<std::uint64_t> pending_ids;
    bool scheduled = false;  // in `ready` or owned by a worker
  };
  std::mutex work_mu;
  std::condition_variable work_cv;
  std::unordered_map<std::uint64_t, ClientState> clients;
  std::deque<std::uint64_t> ready;  // clients with work, not yet owned
  std::size_t total_pending = 0;    // queued (not yet dequeued) across clients
  bool shutdown_workers = false;
  std::vector<std::thread> workers;

  ~Impl() {
    if (fd >= 0) ::close(fd);
  }

  Service* find_service(std::uint64_t port) {
    std::lock_guard<std::mutex> lock(services_mu);
    const auto it = services.find(port);
    return it == services.end() ? nullptr : it->second;
  }

  // Everything a deferred reply needs to find its way back to the wire
  // after the dispatching thread has moved on. Holds a shared_ptr to the
  // Impl so the socket and queue state outlive even a stopped server while
  // a continuation is pending.
  struct RespondCtx {
    std::shared_ptr<Impl> impl;
    sockaddr_in from{};
    std::uint64_t peer = 0;
    std::uint64_t message_id = 0;
    // The trace is heap-owned by the context (not stack-owned by
    // execute()) so it survives a park; finish() destroys it on whichever
    // thread delivers the reply, publishing the spans.
    std::unique_ptr<obs::RequestTrace> trace;
    // Handoff flag between the dispatching worker and finish(): whoever
    // flips it second does the queue bookkeeping, so the sync case (finish
    // ran inside handle_async) and the parked case (finish runs later from
    // a completion thread) both clean up exactly once.
    std::atomic<bool> completed{false};
  };

  // The request's trace: one sampling decision, made on the thread that
  // first decodes the request, which becomes the trace's current thread.
  // The rx span covers fragment reassembly (timestamps captured by the RX
  // thread, both 0 when tracing is off).
  static std::unique_ptr<obs::RequestTrace> start_trace(
      const Request& request, std::uint64_t rx_first_ns,
      std::uint64_t rx_done_ns) {
    auto trace =
        std::make_unique<obs::RequestTrace>(request.opcode, request.trace_id);
    if (trace->active() && rx_first_ns != 0 && rx_done_ns >= rx_first_ns) {
      trace->add_span(obs::Stage::kRx, rx_first_ns, rx_done_ns - rx_first_ns);
    }
    return trace;
  }

  // Decode (unless the RX thread already did) and dispatch, on a worker;
  // the reply path — gather and send — lives in finish(), which the
  // service's responder invokes either synchronously inside handle_async()
  // or later from a disk-completion thread. The returned context lets the
  // caller detect a park (completed still false).
  //
  // The queue span covers enqueue→worker pickup (`dequeue_ns`, 0 when
  // tracing is off). The trace becomes the thread's current trace for the
  // dispatch; the service's own spans (lock, cache, disk) attach to it,
  // and a service that parks carries it across the continuation via
  // RequestTrace::suspend()/resume().
  std::shared_ptr<RespondCtx> execute(std::uint64_t peer, WorkItem& item,
                                      std::uint64_t dequeue_ns) {
    auto ctx = std::make_shared<RespondCtx>();
    ctx->impl = shared_from_this();
    ctx->from = item.from;
    ctx->peer = peer;
    ctx->message_id = item.message_id;
    if (!item.request.has_value()) {
      auto decoded = Request::decode(item.wire);
      if (!decoded.ok()) {
        finish(*ctx, Reply::error(ErrorCode::bad_argument));
        return ctx;
      }
      item.request = std::move(decoded).value();
    }
    const Request& request = *item.request;
    if (item.trace != nullptr) {
      ctx->trace = std::move(item.trace);
      obs::RequestTrace::resume(ctx->trace.get());
    } else {
      ctx->trace = start_trace(request, item.rx_first_ns, item.rx_done_ns);
    }
    if (ctx->trace->active() && dequeue_ns != 0 && item.rx_done_ns != 0 &&
        dequeue_ns >= item.rx_done_ns) {
      ctx->trace->add_span(obs::Stage::kQueue, item.rx_done_ns,
                           dequeue_ns - item.rx_done_ns);
    }
    Service* service = find_service(request.target.port.value());
    if (service == nullptr) {
      finish(*ctx, Reply::error(ErrorCode::unreachable));
      return ctx;
    }
    // Read before dispatch: once a request parks, finish() may destroy
    // the trace on a completion thread at any moment.
    const obs::RequestTrace* const trace = ctx->trace.get();
    service->handle_async(request, [ctx](Reply&& reply) {
      ctx->impl->finish(*ctx, std::move(reply));
    });
    // If the service parked without detaching the trace (it should suspend
    // before releasing this thread), detach it here so this thread does
    // not carry a stale TLS pointer into the next request it dispatches.
    if (!ctx->completed.load(std::memory_order_acquire) &&
        obs::RequestTrace::current() == trace) {
      (void)obs::RequestTrace::suspend();
    }
    return ctx;
  }

  // Send, then release the request's in-flight/ordering marks. Runs on
  // the RX thread (a fast-path answer), the dispatching worker
  // (synchronous services) or whatever thread completes a parked request's
  // disk I/O. The Reply may borrow pinned cache bytes; the pin lives until
  // `reply` is destroyed, after the send gathered them.
  void finish(RespondCtx& ctx, Reply&& reply) {
    // A retry_later reply is a shed, not an answer: make sure it carries a
    // retry-after for the client to sleep on.
    if (reply.status == ErrorCode::retry_later) {
      if (reply.body.empty() && reply.segments.empty()) {
        Writer w(4);
        w.u32(std::max<std::uint32_t>(1, options.shed_retry_ms));
        reply.body = std::move(w).take();
      }
      io.shed_pushback.fetch_add(1, std::memory_order_relaxed);
    }
    if (lose_reply()) {
      dropped.fetch_add(1);
    } else {
      obs::ScopedSpan span(obs::Stage::kTx);
      const auto header = reply.encode_header();
      std::vector<ByteSpan> parts{ByteSpan(header), ByteSpan(reply.body)};
      parts.insert(parts.end(), reply.segments.begin(), reply.segments.end());
      (void)send_message_batched(fd, ctx.from, ctx.message_id, parts);
    }
    // The marks clear only after the send, so a retransmit that arrives
    // before the reply left is dropped. One that arrives later executes
    // again; a service whose second run would answer differently records
    // the reply under the request's message id before responding.
    //
    // Publish the trace (destructor clears this thread's TLS slot if the
    // trace is attached here — sync dispatch or a resumed continuation).
    ctx.trace.reset();
    // Second one through does the bookkeeping: if the dispatching worker
    // already saw completed == true it continued draining the client
    // itself; otherwise the client sat parked and is released here. A
    // fast-path answer holds no marks, and nobody flips its flag again.
    if (ctx.completed.exchange(true, std::memory_order_acq_rel)) unpark(ctx);
  }

  bool lose_reply() {
    if (options.drop_one_in == 0) return false;
    std::lock_guard<std::mutex> lock(reply_loss_mu);
    return reply_loss_rng.next_below(options.drop_one_in) == 0;
  }

  // Release a client whose head-of-queue request parked: drop the request
  // from the in-flight set (its reply is sent) and hand the client back
  // to the pool if more work queued up behind the parked request.
  void unpark(const RespondCtx& ctx) {
    bool notify = false;
    {
      std::lock_guard<std::mutex> lock(work_mu);
      ClientState& client = clients[ctx.peer];
      client.pending_ids.erase(ctx.message_id);
      if (!client.pending.empty() && !shutdown_workers) {
        ready.push_back(ctx.peer);
        notify = true;
      } else {
        client.scheduled = false;
      }
    }
    if (notify) work_cv.notify_one();
  }

  // What the RX thread knows about an endpoint before it looks at a
  // datagram's contents.
  enum class Probe { kDuplicate, kBusy, kIdle };

  // kDuplicate if `message_id` from `peer` is queued, executing or parked
  // right now; otherwise kIdle when the endpoint has nothing queued,
  // executing or parked, else kBusy. Only the RX thread makes an endpoint
  // busy (enqueue()), so an idle answer holds until it enqueues again.
  Probe probe(std::uint64_t peer, std::uint64_t message_id) {
    std::lock_guard<std::mutex> lock(work_mu);
    const auto it = clients.find(peer);
    if (it == clients.end()) return Probe::kIdle;
    if (it->second.pending_ids.count(message_id) > 0) return Probe::kDuplicate;
    return it->second.scheduled ? Probe::kBusy : Probe::kIdle;
  }

  // The RX fast path: offer a one-datagram request from an idle endpoint
  // to its service's try_handle_now() and send the answer from here, with
  // no queue hop and no worker wakeup. The endpoint cannot turn busy
  // meanwhile — this thread is its only receiver — so per-endpoint order
  // holds without a mark. True when answered; on a decline `item` carries
  // the decoded request and its trace to the pool.
  bool try_answer_now(ByteSpan message, WorkItem& item) {
    auto request = Request::decode(message);
    if (!request.ok()) return false;  // the worker answers bad_argument
    Service* service = find_service(request.value().target.port.value());
    if (service == nullptr) return false;
    auto trace =
        start_trace(request.value(), item.rx_first_ns, item.rx_done_ns);
    std::optional<Reply> reply = service->try_handle_now(
        request.value(), kFragmentPayload - Reply::kHeaderSize);
    if (reply.has_value()) {
      io.rx_fast_path.fetch_add(1, std::memory_order_relaxed);
      RespondCtx ctx;
      ctx.from = item.from;
      ctx.message_id = item.message_id;
      ctx.trace = std::move(trace);
      finish(ctx, std::move(*reply));
      return true;
    }
    (void)obs::RequestTrace::suspend();  // a worker resumes it
    item.trace = std::move(trace);
    item.request = std::move(request).value();
    return false;
  }

  // Retry-after advised to a shed client: proportional to the observed
  // queue depth (a fuller queue sends clients away for longer), clamped to
  // [1, 10 * shed_retry_ms].
  std::uint32_t retry_after_ms(std::size_t depth) const {
    const std::uint64_t unit = std::max<std::uint32_t>(1, options.shed_retry_ms);
    const std::uint64_t denom = std::max<std::size_t>(1, options.max_queue);
    const std::uint64_t scaled = unit * depth / denom;
    return static_cast<std::uint32_t>(
        std::min<std::uint64_t>(std::max<std::uint64_t>(1, scaled), 10 * unit));
  }

  // Admission + enqueue; RX thread only. A request over the total or
  // per-client queue bound is shed in O(1) with a BS_PUSHBACK reply.
  // Retransmits of queued or executing requests never get here
  // (handle_datagram's probe runs first), so a shed can only hit a
  // request the server holds no state for.
  void enqueue(std::uint64_t peer, WorkItem item) {
    bool shed = false;
    std::uint32_t advise_ms = 0;
    {
      std::lock_guard<std::mutex> lock(work_mu);
      ClientState& client = clients[peer];
      if (!client.pending_ids.insert(item.message_id).second) {
        duplicates.fetch_add(1);
        return;
      }
      const bool over_total =
          options.max_queue > 0 && total_pending >= options.max_queue;
      const bool over_client = options.max_client_queue > 0 &&
                               client.pending.size() >= options.max_client_queue;
      if (over_total || over_client) {
        client.pending_ids.erase(item.message_id);
        shed = true;
        advise_ms = retry_after_ms(total_pending);
      } else {
        client.pending.push_back(std::move(item));
        ++total_pending;
        std::uint64_t depth_max =
            io.rx_queue_depth_max.load(std::memory_order_relaxed);
        while (depth_max < total_pending &&
               !io.rx_queue_depth_max.compare_exchange_weak(
                   depth_max, total_pending, std::memory_order_relaxed)) {
        }
        if (!client.scheduled) {
          client.scheduled = true;
          ready.push_back(peer);
          work_cv.notify_one();
        }
      }
    }
    if (shed) {
      io.shed_pushback.fetch_add(1, std::memory_order_relaxed);
      const Bytes pushback = make_pushback_wire(advise_ms);
      (void)send_message_batched(fd, item.from, item.message_id,
                                 ByteSpan(pushback.data(), pushback.size()));
    }
  }

  void worker_loop() {
    std::unique_lock<std::mutex> lock(work_mu);
    for (;;) {
      while (!shutdown_workers && ready.empty()) work_cv.wait(lock);
      if (shutdown_workers) return;
      io.worker_wakeups.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t peer = ready.front();
      ready.pop_front();
      ClientState& client = clients[peer];
      bool parked = false;
      while (!client.pending.empty()) {
        WorkItem item = std::move(client.pending.front());
        client.pending.pop_front();
        if (total_pending > 0) --total_pending;
        // Deadline check at dequeue: a request whose budget ran out while
        // it sat queued is dead work — its client has already timed out or
        // moved on, so drop it in O(1) instead of dispatching. No reply is
        // sent: a retransmit (with a fresh remaining budget) is admitted as
        // a new attempt.
        if (item.deadline_ns != 0 && obs::now_ns() > item.deadline_ns) {
          io.deadline_expired.fetch_add(1, std::memory_order_relaxed);
          client.pending_ids.erase(item.message_id);
          continue;
        }
        lock.unlock();
        const std::uint64_t dequeue_ns =
            item.rx_done_ns != 0 ? obs::now_ns() : 0;
        const std::uint64_t message_id = item.message_id;
        auto ctx = execute(peer, item, dequeue_ns);
        const bool finished =
            ctx->completed.exchange(true, std::memory_order_acq_rel);
        lock.lock();
        if (!finished) {
          // The request parked on async I/O. Leave the client owned
          // (scheduled stays true, pending_id stays set) so later requests
          // from this endpoint cannot overtake the deferred reply; this
          // worker goes back to the pool and finish() releases the client
          // once the reply is on the wire.
          parked = true;
          break;
        }
        client.pending_ids.erase(message_id);
        if (shutdown_workers) return;
      }
      if (!parked) client.scheduled = false;
    }
  }

  void handle_datagram(const sockaddr_in& from, ByteSpan datagram) {
    if (options.drop_one_in > 0 &&
        loss_rng.next_below(options.drop_one_in) == 0) {
      dropped.fetch_add(1);
      return;
    }
    auto fragment = Fragment::parse(datagram);
    if (!fragment.ok()) return;

    const std::uint64_t peer = peer_key(from);
    WorkItem item;
    item.from = from;
    item.message_id = fragment.value().message_id;

    // Retransmit of something queued or executing (including parked on
    // async I/O)? The reply is on its way; answering again would
    // double-execute.
    const Probe state = probe(peer, item.message_id);
    if (state == Probe::kDuplicate) {
      duplicates.fetch_add(1);
      return;
    }

    ByteSpan message;  // the whole request: the datagram's or item.wire
    const bool one_datagram = fragment.value().count == 1;
    if (one_datagram) {
      if (!assembling.empty()) assembling.erase(peer);
      item.rx_first_ns = obs::tracing_enabled() ? obs::now_ns() : 0;
      message = fragment.value().payload;
    } else {
      Inbound& inbound = assembling[peer];
      if (inbound.message.message_id() != item.message_id) {
        inbound.message.reset(item.message_id);
        inbound.first_ns = obs::tracing_enabled() ? obs::now_ns() : 0;
      }
      if (!inbound.message.add(fragment.value())) return;
      item.rx_first_ns = inbound.first_ns;
      item.wire = inbound.message.take();
      assembling.erase(peer);
      message = ByteSpan(item.wire);
    }
    item.rx_done_ns = item.rx_first_ns != 0 ? obs::now_ns() : 0;

    if (state == Probe::kIdle && one_datagram &&
        try_answer_now(message, item)) {
      return;
    }
    if (one_datagram && !item.request.has_value()) {
      item.wire.assign(message.begin(), message.end());
    }
    const std::uint64_t deadline_us =
        item.request.has_value() ? item.request->deadline_us
                                 : Request::peek_deadline_us(message);
    item.deadline_ns =
        deadline_us != 0 ? obs::now_ns() + deadline_us * 1000 : 0;
    enqueue(peer, std::move(item));
  }

  void rx_loop() {
    ReceiveRing ring;
    while (running.load()) {
      const int n = ring.receive(fd);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          continue;  // timeout: re-check running
        }
        BULLET_LOG(warn, kLog) << "recvmmsg: " << std::strerror(errno);
        continue;
      }
      if (n > 0) io.rx_batches.fetch_add(1, std::memory_order_relaxed);
      for (int i = 0; i < n; ++i) {
        handle_datagram(ring.from(i), ring.datagram(i));
      }
    }
  }
};

UdpServer::UdpServer(std::shared_ptr<Impl> impl) : impl_(std::move(impl)) {}

Result<std::unique_ptr<UdpServer>> UdpServer::start(UdpServerOptions options) {
  if (options.workers == 0) {
    return Error(ErrorCode::bad_argument, "a UdpServer needs a worker");
  }
  auto impl = std::make_shared<Impl>();
  impl->options = options;
  impl->loss_rng.reseed(options.loss_seed);
  impl->reply_loss_rng.reseed(~options.loss_seed);
  BULLET_ASSIGN_OR_RETURN(impl->fd,
                          make_socket(options.udp_port, /*timeout_ms=*/50));
  const std::uint16_t port = bound_port(impl->fd);
  impl->running.store(true);
  impl->workers.reserve(options.workers);
  for (unsigned i = 0; i < options.workers; ++i) {
    impl->workers.emplace_back([raw = impl.get()] { raw->worker_loop(); });
  }
  impl->rx_thread = std::thread([raw = impl.get()] { raw->rx_loop(); });
  auto server = std::unique_ptr<UdpServer>(new UdpServer(std::move(impl)));
  server->udp_port_ = port;
  return server;
}

UdpServer::~UdpServer() { stop(); }

void UdpServer::stop() {
  if (impl_ && impl_->running.exchange(false)) {
    impl_->rx_thread.join();
    {
      std::lock_guard<std::mutex> lock(impl_->work_mu);
      impl_->shutdown_workers = true;
    }
    impl_->work_cv.notify_all();
    for (std::thread& worker : impl_->workers) worker.join();
  }
}

Status UdpServer::register_service(Service* service) {
  if (service == nullptr) return Error(ErrorCode::bad_argument, "null service");
  const std::uint64_t port = service->public_port().value();
  if (port == 0) return Error(ErrorCode::bad_argument, "null port");
  std::lock_guard<std::mutex> lock(impl_->services_mu);
  const auto [it, inserted] = impl_->services.emplace(port, service);
  (void)it;
  if (!inserted) {
    return Error(ErrorCode::already_exists, "port already registered");
  }
  return Status::success();
}

std::uint64_t UdpServer::dropped() const noexcept {
  return impl_->dropped.load();
}

std::uint64_t UdpServer::duplicates_suppressed() const noexcept {
  return impl_->duplicates.load();
}

const IoCounters& UdpServer::io_counters() const noexcept {
  return impl_->io;
}

// --- client ------------------------------------------------------------------

struct UdpTransport::Impl {
  int fd = -1;
  UdpClientOptions options;
  sockaddr_in server{};
  // Held for a whole call(): the socket, the message id sequence and the
  // reply wait belong to one caller at a time.
  std::mutex call_mu;
  std::uint64_t next_message_id = 1;
  // The socket's SO_RCVTIMEO in ms (0 = none set), so call() pays the
  // setsockopt only when an attempt needs a different timeout.
  int recv_timeout_ms = 0;

  // Reused across calls (call_mu serializes them); made by the first.
  std::unique_ptr<ReceiveRing> ring;

  ~Impl() {
    if (fd >= 0) ::close(fd);
  }

  // Wait until `reply` completes (true) or the receive timeout passes with
  // nothing arriving (false). Fragments of other (stale) message ids are
  // dropped by the reassembler.
  Result<bool> await_reply(Reassembler& reply) {
    if (!ring) ring = std::make_unique<ReceiveRing>();
    for (;;) {
      const int n = ring->receive(fd);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
        return errno_error("recvmmsg");
      }
      bool complete = false;
      for (int i = 0; i < n; ++i) {
        const auto fragment = Fragment::parse(ring->datagram(i));
        if (fragment.ok() && reply.add(fragment.value())) complete = true;
      }
      if (complete) return true;
    }
  }
};

UdpTransport::UdpTransport(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

UdpTransport::~UdpTransport() = default;

Result<std::unique_ptr<UdpTransport>> UdpTransport::connect(
    UdpClientOptions options) {
  if (options.server_udp_port == 0) {
    return Error(ErrorCode::bad_argument, "server port required");
  }
  auto impl = std::make_unique<Impl>();
  impl->options = options;
  impl->server = loopback(options.server_udp_port);
  BULLET_ASSIGN_OR_RETURN(impl->fd, make_socket(0, options.timeout_ms));
  impl->recv_timeout_ms = std::max(0, options.timeout_ms);
  return std::unique_ptr<UdpTransport>(new UdpTransport(std::move(impl)));
}

int backoff_timeout_ms(const UdpClientOptions& options, int attempt) {
  const std::int64_t base = std::max(1, options.timeout_ms);
  const std::int64_t cap = std::max<std::int64_t>(base, options.max_timeout_ms);
  // Cap the shift so the doubling cannot overflow; the cap clamps anyway.
  const int shift = std::min(std::max(attempt, 0), 20);
  const std::int64_t nominal = std::min(cap, base << shift);
  // Deterministic jitter, uniform in [0.75 * nominal, 1.25 * nominal]:
  // desynchronizes clients that share a timeout configuration without
  // giving up reproducibility (same seed, same schedule).
  Rng rng(options.backoff_seed * 0x9E3779B97F4A7C15ull +
          static_cast<std::uint64_t>(attempt) + 1);
  const std::int64_t spread = nominal / 2;
  const std::int64_t jittered =
      nominal - nominal / 4 +
      static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(spread) + 1));
  return static_cast<int>(std::min(cap, std::max<std::int64_t>(1, jittered)));
}

Result<Reply> UdpTransport::call(const Request& request) {
  std::lock_guard<std::mutex> call_lock(impl_->call_mu);
  const std::uint64_t message_id = impl_->next_message_id++;
  Bytes wire =
      request.encode(request.message_id == 0 ? fresh_message_id() : 0);
  // Kept across attempts: a retransmitted reply fills in what an earlier
  // copy lost.
  Reassembler reply_wire;
  reply_wire.reset(message_id);
  // With a deadline, each attempt re-stamps the remaining budget in place
  // (the rest of the wire is identical), so the server always sees how
  // much time this call has left, not the original budget.
  const bool has_deadline = request.deadline_us != 0;
  const auto start = std::chrono::steady_clock::now();
  bool last_was_pushback = false;
  for (int attempt = 0; attempt < impl_->options.max_attempts; ++attempt) {
    std::int64_t remaining_us = 0;
    if (has_deadline) {
      const auto elapsed_us =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      remaining_us = static_cast<std::int64_t>(request.deadline_us) - elapsed_us;
      if (remaining_us <= 0) {
        return Error(ErrorCode::deadline_expired, "call budget exhausted");
      }
      Request::restamp_deadline(wire, static_cast<std::uint64_t>(remaining_us));
    }
    if (attempt > 0) retransmissions_.fetch_add(1, std::memory_order_relaxed);
    int timeout_ms = backoff_timeout_ms(impl_->options, attempt);
    if (has_deadline) {
      timeout_ms = static_cast<int>(std::min<std::int64_t>(
          timeout_ms, std::max<std::int64_t>(1, remaining_us / 1000)));
    }
    if (timeout_ms != impl_->recv_timeout_ms) {
      BULLET_RETURN_IF_ERROR(set_recv_timeout(impl_->fd, timeout_ms));
      impl_->recv_timeout_ms = timeout_ms;
    }
    BULLET_RETURN_IF_ERROR(
        send_message_batched(impl_->fd, impl_->server, message_id, wire));
    BULLET_ASSIGN_OR_RETURN(const bool complete,
                            impl_->await_reply(reply_wire));
    if (!complete) {
      last_was_pushback = false;
      continue;
    }
    BULLET_ASSIGN_OR_RETURN(Reply reply, Reply::decode(reply_wire.take()));
    if (reply.status != ErrorCode::retry_later) return reply;
    last_was_pushback = true;
    // BS_PUSHBACK: the server shed this request without executing it and
    // advised when to come back. Sleep that long (overriding the backoff
    // schedule — the server knows its queue better than our timer does)
    // and resend; the same message id is reused, which is safe because
    // nothing was executed, and keeps the in-flight suppression if a stale
    // earlier copy is still queued.
    pushbacks_.fetch_add(1, std::memory_order_relaxed);
    std::int64_t sleep_ms =
        pushback_retry_after_ms(reply, backoff_timeout_ms(impl_->options,
                                                          attempt));
    if (has_deadline) {
      const auto elapsed_us =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      const std::int64_t left_ms =
          (static_cast<std::int64_t>(request.deadline_us) - elapsed_us) / 1000;
      sleep_ms = std::min(sleep_ms, std::max<std::int64_t>(0, left_ms));
    }
    if (sleep_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
  }
  if (last_was_pushback) {
    return Error(ErrorCode::retry_later, "server overloaded after retries");
  }
  return Error(ErrorCode::unreachable, "no reply after retries");
}

}  // namespace bullet::rpc
