// Service and Transport interfaces plus the two in-process transports.
//
// A Service owns one public port and handles requests addressed to it. A
// Transport routes a Request to the Service owning its target port and
// returns the Reply. LoopbackTransport dispatches directly (tests,
// examples); SimTransport additionally charges modelled network + protocol
// CPU time to a virtual clock (benchmarks).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "rpc/message.h"
#include "sim/clock.h"
#include "sim/net_model.h"

namespace bullet::rpc {

// Transport-level activity counters a concurrent transport (the UDP worker
// pool) maintains and a service can surface through its own stats. All
// relaxed atomics: these are monotonic tallies, not synchronization.
struct IoCounters {
  std::atomic<std::uint64_t> rx_batches{0};     // recvmmsg calls that got data
  std::atomic<std::uint64_t> worker_wakeups{0}; // dispatch-thread wakeups
  // Requests answered on the receive thread by Service::try_handle_now,
  // without a queue hop or a worker wakeup.
  std::atomic<std::uint64_t> rx_fast_path{0};
  // Overload-control plane (see udp_transport.h): requests shed with a
  // BS_PUSHBACK reply (every shed is answered), requests dropped at dequeue
  // because their deadline had already passed, and the high-water mark of
  // the dispatch queue depth.
  std::atomic<std::uint64_t> shed_pushback{0};
  std::atomic<std::uint64_t> deadline_expired{0};
  std::atomic<std::uint64_t> rx_queue_depth_max{0};
};

// Continuation a service invokes (exactly once) to deliver the reply of an
// asynchronously handled request. May run synchronously inside
// handle_async() or later from another thread (a disk-completion thread).
using Responder = std::function<void(Reply&&)>;

// At-most-once is each service's own duty: UdpServer drops a retransmit
// only while its request is in flight, and executes one that arrives after
// the reply. A service reachable over UDP whose second run of an operation
// would answer differently records that reply under the request's
// message_id (rpc/message.h) and answers a repeat from the record — the
// Bullet server for CREATE, CREATE-FROM and DELETE, the directory server
// for its mutations. The log and nfsbase services are only ever served
// in-process, where no transport retransmits, so they keep no record.
class Service {
 public:
  virtual ~Service() = default;

  // The public (get-)port this service answers on.
  virtual Port public_port() const noexcept = 0;

  // Handle one request. Must not throw; failures are error Replies.
  virtual Reply handle(const Request& request) = 0;

  // Continuation-style handling: instead of returning the Reply, deliver
  // it through `respond` — possibly after this call returns, from a disk
  // completion thread, so a handler thread parked on storage goes back to
  // its pool instead of blocking. The default adapter dispatches handle()
  // and responds inline, so synchronous services work unchanged under an
  // async transport. `request` is only guaranteed alive until this call
  // returns; implementations that defer must copy what they still need.
  virtual void handle_async(const Request& request, Responder respond) {
    respond(handle(request));
  }

  // The receive thread's fast path (UdpServer): answer `request` right now
  // or decline with nullopt, and the request goes to a worker as usual. An
  // answer must be cheap and must never block — no waiting on a lock, a
  // device or a peer — and its payload must not exceed `max_payload`
  // bytes, so the reply leaves in one datagram. The receive loop calls
  // this only for a one-datagram request from an endpoint with nothing
  // queued, executing or parked. The default declines, so a service, or a
  // decorator that wraps one, runs every request on a worker unless it
  // opts in.
  virtual std::optional<Reply> try_handle_now(
      const Request& /*request*/, std::size_t /*max_payload*/) {
    return std::nullopt;
  }
};

// Serializes handle() calls into a service that is not thread-safe (the
// directory server), so a UdpServer's worker pool can serve it. It keeps
// the default try_handle_now, so every request runs on a worker.
class SerializedService final : public Service {
 public:
  explicit SerializedService(Service* inner) : inner_(inner) {}
  Port public_port() const noexcept override { return inner_->public_port(); }
  Reply handle(const Request& request) override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_->handle(request);
  }

 private:
  Service* inner_;
  std::mutex mu_;
};

class Transport {
 public:
  virtual ~Transport() = default;

  // Deliver `request` to the service owning the target port and return its
  // reply. Errors at the transport layer (unknown port) are returned as
  // Result errors; service-level failures come back inside the Reply.
  //
  // In-process transports return the Reply as the service built it,
  // including any borrowed payload segments (which reference server memory
  // and stay valid until the next operation on that service) — callers
  // must consume or materialize the payload before calling again. Only a
  // transport with a real wire boundary gathers the segments, as it sends.
  virtual Result<Reply> call(const Request& request) = 0;
};

// Direct in-process dispatch: a registry of services keyed by public port.
class LoopbackTransport final : public Transport {
 public:
  // Registers a service; the service must outlive the transport.
  Status register_service(Service* service);
  Status unregister_service(Port port);

  Result<Reply> call(const Request& request) override;

  std::uint64_t calls() const noexcept { return calls_; }

 private:
  std::unordered_map<std::uint64_t, Service*> services_;
  std::uint64_t calls_ = 0;
};

// Dispatch plus virtual-time accounting. Each service is registered with
// the protocol-cost profile of its stack (Amoeba RPC vs. NFS/UDP); the
// shared NetParams describe the wire they all contend for.
class SimTransport final : public Transport {
 public:
  SimTransport(sim::NetParams net, sim::Clock* clock)
      : net_(net), clock_(clock) {}

  Status register_service(Service* service, sim::ProtocolCosts costs);

  Result<Reply> call(const Request& request) override;

  sim::Clock* clock() const noexcept { return clock_; }
  std::uint64_t bytes_on_wire() const noexcept { return bytes_on_wire_; }

 private:
  struct Entry {
    Service* service;
    sim::ProtocolCosts costs;
  };

  sim::NetParams net_;
  sim::Clock* clock_;
  std::unordered_map<std::uint64_t, Entry> services_;
  std::uint64_t bytes_on_wire_ = 0;
};

}  // namespace bullet::rpc
