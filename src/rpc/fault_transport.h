// Deterministic network-fault injection: the network analog of FaultDisk.
//
// FaultTransport decorates any rpc::Transport (loopback, sim, UDP) and
// applies a seeded sim::FaultPlan to every call: requests can be dropped,
// duplicated, reordered behind later traffic, or delayed; whole directions
// can be partitioned off. Because the Transport interface is synchronous
// request/response, the faults are expressed in its terms:
//
//   drop request  -> the inner service never sees the call;
//                    the caller gets ErrorCode::unreachable (a timeout).
//   drop reply    -> the inner service executes the call, but the caller
//                    still gets ErrorCode::unreachable. This is the
//                    interesting half: side effects happened, the ack is
//                    lost, and the client will retry or fail over.
//   duplicate     -> the request is delivered twice back to back; the
//                    second reply is discarded (a retransmit arriving
//                    after the first was answered).
//   reorder       -> the request is held back (caller sees unreachable)
//                    and delivered to the service after `gap` later calls
//                    have gone through — a stale retransmit arriving out
//                    of order. Its reply is discarded.
//   delay         -> extra latency charged to an attached sim::Clock
//                    (no-op without one).
//
// Partitions are explicit states toggled by the test driver (the chaos
// schedule), not probabilities: a one-way partition can drop only requests
// (the far side never hears us) or only replies (it hears us, acts, and we
// never learn); a two-way partition drops everything. Probabilistic faults
// from the plan compose with whatever partition is in force.
//
// Determinism: one FaultPlan decision is drawn per call() in call order, so
// a fixed seed and a fixed call sequence replay the identical schedule on
// any substrate. Counters are plain tallies for assertions and the tools.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>

#include "rpc/transport.h"
#include "sim/net_model.h"

namespace bullet::rpc {

class FaultTransport final : public Transport {
 public:
  enum class Partition : std::uint8_t {
    kNone = 0,
    kDropRequests,  // one-way: our messages never arrive
    kDropReplies,   // one-way: theirs never come back
    kFull,          // two-way
  };

  // `inner` must outlive this transport. `clock` may be null; it only
  // receives the plan's extra delays.
  explicit FaultTransport(Transport* inner, sim::FaultPlan plan = {},
                          sim::Clock* clock = nullptr)
      : inner_(inner), plan_(std::move(plan)), clock_(clock) {}

  Result<Reply> call(const Request& request) override;

  // Chaos-schedule controls.
  void set_partition(Partition p);
  Partition partition() const;
  void set_plan(sim::FaultPlan plan);

  // Deliver any still-held reordered requests to the inner transport now
  // (their replies are discarded). The chaos driver calls this when a link
  // heals so no stale traffic stays latent across a phase boundary.
  void flush();

  struct Counters {
    std::uint64_t calls = 0;
    std::uint64_t dropped_requests = 0;  // plan-dropped before delivery
    std::uint64_t dropped_replies = 0;   // executed, ack lost
    std::uint64_t duplicated = 0;
    std::uint64_t reordered = 0;
    std::uint64_t partitioned = 0;       // blocked by an explicit partition
  };
  Counters counters() const;

 private:
  struct Held {
    Request request;        // deep copy (body owned by Request::Bytes)
    std::uint32_t due = 0;  // deliver after this many later calls
  };

  // Deliver held requests whose gap has elapsed. Caller holds mu_.
  void flush_due_locked();
  void deliver_stale_locked(const Request& request);

  Transport* inner_;
  mutable std::mutex mu_;
  sim::FaultPlan plan_;
  sim::Clock* clock_;
  Partition partition_ = Partition::kNone;
  std::deque<Held> delayed_;  // reordered requests awaiting delivery
  Counters counters_;
};

}  // namespace bullet::rpc
