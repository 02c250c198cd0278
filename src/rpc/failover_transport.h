// Client-side replica failover.
//
// A FailoverTransport holds the transports of every replica of one logical
// server (a replica set per server id) and presents them as a single
// Transport. Calls go to a sticky current replica; a transport-level
// failure (unreachable — i.e. timeout — or io_error) or an explicit
// BS_PUSHBACK (ErrorCode::retry_later) reply advances to the next replica
// and retries the SAME Request — same body, same trace id, and crucially
// the same message_id, so a replication-aware pair answers the retry from
// its replicated reply record instead of re-executing it: acked creates
// are never double-applied (see rpc/message.h). A request that arrives
// without a message id is copied once and given a fresh one before its
// first attempt.
//
// Stickiness means a successful failover moves all subsequent traffic to
// the surviving replica until it too fails; there is no fail-back probing
// on the hot path. ErrorCode::deadline_expired is returned immediately —
// the budget is gone, another replica cannot help.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "rpc/transport.h"

namespace bullet::rpc {

struct FailoverOptions {
  // Full passes over the replica set before giving up. With 2 replicas and
  // 2 cycles a call survives one crash plus one in-flight reply loss.
  int max_cycles = 2;
};

class FailoverTransport final : public Transport {
 public:
  // `replicas` must be non-empty and outlive this transport; order is the
  // preference order (index 0 = configured primary).
  explicit FailoverTransport(std::vector<Transport*> replicas,
                             FailoverOptions options = {})
      : replicas_(std::move(replicas)), options_(options) {}

  Result<Reply> call(const Request& request) override;

  // Replica index the next call will try first.
  std::size_t current_replica() const;
  // Times the sticky replica changed because of a failure.
  std::uint64_t failovers() const;
  // Failovers caused specifically by BS_PUSHBACK.
  std::uint64_t pushback_failovers() const;

 private:
  std::vector<Transport*> replicas_;
  FailoverOptions options_;
  mutable std::mutex mu_;
  std::size_t current_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t pushback_failovers_ = 0;
};

}  // namespace bullet::rpc
