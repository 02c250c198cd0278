#include "rpc/failover_transport.h"

#include <string>

namespace bullet::rpc {

std::size_t FailoverTransport::current_replica() const {
  std::lock_guard lock(mu_);
  return current_;
}

std::uint64_t FailoverTransport::failovers() const {
  std::lock_guard lock(mu_);
  return failovers_;
}

std::uint64_t FailoverTransport::pushback_failovers() const {
  std::lock_guard lock(mu_);
  return pushback_failovers_;
}

Result<Reply> FailoverTransport::call(const Request& request) {
  if (request.message_id == 0) {
    // Every attempt, on every replica, must carry the same id, or a create
    // whose ack was lost on one replica runs again on the next.
    Request stamped = request;
    stamped.message_id = fresh_message_id();
    return call(stamped);
  }
  std::size_t cur;
  {
    std::lock_guard lock(mu_);
    cur = current_;
  }
  const int attempts =
      static_cast<int>(replicas_.size()) *
      (options_.max_cycles < 1 ? 1 : options_.max_cycles);
  Result<Reply> last = Error(ErrorCode::unreachable, "no replicas");
  for (int i = 0; i < attempts; ++i) {
    Result<Reply> r = replicas_[cur]->call(request);
    const bool pushback = r.ok() && r.value().status == ErrorCode::retry_later;
    const bool transport_down =
        !r.ok() && (r.error().code == ErrorCode::unreachable ||
                    r.error().code == ErrorCode::io_error);
    if (!pushback && !transport_down) {
      // Success, a service-level error, or a non-retryable transport error
      // (deadline_expired: the budget is spent, stop burning it).
      std::lock_guard lock(mu_);
      current_ = cur;
      return r;
    }
    last = std::move(r);
    cur = (cur + 1) % replicas_.size();
    std::lock_guard lock(mu_);
    ++failovers_;
    if (pushback) ++pushback_failovers_;
    current_ = cur;
  }
  // Exhausted the retry budget. If the final failure was transport-level,
  // report the distinct "every replica is down" code so callers (the
  // cluster routing client above all) can tell a dead shard from a stale
  // placement map; pushback exhaustion keeps returning the last reply so
  // the retry-after advice in its body survives.
  if (!last.ok() && (last.error().code == ErrorCode::unreachable ||
                     last.error().code == ErrorCode::io_error)) {
    return Error(ErrorCode::all_replicas_unreachable,
                 std::to_string(replicas_.size()) +
                     " replica(s) unreachable after " +
                     std::to_string(attempts) +
                     " attempt(s); last: " + last.error().message);
  }
  return last;
}

}  // namespace bullet::rpc
