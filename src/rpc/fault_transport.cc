#include "rpc/fault_transport.h"

namespace bullet::rpc {

void FaultTransport::set_partition(Partition p) {
  std::lock_guard lock(mu_);
  partition_ = p;
}

FaultTransport::Partition FaultTransport::partition() const {
  std::lock_guard lock(mu_);
  return partition_;
}

void FaultTransport::set_plan(sim::FaultPlan plan) {
  std::lock_guard lock(mu_);
  plan_ = std::move(plan);
}

FaultTransport::Counters FaultTransport::counters() const {
  std::lock_guard lock(mu_);
  return counters_;
}

void FaultTransport::deliver_stale_locked(const Request& request) {
  // A stale or duplicate arrival: the service sees it, nobody is waiting
  // for the answer. The reply (and any transport error) is discarded —
  // on a real wire the retransmitted reply would be dropped by the client
  // that already gave up on this exchange.
  (void)inner_->call(request);
}

void FaultTransport::flush_due_locked() {
  for (auto it = delayed_.begin(); it != delayed_.end();) {
    if (it->due == 0) {
      deliver_stale_locked(it->request);
      it = delayed_.erase(it);
    } else {
      --it->due;
      ++it;
    }
  }
}

void FaultTransport::flush() {
  std::lock_guard lock(mu_);
  for (auto& h : delayed_) deliver_stale_locked(h.request);
  delayed_.clear();
}

Result<Reply> FaultTransport::call(const Request& request) {
  std::lock_guard lock(mu_);
  ++counters_.calls;
  // Older reordered traffic lands first: it was "in flight" before us.
  flush_due_locked();

  if (partition_ == Partition::kFull ||
      partition_ == Partition::kDropRequests) {
    ++counters_.partitioned;
    return Error(ErrorCode::unreachable, "partitioned");
  }

  const sim::FaultDecision d = plan_.next();
  if (d.delay > 0 && clock_ != nullptr) clock_->advance(d.delay);

  if (d.drop_request) {
    ++counters_.dropped_requests;
    return Error(ErrorCode::unreachable, "request dropped");
  }
  if (d.reorder) {
    ++counters_.reordered;
    delayed_.push_back(Held{request, d.reorder_gap});
    return Error(ErrorCode::unreachable, "request reordered");
  }

  Result<Reply> reply = inner_->call(request);
  if (d.duplicate) {
    ++counters_.duplicated;
    deliver_stale_locked(request);
  }

  if (partition_ == Partition::kDropReplies) {
    ++counters_.partitioned;
    return Error(ErrorCode::unreachable, "partitioned (reply)");
  }
  if (d.drop_reply) {
    ++counters_.dropped_replies;
    return Error(ErrorCode::unreachable, "reply dropped");
  }
  return reply;
}

}  // namespace bullet::rpc
