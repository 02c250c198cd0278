#include "disk/async_queue.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace bullet {
namespace {

std::uint64_t steady_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The queue whose op or completion the current thread is running, if any.
thread_local const AsyncDiskQueue* t_running = nullptr;

}  // namespace

AsyncDiskQueue::AsyncDiskQueue(BlockDevice* device, unsigned threads)
    : device_(device), thread_count_(threads) {
  threads_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

AsyncDiskQueue::~AsyncDiskQueue() {
  drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void AsyncDiskQueue::submit_read(std::uint64_t first_block, MutableByteSpan out,
                                 DiskCompletion done) {
  BlockDevice* device = device_;
  enqueue(Op{[device, first_block, out] { return device->read(first_block, out); },
             std::move(done), steady_ns()});
}

void AsyncDiskQueue::submit_write(std::uint64_t first_block, ByteSpan data,
                                  DiskCompletion done) {
  BlockDevice* device = device_;
  enqueue(Op{[device, first_block, data] { return device->write(first_block, data); },
             std::move(done), steady_ns()});
}

void AsyncDiskQueue::submit_job(std::function<Status()> job,
                                DiskCompletion done) {
  enqueue(Op{std::move(job), std::move(done), steady_ns()});
}

void AsyncDiskQueue::enqueue(Op op) {
  if (thread_count_ == 0) {
    // Inline deterministic mode: the caller is the completion thread.
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.submitted;
      ++stats_.inline_completions;
      ++stats_.inflight;
      stats_.queue_depth_max = std::max(stats_.queue_depth_max, stats_.inflight);
    }
    run(op);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
    ++stats_.inflight;
    stats_.queue_depth_max = std::max(stats_.queue_depth_max, stats_.inflight);
    queue_.push_back(std::move(op));
  }
  cv_.notify_one();
}

bool AsyncDiskQueue::in_completion() const noexcept {
  return t_running == this;
}

void AsyncDiskQueue::run(Op& op) {
  // Inline completions nest (a completion may submit to this or another
  // queue), so restore the outer marker rather than clearing it.
  const AsyncDiskQueue* const outer = t_running;
  t_running = this;
  DiskOpTiming timing;
  timing.submit_ns = op.submit_ns;
  timing.start_ns = steady_ns();
  const Status st = op.exec();
  timing.end_ns = steady_ns();
  // Complete before decrementing inflight so drain() also covers the
  // continuation (which may itself submit follow-up work — that submission
  // bumps inflight before this decrement can release a drainer).
  if (op.done) op.done(st, timing);
  t_running = outer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.completed;
    --stats_.inflight;
    if (stats_.inflight == 0 && queue_.empty()) drain_cv_.notify_all();
  }
}

void AsyncDiskQueue::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    while (!shutdown_ && queue_.empty()) cv_.wait(lock);
    if (shutdown_) return;
    Op op = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    run(op);
    lock.lock();
  }
}

void AsyncDiskQueue::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] { return stats_.inflight == 0 && queue_.empty(); });
}

AsyncDiskQueue::Stats AsyncDiskQueue::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace bullet
