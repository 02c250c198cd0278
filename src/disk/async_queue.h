// Asynchronous disk pipeline: an io_uring-style submission/completion
// queue layered over any BlockDevice.
//
// The Bullet server's scale ceiling was never the device — it was that a
// cache-miss read or a P-FACTOR create parked a worker thread for the
// whole synchronous disk round-trip. This queue decouples submission from
// completion: a handler thread calls submit_*() (which only enqueues and
// returns), goes back to serving other clients, and the operation's
// continuation runs in the completion callback on a queue thread.
//
// Two modes, chosen at construction:
//
//  * threads >= 1 — a pool of completion threads drains a FIFO of
//    operations against the real device (FileDisk, MemDisk, and anything
//    composed over them: MirroredDisk, FaultDisk). Submissions never touch
//    the device on the submitting thread.
//
//  * threads == 0 — inline deterministic mode: submit_*() executes the
//    operation and its completion synchronously on the caller. This is the
//    virtual-time mode for SimDisk (whose clock is single-threaded by
//    design) and the compatibility mode for legacy single-threaded tests;
//    the continuation code is identical either way, only the interleaving
//    differs.
//
// Completions receive the operation Status plus a DiskOpTiming so callers
// can attach a `disk_queue` span (submit -> execution start, the queued
// time) and a device span (start -> end) to the request's trace.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "disk/block_device.h"

namespace bullet {

// Wall-clock (steady) timestamps of one queued operation's life.
struct DiskOpTiming {
  std::uint64_t submit_ns = 0;  // submit_*() called
  std::uint64_t start_ns = 0;   // a thread began executing the operation
  std::uint64_t end_ns = 0;     // the device call returned
};

using DiskCompletion = std::function<void(Status, const DiskOpTiming&)>;

class AsyncDiskQueue {
 public:
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    // Operations executed synchronously inside submit_*() — nonzero only
    // in inline mode (threads == 0). The async acceptance check: with a
    // thread pool, this stays exactly 0, proving no submitter ever blocked
    // in BlockDevice::read/write.
    std::uint64_t inline_completions = 0;
    std::uint64_t inflight = 0;         // submitted, not yet completed
    std::uint64_t queue_depth_max = 0;  // high-water mark of inflight
  };

  // `device` must outlive the queue; it may be null for a queue that only
  // runs submit_job(). `threads == 0` selects inline mode.
  AsyncDiskQueue(BlockDevice* device, unsigned threads);
  ~AsyncDiskQueue();

  AsyncDiskQueue(const AsyncDiskQueue&) = delete;
  AsyncDiskQueue& operator=(const AsyncDiskQueue&) = delete;

  // Enqueue a device read/write. `out`/`data` must stay valid until the
  // completion runs; `done` is invoked exactly once, from a queue thread
  // (or inline when threads == 0).
  void submit_read(std::uint64_t first_block, MutableByteSpan out,
                   DiskCompletion done);
  void submit_write(std::uint64_t first_block, ByteSpan data,
                    DiskCompletion done);

  // Enqueue an arbitrary compound job (e.g. a mirror write_partial plus an
  // inode block) with the same queuing, accounting, and completion
  // contract as the typed operations.
  void submit_job(std::function<Status()> job, DiskCompletion done);

  // Block until every submitted operation has completed (including its
  // completion callback). Completions may submit follow-up work; drain
  // waits for that too.
  void drain();

  // True while the calling thread is executing one of this queue's ops or
  // completions: a pool thread, or the submitter itself in inline mode. A
  // thread in that state must never block waiting for more of this
  // queue's work, which could only run after it returns.
  bool in_completion() const noexcept;

  unsigned threads() const noexcept { return thread_count_; }
  BlockDevice* device() const noexcept { return device_; }
  Stats stats() const;

 private:
  struct Op {
    std::function<Status()> exec;
    DiskCompletion done;
    std::uint64_t submit_ns = 0;
  };

  void enqueue(Op op);
  void run(Op& op);  // execute + complete + account (any thread)
  void worker_loop();

  BlockDevice* device_;
  unsigned thread_count_;

  mutable std::mutex mu_;
  std::condition_variable cv_;        // work available
  std::condition_variable drain_cv_;  // inflight dropped to zero
  std::deque<Op> queue_;
  bool shutdown_ = false;
  Stats stats_;
  std::vector<std::thread> threads_;
};

}  // namespace bullet
