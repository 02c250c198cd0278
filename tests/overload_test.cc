// The overload-control plane end to end: admission control at the UDP
// dispatch queue (every shed is answered with BS_PUSHBACK), deadline
// propagation and expiry at dequeue, the request trailer that carries the
// deadline, and the in-flight disk-fill bound at the Bullet service layer.
//
// The server-side scenarios use a GateService whose handler parks on a
// condition variable: with one worker the test controls exactly when the
// queue drains, so "queue full" is a constructed state, not a race to win.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bullet/client.h"
#include "bullet/server.h"
#include "disk/mem_disk.h"
#include "disk/mirrored_disk.h"
#include "rpc/udp_transport.h"
#include "tests/test_util.h"

namespace bullet {
namespace {

using testing::status_of;

// An rpc::Service whose handler blocks until the gate opens. Echoes the
// request body so callers can verify they got *their* reply (and not, say,
// a stale pushback).
class GateService final : public rpc::Service {
 public:
  Port public_port() const noexcept override { return Port(0xB10C); }

  rpc::Reply handle(const rpc::Request& request) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++executing_;
      cv_.notify_all();
      cv_.wait(lock, [&] { return open_; });
      ++executed_;
    }
    return rpc::Reply::success(request.body);
  }

  void open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

  // Block until `n` handler invocations have started.
  void wait_executing(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return executing_ >= n; });
  }

  int executed() {
    std::lock_guard<std::mutex> lock(mu_);
    return executed_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  int executing_ = 0;
  int executed_ = 0;
};

rpc::Request gate_request(std::uint64_t tag, std::uint64_t deadline_us = 0,
                          std::uint64_t message_id = 0) {
  rpc::Request request;
  request.target.port = Port(0xB10C);
  Writer w(8);
  w.u64(tag);
  request.body = std::move(w).take();
  request.deadline_us = deadline_us;
  request.message_id = message_id;
  return request;
}

// Records the trailer fields of every request that reaches it. A message
// id seen before (a retransmit that arrived after its reply was sent and
// lost) is answered from the record kept under that id, as a service must
// whose second run would answer differently, and is logged as a repeat
// rather than as a new call.
class TrailerRecorder final : public rpc::Service {
 public:
  struct Seen {
    std::uint64_t trace_id = 0;
    std::uint64_t deadline_us = 0;
    std::uint64_t message_id = 0;
  };

  Port public_port() const noexcept override { return Port(0xB10C); }

  rpc::Reply handle(const rpc::Request& request) override {
    std::lock_guard<std::mutex> lock(mu_);
    const Seen arrival{request.trace_id, request.deadline_us,
                       request.message_id};
    const auto record = replies_.find(request.message_id);
    if (record != replies_.end()) {
      repeats_.push_back(arrival);
      return rpc::Reply::success(record->second);
    }
    seen_.push_back(arrival);
    if (request.message_id != 0) {
      replies_.emplace(request.message_id, request.body);
    }
    return rpc::Reply::success(request.body);
  }

  std::vector<Seen> seen() {
    std::lock_guard<std::mutex> lock(mu_);
    return seen_;
  }

  std::vector<Seen> repeats() {
    std::lock_guard<std::mutex> lock(mu_);
    return repeats_;
  }

 private:
  std::mutex mu_;
  std::vector<Seen> seen_;
  std::vector<Seen> repeats_;
  std::unordered_map<std::uint64_t, Bytes> replies_;
};

class OverloadTest : public ::testing::Test {
 protected:
  void start_server(rpc::UdpServerOptions options) {
    options.workers = 1;  // one executing request; everything else queues
    auto server = rpc::UdpServer::start(options);
    ASSERT_TRUE(server.ok()) << server.error().to_string();
    udp_server_ = std::move(server).value();
    ASSERT_OK(udp_server_->register_service(&gate_));
  }

  std::unique_ptr<rpc::UdpTransport> connect(int timeout_ms,
                                             int max_attempts) {
    rpc::UdpClientOptions options;
    options.server_udp_port = udp_server_->port();
    options.timeout_ms = timeout_ms;
    options.max_attempts = max_attempts;
    options.max_timeout_ms = timeout_ms * 4;
    auto transport = rpc::UdpTransport::connect(options);
    EXPECT_TRUE(transport.ok());
    return std::move(transport).value();
  }

  // Spin until `cond` holds or ~5 s pass (never expected in a healthy run).
  template <typename F>
  static bool poll(F cond) {
    for (int i = 0; i < 5000; ++i) {
      if (cond()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  // One worker and one queue slot: A executes behind the closed gate, then
  // `b` (tag 2) and `c` (tag 3) arrive and whichever finds the queue full
  // is shed. Whatever trailer they carry, the shed is answered with
  // BS_PUSHBACK, the client sleeps the advised delay and retries, and
  // every request executes exactly once and gets its own reply back.
  void expect_full_queue_shed_with_pushback(const rpc::Request& b,
                                            const rpc::Request& c) {
    rpc::UdpServerOptions options;
    options.max_queue = 1;
    options.shed_retry_ms = 5;
    start_server(options);

    auto ta = connect(/*timeout_ms=*/200, /*max_attempts=*/40);
    auto tb = connect(/*timeout_ms=*/100, /*max_attempts=*/100);
    auto tc = connect(/*timeout_ms=*/100, /*max_attempts=*/100);

    auto fa = std::async(std::launch::async,
                         [&] { return ta->call(gate_request(1)); });
    gate_.wait_executing(1);  // A owns the only worker
    auto fb = std::async(std::launch::async, [&] { return tb->call(b); });
    auto fc = std::async(std::launch::async, [&] { return tc->call(c); });

    // Open the gate whatever happened, so a failure cannot leave the calls
    // (and the futures' destructors) waiting on it.
    const auto& io = udp_server_->io_counters();
    const bool pushed_back = poll([&] {
      return io.shed_pushback.load(std::memory_order_relaxed) >= 1;
    });
    gate_.open();
    ASSERT_TRUE(pushed_back);

    auto ra = fa.get();
    auto rb = fb.get();
    auto rc = fc.get();
    ASSERT_TRUE(ra.ok()) << ra.error().to_string();
    ASSERT_TRUE(rb.ok()) << rb.error().to_string();
    ASSERT_TRUE(rc.ok()) << rc.error().to_string();
    EXPECT_EQ(ErrorCode::ok, ra.value().status);
    EXPECT_EQ(ErrorCode::ok, rb.value().status);
    EXPECT_EQ(ErrorCode::ok, rc.value().status);
    // Each caller got its own echo back: a pushback answered from the reply
    // cache would have pinned the shed client to retry_later forever.
    Reader b_payload(rb.value().body);
    Reader c_payload(rc.value().body);
    EXPECT_EQ(2u, b_payload.u64().value());
    EXPECT_EQ(3u, c_payload.u64().value());

    EXPECT_GE(io.shed_pushback.load(std::memory_order_relaxed), 1u);
    EXPECT_GE(tb->pushbacks() + tc->pushbacks(), 1u);
    // At-most-once held through the shed/retry churn.
    EXPECT_EQ(3, gate_.executed());
  }

  GateService gate_;
  std::unique_ptr<rpc::UdpServer> udp_server_;
};

constexpr std::uint64_t kGenerousBudgetUs = 10'000'000;

TEST_F(OverloadTest, FullQueueShedsWithPushbackAndNothingExecutesTwice) {
  expect_full_queue_shed_with_pushback(gate_request(2, kGenerousBudgetUs),
                                       gate_request(3, kGenerousBudgetUs));
}

TEST_F(OverloadTest, TrailerlessClientsAreShedWithPushback) {
  expect_full_queue_shed_with_pushback(gate_request(2), gate_request(3));
}

TEST_F(OverloadTest, ShedRequestWithDeadlineAndMessageIdGetsPushback) {
  expect_full_queue_shed_with_pushback(
      gate_request(2, kGenerousBudgetUs, /*message_id=*/0xB2),
      gate_request(3, kGenerousBudgetUs, /*message_id=*/0xC3));
}

TEST(OverloadRestampTest, RetransmitsKeepTheMessageIdAndShrinkTheDeadline) {
  // Every third datagram is lost on the way in and every third reply on
  // the way out, so calls retransmit and the transport re-stamps the
  // remaining budget on each attempt. The re-stamp must touch the deadline
  // and nothing else in the trailer.
  TrailerRecorder recorder;
  rpc::UdpServerOptions options;
  options.workers = 1;
  options.drop_one_in = 3;
  options.loss_seed = 7;
  auto server = rpc::UdpServer::start(options);
  ASSERT_TRUE(server.ok()) << server.error().to_string();
  ASSERT_OK(server.value()->register_service(&recorder));

  rpc::UdpClientOptions copts;
  copts.server_udp_port = server.value()->port();
  copts.timeout_ms = 20;
  copts.max_timeout_ms = 80;
  copts.max_attempts = 20;
  auto transport = rpc::UdpTransport::connect(copts);
  ASSERT_TRUE(transport.ok());

  constexpr int kCalls = 12;
  constexpr std::uint64_t kBudgetUs = 5'000'000;
  for (int i = 0; i < kCalls; ++i) {
    rpc::Request request = gate_request(i, kBudgetUs, 0x1234 + i);
    request.trace_id = 0x7700 + i;
    auto reply = transport.value()->call(request);
    ASSERT_TRUE(reply.ok()) << reply.error().to_string();
    ASSERT_EQ(ErrorCode::ok, reply.value().status);
  }
  EXPECT_GE(transport.value()->retransmissions(), 1u);

  const auto seen = recorder.seen();
  ASSERT_EQ(static_cast<std::size_t>(kCalls), seen.size());
  for (int i = 0; i < kCalls; ++i) {
    EXPECT_EQ(0x1234u + i, seen[i].message_id) << "call " << i;
    EXPECT_EQ(0x7700u + i, seen[i].trace_id) << "call " << i;
    EXPECT_GT(seen[i].deadline_us, 0u) << "call " << i;
    EXPECT_LE(seen[i].deadline_us, kBudgetUs) << "call " << i;
  }
  // A retransmit after a lost reply reaches the service again, with the
  // trailer of the call it repeats and a deadline still within budget.
  const auto repeats = recorder.repeats();
  EXPECT_GE(repeats.size(), 1u);
  for (const auto& repeat : repeats) {
    ASSERT_GE(repeat.message_id, 0x1234u);
    ASSERT_LT(repeat.message_id, 0x1234u + kCalls);
    const std::uint64_t call = repeat.message_id - 0x1234u;
    EXPECT_EQ(0x7700u + call, repeat.trace_id) << "call " << call;
    EXPECT_GT(repeat.deadline_us, 0u) << "call " << call;
    EXPECT_LE(repeat.deadline_us, kBudgetUs) << "call " << call;
  }
}

TEST_F(OverloadTest, ExpiredDeadlineIsDroppedAtDequeueWithoutExecuting) {
  // B's budget runs out while it waits behind A: the client gives up with
  // deadline_expired, and when the worker finally reaches the stale item
  // it drops it instead of burning a handler invocation on a reply nobody
  // is waiting for.
  start_server(rpc::UdpServerOptions{});  // unbounded queue

  auto ta = connect(/*timeout_ms=*/200, /*max_attempts=*/40);
  auto tb = connect(/*timeout_ms=*/30, /*max_attempts=*/10);

  auto fa = std::async(std::launch::async,
                       [&] { return ta->call(gate_request(1)); });
  gate_.wait_executing(1);

  auto rb = tb->call(gate_request(2, /*deadline_us=*/80'000));
  EXPECT_CODE(deadline_expired, status_of(rb));

  // Let the server-side deadline (started at arrival, slightly after the
  // client's) pass as well before draining the queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  gate_.open();
  ASSERT_TRUE(fa.get().ok());

  const auto& io = udp_server_->io_counters();
  EXPECT_TRUE(poll([&] {
    return io.deadline_expired.load(std::memory_order_relaxed) >= 1;
  }));
  EXPECT_EQ(1, gate_.executed());  // A only; B's request never ran
}

TEST_F(OverloadTest, QueueDepthHighWaterMarkIsTracked) {
  start_server(rpc::UdpServerOptions{});
  auto ta = connect(/*timeout_ms=*/200, /*max_attempts=*/40);
  auto tb = connect(/*timeout_ms=*/200, /*max_attempts=*/40);
  auto fa = std::async(std::launch::async,
                       [&] { return ta->call(gate_request(1)); });
  gate_.wait_executing(1);
  auto fb = std::async(std::launch::async,
                       [&] { return tb->call(gate_request(2)); });
  const auto& io = udp_server_->io_counters();
  EXPECT_TRUE(poll([&] {
    return io.rx_queue_depth_max.load(std::memory_order_relaxed) >= 1;
  }));
  gate_.open();
  ASSERT_TRUE(fa.get().ok());
  ASSERT_TRUE(fb.get().ok());
}

// --- deadline propagation over the real Bullet stack ----------------------

TEST_F(OverloadTest, DeadlineBudgetRidesTheWireEndToEnd) {
  // A BulletClient with a generous per-call budget and operation ids
  // against a real server: the full trailer must decode on the service
  // path, each create must keep its own operation id (the server's dedup
  // record is keyed by it), and nothing about successful calls changes.
  testing::BulletHarness h;
  rpc::UdpServerOptions options;
  options.workers = 2;
  auto server = rpc::UdpServer::start(options);
  ASSERT_TRUE(server.ok());
  ASSERT_OK(server.value()->register_service(&h.server()));

  rpc::UdpClientOptions copts;
  copts.server_udp_port = server.value()->port();
  auto transport = rpc::UdpTransport::connect(copts);
  ASSERT_TRUE(transport.ok());

  const std::uint64_t files_before = h.server().live_files();
  BulletClient client(transport.value().get(), h.server().super_capability());
  client.set_deadline_budget_ms(5000);
  client.enable_message_ids(0x700);
  auto first = client.create(as_span("first file"), 1);
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  auto second = client.create(as_span("second file"), 1);
  ASSERT_TRUE(second.ok()) << second.error().to_string();
  EXPECT_NE(first.value().object, second.value().object);

  auto first_data = client.read_whole(first.value());
  ASSERT_TRUE(first_data.ok()) << first_data.error().to_string();
  EXPECT_EQ("first file", to_string(first_data.value()));
  auto second_data = client.read_whole(second.value());
  ASSERT_TRUE(second_data.ok()) << second_data.error().to_string();
  EXPECT_EQ("second file", to_string(second_data.value()));
  EXPECT_EQ(files_before + 2, h.server().live_files());
}

// --- request-trailer wire format ------------------------------------------

rpc::Request trailer_request() {
  rpc::Request request;
  request.target.port = Port(0xAB);
  request.opcode = 7;
  request.body = {1, 2, 3};
  return request;
}

TEST(DeadlineTrailerTest, FullTrailerRoundTripsEachFieldAlone) {
  const rpc::Request bare = trailer_request();
  for (int field = 0; field < 3; ++field) {
    rpc::Request request = trailer_request();
    if (field == 0) request.trace_id = 0x1234;
    if (field == 1) request.deadline_us = 250'000;
    if (field == 2) request.message_id = 0x5678;
    const Bytes wire = request.encode();
    EXPECT_EQ(request.wire_size(), wire.size());
    EXPECT_EQ(bare.encode().size() + rpc::Request::kTrailerSize, wire.size());
    auto decoded = rpc::Request::decode(wire);
    ASSERT_TRUE(decoded.ok()) << "field " << field;
    EXPECT_EQ(request.trace_id, decoded.value().trace_id);
    EXPECT_EQ(request.deadline_us, decoded.value().deadline_us);
    EXPECT_EQ(request.message_id, decoded.value().message_id);
    EXPECT_EQ(request.deadline_us, rpc::Request::peek_deadline_us(wire));
  }
}

TEST(DeadlineTrailerTest, DeadlineWithoutTraceIdStillWidensTheTrailer) {
  rpc::Request request;
  request.deadline_us = 9;
  const Bytes wire = request.encode();
  EXPECT_EQ(rpc::Request{}.encode().size() + rpc::Request::kTrailerSize,
            wire.size());
  auto decoded = rpc::Request::decode(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(0u, decoded.value().trace_id);
  EXPECT_EQ(9u, decoded.value().deadline_us);
  EXPECT_EQ(0u, decoded.value().message_id);
}

TEST(DeadlineTrailerTest, AbsentTrailerAddsNoBytes) {
  rpc::Request request = trailer_request();
  const Bytes wire = request.encode();
  EXPECT_EQ(Capability::kWireSize + 2 + 4 + request.body.size(), wire.size());
  EXPECT_EQ(request.wire_size(), wire.size());
  auto decoded = rpc::Request::decode(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(0u, decoded.value().trace_id);
  EXPECT_EQ(0u, rpc::Request::peek_deadline_us(wire));
}

TEST(DeadlineTrailerTest, OtherTrailerLengthsRemainErrors) {
  const Bytes bare = trailer_request().encode();
  for (std::size_t extra = 1; extra <= 32; ++extra) {
    if (extra == rpc::Request::kTrailerSize) continue;
    Bytes wire = bare;
    wire.resize(wire.size() + extra, 0x11);  // the old 8- and 16-byte forms too
    EXPECT_FALSE(rpc::Request::decode(wire).ok()) << extra << " bytes";
    EXPECT_EQ(0u, rpc::Request::peek_deadline_us(wire)) << extra << " bytes";
  }
}

TEST(DeadlineTrailerTest, RestampRewritesOnlyTheDeadline) {
  rpc::Request request = trailer_request();
  request.trace_id = 1;
  request.deadline_us = 2;
  request.message_id = 3;
  Bytes wire = request.encode();
  rpc::Request::restamp_deadline(wire, 777);
  auto decoded = rpc::Request::decode(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(1u, decoded.value().trace_id);
  EXPECT_EQ(777u, decoded.value().deadline_us);
  EXPECT_EQ(3u, decoded.value().message_id);
  EXPECT_EQ(request.body, decoded.value().body);

  // A wire with no trailer has no deadline to rewrite.
  Bytes bare = trailer_request().encode();
  const Bytes before = bare;
  rpc::Request::restamp_deadline(bare, 777);
  EXPECT_EQ(before, bare);
}

// --- disk-fill admission at the Bullet service layer ----------------------

// BlockDevice wrapper whose reads park on a latch while armed; boot-time
// scrub traffic runs with the gate disarmed.
class GateDisk final : public BlockDevice {
 public:
  explicit GateDisk(BlockDevice* inner) : inner_(inner) {}

  std::uint64_t block_size() const noexcept override {
    return inner_->block_size();
  }
  std::uint64_t num_blocks() const noexcept override {
    return inner_->num_blocks();
  }

  Status read(std::uint64_t first_block, MutableByteSpan out) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (armed_) {
        ++blocked_;
        cv_.notify_all();
        cv_.wait(lock, [&] { return !armed_; });
      }
    }
    return inner_->read(first_block, out);
  }
  Status write(std::uint64_t first_block, ByteSpan data) override {
    return inner_->write(first_block, data);
  }
  Status flush() override { return inner_->flush(); }

  void arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }
  void open() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = false;
    cv_.notify_all();
  }
  void wait_blocked(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return blocked_ >= n; });
  }

 private:
  BlockDevice* inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  int blocked_ = 0;
};

TEST(FillAdmissionTest, FillBoundShedsNewFillsButAdmitsJoins) {
  MemDisk raw(512, 4096);
  ASSERT_OK(BulletServer::format(raw, 64));
  GateDisk gate(&raw);
  auto mirror = MirroredDisk::create({&gate});
  ASSERT_TRUE(mirror.ok());
  auto mirror_disk = std::move(mirror).value();

  // Seed two files with a warm server, then boot a cold one whose only
  // route to the bytes is a disk fill through the (armed) gate.
  Capability cap_a, cap_b;
  {
    BulletConfig config;
    auto warm = BulletServer::start(&mirror_disk, config);
    ASSERT_TRUE(warm.ok());
    auto a = warm.value()->create(testing::payload(2048, 1), 1);
    auto b = warm.value()->create(testing::payload(2048, 2), 1);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    cap_a = a.value();
    cap_b = b.value();
  }
  BulletConfig config;
  config.io_threads = 1;
  config.max_inflight_fills = 1;
  auto server = BulletServer::start(&mirror_disk, config);
  ASSERT_TRUE(server.ok()) << server.error().to_string();
  gate.arm();

  // First miss registers the only permitted fill and parks on the device.
  std::promise<Status> first;
  auto first_done = first.get_future();
  server.value()->read_pinned_async(cap_a, [&](Result<BulletServer::PinnedFile> r) {
    first.set_value(status_of(r));
  });
  gate.wait_blocked(1);

  // A different file at the bound: shed synchronously, before any
  // allocation or device submission.
  Status second = Status::success();
  server.value()->read_pinned_async(cap_b, [&](Result<BulletServer::PinnedFile> r) {
    second = status_of(r);
  });
  EXPECT_CODE(retry_later, second);

  // The same file joins the in-flight fill instead of being shed: joining
  // adds no disk work, so the bound does not apply.
  std::promise<Status> join;
  auto join_done = join.get_future();
  server.value()->read_pinned_async(cap_a, [&](Result<BulletServer::PinnedFile> r) {
    join.set_value(status_of(r));
  });

  gate.open();
  EXPECT_OK(first_done.get());
  EXPECT_OK(join_done.get());
  EXPECT_EQ(1u,
            testing::metric(*server.value(), "bullet_inflight_sheds_total"));

  // With the device unblocked the shed file is readable again.
  std::promise<Status> retry;
  auto retry_done = retry.get_future();
  server.value()->read_pinned_async(cap_b, [&](Result<BulletServer::PinnedFile> r) {
    retry.set_value(status_of(r));
  });
  EXPECT_OK(retry_done.get());
}

}  // namespace
}  // namespace bullet
