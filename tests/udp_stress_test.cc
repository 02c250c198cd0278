// Concurrency stress over the real UDP transport: several client threads
// hammer one server simultaneously, with one dispatch thread and with
// several. One worker executes queued requests one at a time (the paper's
// single-threaded server) while the receive thread answers cache-hit
// READs beside it; with more workers, requests from different clients
// execute concurrently too, and the server's internal locking carries the
// consistency guarantees. Running the same storm with both pins the claim
// that they are observably equivalent (and TSAN turns each run into a
// data-race check).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "bullet/client.h"
#include "bullet/server.h"
#include "common/crc.h"
#include "rpc/udp_transport.h"
#include "tests/raw_udp.h"
#include "tests/test_util.h"

namespace bullet {
namespace {

using testing::BulletHarness;

void run_mixed_op_storm(unsigned workers) {
  BulletHarness::Options options;
  options.disk_blocks = 1 << 14;  // 8 MB per replica
  options.inode_slots = 2048;
  BulletHarness h(options);
  rpc::UdpServerOptions server_options;
  server_options.workers = workers;
  auto udp = rpc::UdpServer::start(server_options);
  ASSERT_TRUE(udp.ok());
  ASSERT_OK(udp.value()->register_service(&h.server()));
  h.server().attach_io_counters(&udp.value()->io_counters());

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 60;
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> creates_confirmed{0};

  auto worker = [&](int thread_id) {
    rpc::UdpClientOptions client_options;
    client_options.server_udp_port = udp.value()->port();
    client_options.timeout_ms = 1000;
    auto transport = rpc::UdpTransport::connect(client_options);
    if (!transport.ok()) {
      ++failures;
      return;
    }
    BulletClient client(transport.value().get(),
                        h.server().super_capability());
    Rng rng(static_cast<std::uint64_t>(thread_id) * 1000 + 7);
    std::vector<std::pair<Capability, std::uint32_t>> mine;  // cap, crc
    for (int op = 0; op < kOpsPerThread; ++op) {
      const std::uint64_t dice = rng.next_below(100);
      if (mine.empty() || dice < 45) {
        Bytes data(rng.next_range(1, 8000));
        rng.fill(data);
        auto cap = client.create(data, 1);
        if (!cap.ok()) {
          ++failures;
          continue;
        }
        mine.emplace_back(cap.value(), crc32c(data));
        ++creates_confirmed;
      } else if (dice < 85) {
        const auto& [cap, crc] = mine[rng.next_below(mine.size())];
        auto data = client.read(cap);
        if (!data.ok() || crc32c(data.value()) != crc) ++failures;
      } else {
        const auto pick = rng.next_below(mine.size());
        if (!client.erase(mine[pick].first).ok()) ++failures;
        mine.erase(mine.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
    // Final verification of everything this thread still owns.
    for (const auto& [cap, crc] : mine) {
      auto data = client.read(cap);
      if (!data.ok() || crc32c(data.value()) != crc) ++failures;
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(0, failures.load());
  EXPECT_EQ(creates_confirmed.load(),
            testing::metric(h.server(), "bullet_creates_total"));
  EXPECT_EQ(0u, h.server().check_consistency().repairs());
  EXPECT_GT(testing::metric(h.server(), "bullet_worker_wakeups_total"), 0u);
  udp.value()->stop();

  // Disk state is sound after the storm.
  h.reboot();
  EXPECT_EQ(0u, h.server().boot_report().repairs());
}

TEST(UdpStressTest, ParallelClientsKeepTheServerConsistent) {
  run_mixed_op_storm(/*workers=*/1);
}

TEST(UdpStressTest, ParallelClientsKeepTheServerConsistentWorkerPool) {
  run_mixed_op_storm(/*workers=*/4);
}

void run_large_transfer_storm(unsigned workers) {
  // Threads moving multi-fragment messages concurrently: fragment
  // reassembly keyed by (peer, message id) must never mix streams.
  BulletHarness h;
  rpc::UdpServerOptions server_options;
  server_options.workers = workers;
  auto udp = rpc::UdpServer::start(server_options);
  ASSERT_TRUE(udp.ok());
  ASSERT_OK(udp.value()->register_service(&h.server()));

  std::atomic<int> failures{0};
  auto worker = [&](std::uint64_t seed) {
    rpc::UdpClientOptions client_options;
    client_options.server_udp_port = udp.value()->port();
    client_options.timeout_ms = 2000;
    auto transport = rpc::UdpTransport::connect(client_options);
    if (!transport.ok()) {
      ++failures;
      return;
    }
    BulletClient client(transport.value().get(),
                        h.server().super_capability());
    Rng rng(seed);
    for (int i = 0; i < 8; ++i) {
      Bytes data(100 * 1024);  // ~7 fragments each way
      rng.fill(data);
      auto cap = client.create(data, 1);
      if (!cap.ok()) {
        ++failures;
        continue;
      }
      auto back = client.read(cap.value());
      if (!back.ok() || !equal(data, back.value())) ++failures;
      if (!client.erase(cap.value()).ok()) ++failures;
    }
  };
  std::thread a(worker, 1), b(worker, 2);
  a.join();
  b.join();
  EXPECT_EQ(0, failures.load());
  EXPECT_EQ(0u, h.server().live_files());
  udp.value()->stop();
}

TEST(UdpStressTest, InterleavedLargeTransfers) {
  run_large_transfer_storm(/*workers=*/1);
}

TEST(UdpStressTest, InterleavedLargeTransfersWorkerPool) {
  run_large_transfer_storm(/*workers=*/2);
}

// One connection shared by many threads, as a server's peer link is shared
// by its UDP workers and disk-completion threads: every caller must get
// the reply to its own request.
TEST(UdpStressTest, SharedConnectionGivesEachCallerItsOwnReply) {
  BulletHarness h;
  rpc::UdpServerOptions server_options;
  server_options.workers = 4;
  auto udp = rpc::UdpServer::start(server_options);
  ASSERT_TRUE(udp.ok());
  ASSERT_OK(udp.value()->register_service(&h.server()));
  rpc::UdpClientOptions client_options;
  client_options.server_udp_port = udp.value()->port();
  client_options.timeout_ms = 1000;
  auto transport = rpc::UdpTransport::connect(client_options);
  ASSERT_TRUE(transport.ok());

  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  auto caller = [&](std::uint64_t seed) {
    BulletClient client(transport.value().get(),
                        h.server().super_capability());
    for (int i = 0; i < 10; ++i) {
      const Bytes data = testing::payload(1 + (seed * 131 + i * 977) % 6000,
                                          seed * 100 + i);
      auto cap = client.create(data, 1);
      if (!cap.ok()) {
        ++failures;
        continue;
      }
      auto back = client.read(cap.value());
      if (!back.ok() || !equal(data, back.value())) ++failures;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(caller, t + 1);
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(0, failures.load());
  EXPECT_EQ(static_cast<std::uint64_t>(kThreads * 10), h.server().live_files());
  udp.value()->stop();
}

// A READ reply leaves straight from the pinned cache span, and the server
// keeps no copy of it. A retransmit that arrives while the read is parked
// on the disk must be suppressed, not executed; one that arrives after the
// reply executes again, as a cache hit: a byte-identical answer, a second
// READ counted, and still one device read. With one worker and with two.
void retransmit_around_a_borrowed_reply(unsigned workers) {
  MemDisk main(512, 8192), mirror_disk(512, 8192);
  ASSERT_OK(BulletServer::format(main, 64));
  ASSERT_OK(mirror_disk.restore(main.snapshot()));
  testing::GatedDisk gate(&main);
  auto mirror = MirroredDisk::create({&gate, &mirror_disk});
  ASSERT_TRUE(mirror.ok());
  MirroredDisk disk = std::move(mirror).value();
  BulletConfig config;
  config.cache_bytes = 2 << 20;
  config.io_threads = 1;

  const Bytes data = testing::payload(3 * rpc::kFragmentPayload + 77, 8);
  Capability cap;
  {
    auto server = BulletServer::start(&disk, config);
    ASSERT_TRUE(server.ok());
    auto created = server.value()->create(data, 2);
    ASSERT_TRUE(created.ok());
    cap = created.value();
  }
  // Fresh boot: the READ misses and parks in the gated device.
  auto started = BulletServer::start(&disk, config);
  ASSERT_TRUE(started.ok());
  BulletServer& server = *started.value();
  const auto objects = server.list_objects();
  ASSERT_EQ(1u, objects.size());
  gate.arm(objects[0].first_block, (data.size() + 511) / 512);

  rpc::UdpServerOptions server_options;
  server_options.workers = workers;
  auto udp = rpc::UdpServer::start(server_options);
  ASSERT_TRUE(udp.ok());
  ASSERT_OK(udp.value()->register_service(&server));

  rpc::Request request;
  request.target = cap;
  request.opcode = wire::kRead;
  const Bytes wire_request = request.encode();
  constexpr std::uint64_t kId = 41;
  testing::RawUdpEndpoint raw(udp.value()->port());
  const std::uint64_t reads_before =
      testing::metric(server, "bullet_reads_total");

  raw.send_message(kId, wire_request);
  gate.wait_held(1);
  raw.send_message(kId, wire_request);  // retransmit while parked
  for (int i = 0; i < 500 && udp.value()->duplicates_suppressed() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(1u, udp.value()->duplicates_suppressed());
  EXPECT_FALSE(raw.receive(kId, 50).has_value());  // suppressed: no answer
  EXPECT_EQ(1u, gate.range_reads());

  gate.release();
  const std::optional<Bytes> first = raw.receive(kId, 2000);
  ASSERT_TRUE(first.has_value());
  // Retransmit again after the reply. One landing before the in-flight
  // mark clears is still dropped, so retry as a client would until the
  // re-executed read answers.
  std::optional<Bytes> again;
  for (int attempt = 0; attempt < 20 && !again; ++attempt) {
    raw.send_message(kId, wire_request);
    again = raw.receive(kId, 1000);
  }
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(equal(*first, *again));

  auto reply = rpc::Reply::decode(*first);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(ErrorCode::ok, reply.value().status);
  Reader r(reply.value().body);
  auto bytes = r.blob();
  ASSERT_TRUE(bytes.ok());
  EXPECT_TRUE(equal(data, bytes.value()));
  EXPECT_EQ(reads_before + 2, testing::metric(server, "bullet_reads_total"));
  EXPECT_EQ(1u, gate.range_reads());
  udp.value()->stop();
}

TEST(UdpStressTest, RetransmitAroundABorrowedReply) {
  retransmit_around_a_borrowed_reply(/*workers=*/1);
}

TEST(UdpStressTest, RetransmitAroundABorrowedReplyWorkerPool) {
  retransmit_around_a_borrowed_reply(/*workers=*/2);
}

}  // namespace
}  // namespace bullet
