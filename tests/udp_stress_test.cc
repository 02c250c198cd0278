// Concurrency stress over the real UDP transport: several client threads
// hammer one server simultaneously, in both server execution modes. With
// workers = 0 the RX thread executes requests inline (serialized, the
// paper's single-threaded architecture); with a worker pool, requests from
// different clients execute concurrently and the server's internal locking
// carries the consistency guarantees. Running the same storm in both modes
// pins the claim that they are observably equivalent (and TSAN turns the
// worker-mode run into a data-race check).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "bullet/client.h"
#include "bullet/server.h"
#include "common/crc.h"
#include "rpc/udp_transport.h"
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
  EXPECT_EQ(creates_confirmed.load(), h.server().stats().creates);
  EXPECT_EQ(0u, h.server().check_consistency().repairs());
  if (workers > 0) {
    EXPECT_GT(h.server().stats().worker_wakeups, 0u);
  }
  udp.value()->stop();

  // Disk state is sound after the storm.
  h.reboot();
  EXPECT_EQ(0u, h.server().boot_report().repairs());
}

TEST(UdpStressTest, ParallelClientsKeepTheServerConsistent) {
  run_mixed_op_storm(/*workers=*/0);
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
  run_large_transfer_storm(/*workers=*/0);
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

}  // namespace
}  // namespace bullet
