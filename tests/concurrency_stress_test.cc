// Pin/evict interaction under concurrency. Readers pin cached files (the
// zero-copy reply path) while a writer churns the cache hard enough to
// force eviction, and while deletes land on pinned entries. The invariants
// under test:
//
//   * a pinned span stays valid and byte-identical no matter what insert /
//     evict / remove traffic runs concurrently;
//   * remove-while-pinned defers the free until the last unpin;
//   * the server's shared/exclusive locking keeps verify-read-reply atomic
//     against create/erase/compact.
//
// Run under ThreadSanitizer (the "concurrency" ctest label) to turn "it
// happened to pass" into "no data races were observed".
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "bullet/client.h"
#include "bullet/file_cache.h"
#include "bullet/server.h"
#include "common/crc.h"
#include "rpc/udp_transport.h"
#include "tests/test_util.h"

namespace bullet {
namespace {

using testing::BulletHarness;
using testing::payload;

// --- FileCache pin semantics (single-threaded, deterministic) -----------

TEST(FileCachePinTest, PinnedEntryIsNotEvicted) {
  // Byte-granular arena that fits exactly two 100-byte entries.
  FileCache cache(200, /*block_size=*/1);
  std::vector<std::uint32_t> evicted;
  auto a = cache.insert(1, 100, &evicted);
  ASSERT_TRUE(a.ok());
  const Bytes bytes_a = payload(100, 1);
  std::memcpy(cache.mutable_data(a.value()).data(), bytes_a.data(), 100);

  const auto pinned = cache.touch_and_pin(a.value(), 1);
  ASSERT_TRUE(pinned.has_value());

  // Two more inserts would normally evict A (the LRU victim) first; with
  // the pin held, eviction must skip it and fail once nothing else is
  // evictable.
  auto b = cache.insert(2, 100, &evicted);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(evicted.empty());
  auto c = cache.insert(3, 100, &evicted);
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(1u, evicted.size());
  EXPECT_EQ(2u, evicted[0]);  // B went, not pinned A
  EXPECT_GE(cache.stats().pinned_evict_defers, 1u);

  // The pinned bytes never moved and never changed.
  EXPECT_TRUE(equal(bytes_a, *pinned));
  EXPECT_EQ(pinned->data(), cache.data(a.value()).data());

  // A 150-byte request can never be satisfied while A is pinned (at most
  // 100 bytes can come free); the attempt evicts C along the way and then
  // reports no_space — but leaves A alone.
  evicted.clear();
  EXPECT_CODE(no_space, testing::status_of(cache.insert(4, 150, &evicted)));
  EXPECT_TRUE(equal(bytes_a, *pinned));

  cache.unpin(a.value());
  // Unpinned, the whole arena is reclaimable again.
  auto d = cache.insert(5, 200, &evicted);
  ASSERT_TRUE(d.ok());
}

TEST(FileCachePinTest, RemoveWhilePinnedDefersTheFree) {
  FileCache cache(300, /*block_size=*/1);
  std::vector<std::uint32_t> evicted;
  auto a = cache.insert(7, 300, &evicted);
  ASSERT_TRUE(a.ok());
  const Bytes bytes_a = payload(300, 7);
  std::memcpy(cache.mutable_data(a.value()).data(), bytes_a.data(), 300);

  const auto pinned = cache.touch_and_pin(a.value(), 7);
  ASSERT_TRUE(pinned.has_value());
  cache.remove(a.value());  // file deleted while a reader holds the bytes

  // The mapping is gone (lookups miss, slot not reusable for hits)...
  EXPECT_FALSE(cache.contains(a.value()));
  EXPECT_FALSE(cache.touch_and_pin(a.value(), 7).has_value());
  EXPECT_EQ(1u, cache.deferred_free_pending());
  // ...but the bytes are still exactly there: no reuse until unpin.
  EXPECT_CODE(no_space, testing::status_of(cache.insert(8, 300, &evicted)));
  EXPECT_TRUE(equal(bytes_a, *pinned));

  cache.unpin(a.value());
  EXPECT_EQ(0u, cache.deferred_free_pending());
  EXPECT_EQ(1u, cache.stats().deferred_frees);
  // Space is back.
  auto b = cache.insert(8, 300, &evicted);
  ASSERT_TRUE(b.ok());
}

TEST(FileCachePinTest, EvictionToFitSkipsPinnedEntries) {
  // Build [hole=100][B=50][hole=50][D=100 pinned][E=100]: 150 free bytes,
  // but no contiguous run bigger than 100. A 150-byte insert must evict
  // its way to a hole, walking past pinned D, and no survivor may move.
  FileCache cache(400, /*block_size=*/1);
  std::vector<std::uint32_t> evicted;
  auto a = cache.insert(1, 100, &evicted);  // [0, 100)
  auto b = cache.insert(2, 50, &evicted);   // [100, 150)
  auto c = cache.insert(3, 50, &evicted);   // [150, 200)
  auto d = cache.insert(4, 100, &evicted);  // [200, 300)
  auto e = cache.insert(5, 100, &evicted);  // [300, 400)
  ASSERT_TRUE(a.ok() && b.ok() && c.ok() && d.ok() && e.ok());
  const Bytes bytes_d = payload(100, 4);
  const Bytes bytes_e = payload(100, 5);
  std::memcpy(cache.mutable_data(d.value()).data(), bytes_d.data(), 100);
  std::memcpy(cache.mutable_data(e.value()).data(), bytes_e.data(), 100);
  const auto* e_addr = cache.data(e.value()).data();

  const auto pinned = cache.touch_and_pin(d.value(), 4);
  ASSERT_TRUE(pinned.has_value());
  const auto* d_addr = pinned->data();
  cache.remove(a.value());
  cache.remove(c.value());
  cache.touch(b.value());
  cache.touch(e.value());  // recency, oldest first: D (pinned), B, E

  auto f = cache.insert(6, 150, &evicted);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(std::vector<std::uint32_t>{2}, evicted);  // B, not pinned D
  EXPECT_EQ(1u, cache.stats().pinned_evict_defers);
  EXPECT_EQ(d_addr - 200, cache.data(f.value()).data());  // [0, 150)

  // Neither survivor moved or changed, pinned or not.
  EXPECT_EQ(d_addr, cache.data(d.value()).data());
  EXPECT_TRUE(equal(bytes_d, *pinned));
  EXPECT_EQ(e_addr, cache.data(e.value()).data());
  EXPECT_TRUE(equal(bytes_e, cache.data(e.value())));
  cache.unpin(d.value());
}

TEST(FileCachePinTest, PinsThatSplitTheArenaSendAMissToTheHeap) {
  // A 32 KB arena of 512-byte blocks: A at [0, 8K), pinned B at [8K, 16K).
  // Evicting A leaves 8 KB + 16 KB free on either side of B, so a 20 KB
  // file cannot be cached while B is pinned.
  constexpr std::uint32_t kSmall = 8 * 1024;
  constexpr std::uint32_t kBig = 20 * 1024;
  {
    FileCache cache(32 * 1024, /*block_size=*/512);
    std::vector<std::uint32_t> evicted;
    auto a = cache.insert(1, kSmall, &evicted);
    auto b = cache.insert(2, kSmall, &evicted);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(cache.touch_and_pin(b.value(), 2).has_value());
    EXPECT_CODE(no_space,
                testing::status_of(cache.insert(3, kBig, &evicted)));
    EXPECT_EQ(std::vector<std::uint32_t>{1}, evicted);
    cache.unpin(b.value());
  }

  // The same layout in a server: its READ of the big file is still served,
  // byte-exact, from a private heap buffer.
  BulletHarness::Options options;
  options.cache_bytes = 32 * 1024;
  BulletHarness h(options);
  const Bytes small_a = payload(kSmall, 1);
  const Bytes small_b = payload(kSmall, 2);
  const Bytes big = payload(kBig, 3);
  auto cap_a = h.server().create(small_a, 1);
  auto cap_b = h.server().create(small_b, 1);
  auto cap_big = h.server().create(big, 1);
  ASSERT_TRUE(cap_a.ok() && cap_b.ok() && cap_big.ok());
  h.reboot();  // cold cache: fill it in a known order

  {
    auto file_a = h.server().read_pinned(cap_a.value());
    ASSERT_TRUE(file_a.ok());
  }  // A's pin drops here; B's is held to the end
  auto file_b = h.server().read_pinned(cap_b.value());
  ASSERT_TRUE(file_b.ok());
  const auto scratch_before =
      testing::metric(h.server(), "bullet_scratch_allocs_total");

  auto file_big = h.server().read_pinned(cap_big.value());
  ASSERT_TRUE(file_big.ok());
  EXPECT_TRUE(equal(big, file_big.value().data));
  EXPECT_EQ(scratch_before + 1,
            testing::metric(h.server(), "bullet_scratch_allocs_total"));
  EXPECT_EQ(1u, h.server().cache().stats().entries);  // only pinned B
  EXPECT_TRUE(equal(small_b, file_b.value().data));
}

// --- server-level pin/evict storm ---------------------------------------

TEST(ConcurrencyStressTest, ReadersPinWhileWriterEvictsAndCompacts) {
  // Cache holds ~8 files of 16 KB; 5 stable files leave room for the
  // writer's churn to force constant eviction, miss-path reloads of the
  // stable set, and disk compaction.
  BulletHarness::Options options;
  options.disk_blocks = 1 << 14;  // 8 MB per replica
  options.inode_slots = 512;
  options.cache_bytes = 128 * 1024;
  BulletHarness h(options);

  constexpr int kStable = 5;
  constexpr std::size_t kFileSize = 16 * 1024;
  std::vector<Capability> caps;
  std::vector<std::uint32_t> crcs;
  for (int i = 0; i < kStable; ++i) {
    const Bytes data = payload(kFileSize, static_cast<std::uint64_t>(i));
    auto cap = h.server().create(data, 2);
    ASSERT_TRUE(cap.ok());
    caps.push_back(cap.value());
    crcs.push_back(crc32c(data));
  }

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> pinned_reads{0};

  auto reader = [&](std::uint64_t seed) {
    Rng rng(seed);
    while (!done.load(std::memory_order_relaxed)) {
      const auto pick = rng.next_below(kStable);
      auto file = h.server().read_pinned(caps[pick]);
      if (!file.ok()) {
        ++failures;
        continue;
      }
      // Hold the pin across a second read: eviction and disk compaction run
      // underneath, the span must stay intact the whole time.
      auto again = h.server().read_pinned(caps[(pick + 1) % kStable]);
      if (!again.ok() || crc32c(again.value().data) != crcs[(pick + 1) % kStable]) {
        ++failures;
      }
      if (crc32c(file.value().data) != crcs[pick]) ++failures;
      ++pinned_reads;
    }
  };

  auto writer = [&] {
    Rng rng(999);
    std::vector<Capability> churn;
    for (int i = 0; i < 400; ++i) {
      Bytes data(rng.next_range(1000, 20000));
      rng.fill(data);
      auto cap = h.server().create(data, 1);
      if (!cap.ok()) {
        ++failures;
        continue;
      }
      churn.push_back(cap.value());
      // Delete in a pattern that leaves holes (evict-to-fit in the arena,
      // disk compaction) and keep the live churn set small.
      if (churn.size() >= 6) {
        const auto victim = rng.next_below(churn.size());
        if (!h.server().erase(churn[victim]).ok()) ++failures;
        churn.erase(churn.begin() + static_cast<std::ptrdiff_t>(victim));
      }
      if (i % 100 == 99 && !h.server().compact_disk().ok()) ++failures;
    }
    for (const auto& cap : churn) {
      if (!h.server().erase(cap).ok()) ++failures;
    }
    done.store(true, std::memory_order_relaxed);
  };

  std::vector<std::thread> threads;
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back(reader, static_cast<std::uint64_t>(r) + 1);
  }
  threads.emplace_back(writer);
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(0, failures.load());
  EXPECT_GT(pinned_reads.load(), 0u);
  const std::string stats = h.server().metrics_text();
  // The storm actually thrashed.
  EXPECT_GT(testing::metric(stats, "bullet_cache_evictions_total"), 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(kStable), h.server().live_files());
  EXPECT_EQ(0u, h.server().check_consistency().repairs());

  // The stable files are still byte-perfect after the storm, and disk
  // state survives a reboot.
  for (int i = 0; i < kStable; ++i) {
    auto data = h.server().read(caps[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(data.ok()) << i;
    EXPECT_EQ(crcs[static_cast<std::size_t>(i)], crc32c(data.value())) << i;
  }
  h.reboot();
  EXPECT_EQ(0u, h.server().boot_report().repairs());
}

// --- worker-pool UDP server end to end ----------------------------------

TEST(ConcurrencyStressTest, WorkerPoolServesParallelClients) {
  BulletHarness::Options options;
  options.disk_blocks = 1 << 14;
  options.inode_slots = 512;
  BulletHarness h(options);

  rpc::UdpServerOptions server_options;
  server_options.workers = 4;
  auto udp = rpc::UdpServer::start(server_options);
  ASSERT_TRUE(udp.ok());
  ASSERT_OK(udp.value()->register_service(&h.server()));
  h.server().attach_io_counters(&udp.value()->io_counters());

  // One hot 64 KB file everyone reads (cache-hit, borrowed-payload replies)
  // plus per-thread creates to mix exclusive-lock traffic in.
  const Bytes hot = payload(64 * 1024, 42);
  auto hot_cap = h.server().create(hot, 1);
  ASSERT_TRUE(hot_cap.ok());
  const std::uint32_t hot_crc = crc32c(hot);

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 30;
  std::atomic<int> failures{0};
  auto client_thread = [&](int id) {
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
    for (int op = 0; op < kOpsPerThread; ++op) {
      auto data = client.read(hot_cap.value());
      if (!data.ok() || crc32c(data.value()) != hot_crc) ++failures;
      if (op % 10 == 0) {
        auto cap = client.create(
            payload(3000, static_cast<std::uint64_t>(id * 1000 + op)), 1);
        if (!cap.ok()) ++failures;
      }
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(client_thread, t);
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(0, failures.load());

  const std::string stats = h.server().metrics_text();
  EXPECT_GE(testing::metric(stats, "bullet_reads_total"),
            static_cast<std::uint64_t>(kThreads * kOpsPerThread));
  // The recvmmsg loop ran, and requests flowed through workers.
  EXPECT_GT(testing::metric(stats, "bullet_rx_batches_total"), 0u);
  EXPECT_GT(testing::metric(stats, "bullet_worker_wakeups_total"), 0u);
  EXPECT_EQ(0u, h.server().check_consistency().repairs());
  udp.value()->stop();
}

}  // namespace
}  // namespace bullet
