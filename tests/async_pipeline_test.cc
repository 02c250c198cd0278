// The async disk pipeline end to end. Cache-miss reads and creates park
// as continuations on the AsyncDiskQueue and resume on completion threads
// while incremental compaction slides files underneath them; erase lands
// mid-fill; the UDP worker pool runs the same storm over the wire. The
// invariants under test:
//
//   * a parked request resumes with the right bytes (CRC-exact), and a
//     pinned span stays valid across concurrent compaction steps;
//   * with a completion pool (io_threads > 0) no submitter ever executes
//     a device op inline: AsyncDiskQueue::Stats::inline_completions == 0;
//   * concurrent misses for one file join a single fill (one device read);
//   * erase during an in-flight fill defers the extent/inode free and the
//     reader gets no_such_object or valid bytes — never garbage;
//   * per-client reply ordering holds through parked continuations (each
//     UDP client's storm sees only its own, correct replies).
//
// Run under ThreadSanitizer (the "concurrency" ctest label) to turn "it
// happened to pass" into "no data races were observed".
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
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

// Blocks until `count` async callbacks have checked in.
class Latch {
 public:
  explicit Latch(int count) : remaining_(count) {}
  void count_down() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--remaining_ == 0) cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return remaining_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int remaining_;
};

BulletConfig async_config(unsigned io_threads) {
  BulletConfig config;
  config.cache_bytes = 1 << 20;
  config.io_threads = io_threads;
  return config;
}

TEST(AsyncPipelineTest, InlineModeCompletesSynchronously) {
  // io_threads == 0: every submit executes inline, so the continuation has
  // already run when the call returns — the deterministic compatibility
  // mode single-threaded callers and SimDisk rely on.
  BulletHarness h;
  h.reboot(async_config(0));
  const Bytes data = testing::payload(5000, 42);

  std::optional<Result<Capability>> created;
  h.server().create_async(data, 2, [&](Result<Capability> cap, ByteSpan) {
    created = std::move(cap);
  });
  ASSERT_TRUE(created.has_value());
  ASSERT_TRUE(created->ok());

  // Drop the cache (fresh boot) so the read is a genuine miss.
  h.reboot(async_config(0));
  std::optional<Result<BulletServer::PinnedFile>> read;
  h.server().read_pinned_async(created->value(), [&](auto r) {
    read = std::move(r);
  });
  ASSERT_TRUE(read.has_value());
  ASSERT_TRUE(read->ok());
  EXPECT_EQ(crc32c(data), crc32c(read->value().data));

  const auto qs = h.server().io_queue().stats();
  EXPECT_EQ(0u, qs.inflight);
  EXPECT_GT(qs.inline_completions, 0u);
  EXPECT_EQ(qs.submitted, qs.completed);
}

TEST(AsyncPipelineTest, MissParksAndResumesOffThread) {
  BulletHarness h;
  h.reboot(async_config(0));
  const Bytes data = testing::payload(20000, 7);
  auto cap = h.server().create(data, 2);
  ASSERT_TRUE(cap.ok());

  // Fresh boot with a completion pool: the read misses, parks, resumes.
  h.reboot(async_config(2));
  Latch latch(1);
  std::optional<Result<BulletServer::PinnedFile>> read;
  h.server().read_pinned_async(cap.value(), [&](auto r) {
    read = std::move(r);
    latch.count_down();
  });
  latch.wait();
  ASSERT_TRUE(read.has_value());
  ASSERT_TRUE(read->ok());
  EXPECT_EQ(crc32c(data), crc32c(read->value().data));

  h.server().io_queue().drain();
  const auto qs = h.server().io_queue().stats();
  // The async acceptance check: with a thread pool no submitter ever
  // blocked in BlockDevice::read/write.
  EXPECT_EQ(0u, qs.inline_completions);
  EXPECT_GT(qs.submitted, 0u);
  EXPECT_EQ(qs.submitted, qs.completed);
}

TEST(AsyncPipelineTest, ConcurrentMissesJoinOneFill) {
  BulletHarness h;
  h.reboot(async_config(0));
  const Bytes data = testing::payload(30000, 11);
  auto cap = h.server().create(data, 2);
  ASSERT_TRUE(cap.ok());

  h.reboot(async_config(2));
  const std::uint64_t device_reads_before = h.disk(0).reads() + h.disk(1).reads();

  constexpr int kReaders = 8;
  Latch latch(kReaders);
  std::atomic<int> correct{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kReaders; ++i) {
    threads.emplace_back([&] {
      h.server().read_pinned_async(cap.value(), [&](auto r) {
        if (r.ok() && crc32c(r.value().data) == crc32c(data)) ++correct;
        latch.count_down();
      });
    });
  }
  for (auto& t : threads) t.join();
  latch.wait();
  EXPECT_EQ(kReaders, correct.load());

  // Every reader either joined the one in-flight fill or hit the cache it
  // published: the device saw the file's blocks exactly once.
  const std::uint64_t device_reads =
      h.disk(0).reads() + h.disk(1).reads() - device_reads_before;
  EXPECT_LE(device_reads, 1u);
  EXPECT_EQ(0u, h.server().io_queue().stats().inline_completions);
}

// Every caller that needs a file's bytes goes through the one fill
// machinery: while a READ miss is held in the device, CREATE-FROM on the
// same source and the replication fetch of it join that fill instead of
// reading the extent a second time into a second cache entry.
TEST(AsyncPipelineTest, MixedCallersJoinOneFill) {
  MemDisk main(512, 4096), mirror_disk(512, 4096);
  ASSERT_OK(BulletServer::format(main, 256));
  ASSERT_OK(mirror_disk.restore(main.snapshot()));
  testing::GatedDisk gate(&main);
  auto mirror = MirroredDisk::create({&gate, &mirror_disk});
  ASSERT_TRUE(mirror.ok());
  MirroredDisk disk = std::move(mirror).value();

  const Bytes data = testing::payload(30000, 5);
  Capability cap;
  {
    auto server = BulletServer::start(&disk, async_config(1));
    ASSERT_TRUE(server.ok());
    auto created = server.value()->create(data, 2);
    ASSERT_TRUE(created.ok());
    cap = created.value();
  }
  // Fresh boot: cold cache, one completion thread.
  auto started = BulletServer::start(&disk, async_config(1));
  ASSERT_TRUE(started.ok());
  BulletServer& server = *started.value();
  const auto objects = server.list_objects();
  ASSERT_EQ(1u, objects.size());
  gate.arm(objects[0].first_block, (data.size() + 511) / 512);
  const std::uint64_t random = server.replica_manifest().files.at(0).random;

  // The READ miss parks in the device.
  Latch read_done(1);
  std::optional<Result<BulletServer::PinnedFile>> read;
  server.read_pinned_async(cap, [&](auto r) {
    read = std::move(r);
    read_done.count_down();
  });
  gate.wait_held(1);

  const std::vector<wire::FileEdit> edits = {
      wire::FileEdit::make_overwrite(10, Bytes{1, 2, 3}),
      wire::FileEdit::make_append(Bytes{9, 9})};
  std::optional<Result<Capability>> derived;
  std::thread create_from([&] { derived = server.create_from(cap, edits, 1); });
  std::optional<rpc::Reply> fetched;
  std::thread fetch([&] {
    rpc::Request request;
    request.target = server.super_capability();
    request.opcode = wire::kReplicate;
    Writer w;
    w.u8(wire::kReplFetch);
    w.u32(cap.object);
    w.u64(random);
    request.body = std::move(w).take();
    fetched = server.handle(request);
  });
  // Release the held read only once both callers have missed too, so they
  // are joining the fill (or, without fill joining, reading the device)
  // rather than hitting the entry it publishes.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (testing::metric(server, "bullet_cache_misses_total") < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(3u, testing::metric(server, "bullet_cache_misses_total"));
  gate.release();
  create_from.join();
  fetch.join();
  read_done.wait();
  server.io_queue().drain();

  EXPECT_EQ(1u, gate.range_reads());
  ASSERT_TRUE(read.has_value() && read->ok());
  EXPECT_EQ(crc32c(data), crc32c(read->value().data));
  ASSERT_TRUE(fetched.has_value());
  ASSERT_EQ(ErrorCode::ok, fetched->status);
  EXPECT_EQ(crc32c(data), crc32c(std::move(*fetched).take_payload()));
  ASSERT_TRUE(derived.has_value() && derived->ok());
  const auto expected = wire::apply_edits(data, edits);
  ASSERT_TRUE(expected.ok());
  const auto derived_bytes = server.read(derived->value());
  ASSERT_TRUE(derived_bytes.ok());
  EXPECT_EQ(crc32c(expected.value()), crc32c(derived_bytes.value()));
  // One entry for the source, one for the derived file.
  EXPECT_EQ(2u, server.cache().stats().entries);
}

// A create that found the arena pinned full stages its image outside the
// cache; a read that joins it while the writes are queued is served from
// that image once they land.
TEST(AsyncPipelineTest, ReadJoiningABypassCreateGetsItsImage) {
  MemDisk main(512, 4096);
  ASSERT_OK(BulletServer::format(main, 256));
  testing::GatedDisk gate(&main);
  auto mirror = MirroredDisk::create({&gate});
  ASSERT_TRUE(mirror.ok());
  MirroredDisk disk = std::move(mirror).value();
  BulletConfig config = async_config(1);
  config.cache_bytes = 32 << 10;

  const Bytes big = testing::payload(30000, 21);
  Capability big_cap;
  {
    auto server = BulletServer::start(&disk, config);
    ASSERT_TRUE(server.ok());
    auto created = server.value()->create(big, 1);
    ASSERT_TRUE(created.ok());
    big_cap = created.value();
  }
  auto started = BulletServer::start(&disk, config);
  ASSERT_TRUE(started.ok());
  BulletServer& server = *started.value();
  gate.arm(server.list_objects().at(0).first_block, (big.size() + 511) / 512);

  // The held miss pins most of the arena and the only completion thread.
  Latch big_done(1);
  server.read_pinned_async(big_cap, [&](auto r) {
    EXPECT_TRUE(r.ok() && crc32c(r.value().data) == crc32c(big));
    big_done.count_down();
  });
  gate.wait_held(1);

  // P-FACTOR 0 acks at once; its writes queue behind the held read.
  const Bytes small = testing::payload(8000, 22);
  auto small_cap = server.create(small, 0);
  ASSERT_TRUE(small_cap.ok());
  // Staged outside the arena.
  EXPECT_EQ(1u, testing::metric(server, "bullet_scratch_allocs_total"));
  Latch small_done(1);
  std::optional<Result<BulletServer::PinnedFile>> joined;
  server.read_pinned_async(small_cap.value(), [&](auto r) {
    joined = std::move(r);
    small_done.count_down();
  });

  gate.release();
  big_done.wait();
  small_done.wait();
  ASSERT_TRUE(joined->ok());
  EXPECT_EQ(crc32c(small), crc32c(joined->value().data));
  EXPECT_EQ(1u, gate.range_reads());
}

TEST(AsyncPipelineTest, EraseDuringFillDefersAndStaysConsistent) {
  BulletHarness h;
  h.reboot(async_config(0));
  auto cap = h.server().create(testing::payload(40000, 3), 2);
  ASSERT_TRUE(cap.ok());

  h.reboot(async_config(2));
  // Race a miss-read against an erase of the same file, many rounds. The
  // read must deliver either the full correct bytes or no_such_object;
  // afterwards the free lists must balance (no leaked extent or inode).
  for (int round = 0; round < 20; ++round) {
    auto round_cap = h.server().create(testing::payload(9000, 100 + round), 2);
    ASSERT_TRUE(round_cap.ok());
    h.reboot(async_config(2));  // cold cache, keep the pool

    Latch latch(1);
    std::atomic<bool> ok{false};
    h.server().read_pinned_async(round_cap.value(), [&](auto r) {
      ok = r.ok() ? crc32c(r.value().data) ==
                        crc32c(testing::payload(9000, 100 + round))
                  : r.code() == ErrorCode::no_such_object;
      latch.count_down();
    });
    (void)h.server().erase(round_cap.value());
    latch.wait();
    EXPECT_TRUE(ok.load()) << "round " << round;
    h.server().io_queue().drain();
    EXPECT_EQ(0u, h.server().check_consistency().repairs());
  }
}

// The big one: creates, cache-miss reads, deletes, and incremental
// compaction all interleaved through the completion pool, with pinned
// spans held across compaction steps.
TEST(AsyncPipelineTest, StormWithIncrementalCompaction) {
  BulletHarness::Options options;
  options.disk_blocks = 1 << 14;  // 8 MB per replica
  options.inode_slots = 2048;
  BulletHarness h(options);
  auto config = async_config(3);
  h.reboot(config);
  BulletServer& server = h.server();

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 120;
  std::atomic<int> failures{0};
  std::atomic<bool> stop_compactor{false};

  // Dedicated compactor: one bounded step at a time, forever — traffic
  // interleaves between the lock holds.
  std::thread compactor([&] {
    while (!stop_compactor.load(std::memory_order_relaxed)) {
      const auto step = server.compact_step(16);
      if (!step.ok()) ++failures;
    }
  });

  auto worker = [&](int thread_id) {
    Rng rng(static_cast<std::uint64_t>(thread_id) * 977 + 13);
    std::vector<std::pair<Capability, std::uint32_t>> mine;
    std::vector<BulletServer::PinnedFile> pinned;  // held across compaction
    std::vector<std::uint32_t> pinned_crcs;
    for (int op = 0; op < kOpsPerThread; ++op) {
      const std::uint64_t dice = rng.next_below(100);
      if (mine.empty() || dice < 40) {
        Bytes data(rng.next_range(1, 12000));
        rng.fill(data);
        const std::uint32_t crc = crc32c(data);
        Latch latch(1);
        std::optional<Result<Capability>> created;
        server.create_async(data, 1, [&](Result<Capability> cap, ByteSpan) {
          created = std::move(cap);
          latch.count_down();
        });
        latch.wait();
        if (!created->ok()) {
          if (created->code() != ErrorCode::no_space) ++failures;
          continue;
        }
        mine.emplace_back(created->value(), crc);
      } else if (dice < 80) {
        const auto& [cap, crc] = mine[rng.next_below(mine.size())];
        Latch latch(1);
        std::optional<Result<BulletServer::PinnedFile>> read;
        server.read_pinned_async(cap, [&](auto r) {
          read = std::move(r);
          latch.count_down();
        });
        latch.wait();
        if (!read->ok() || crc32c(read->value().data) != crc) {
          ++failures;
        } else if (pinned.size() < 8) {
          // Park the pin: compaction must treat it as immobile.
          pinned.push_back(std::move(read->value()));
          pinned_crcs.push_back(crc);
        }
      } else {
        const auto pick = rng.next_below(mine.size());
        if (!server.erase(mine[pick].first).ok()) ++failures;
        mine.erase(mine.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
    // Every span pinned along the way is still byte-identical, no matter
    // how many compaction steps ran since.
    for (std::size_t i = 0; i < pinned.size(); ++i) {
      if (crc32c(pinned[i].data) != pinned_crcs[i]) ++failures;
    }
    pinned.clear();
    // And everything this thread still owns reads back correct.
    for (const auto& [cap, crc] : mine) {
      Latch latch(1);
      std::optional<Result<BulletServer::PinnedFile>> read;
      server.read_pinned_async(cap, [&](auto r) {
        read = std::move(r);
        latch.count_down();
      });
      latch.wait();
      if (!read->ok() || crc32c(read->value().data) != crc) ++failures;
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& thread : threads) thread.join();
  stop_compactor = true;
  compactor.join();
  server.io_queue().drain();

  EXPECT_EQ(0, failures.load());
  EXPECT_EQ(0u, server.check_consistency().repairs());
  const std::string stats = server.metrics_text();
  EXPECT_GT(testing::metric(stats, "bullet_compact_steps_total"), 0u);
  EXPECT_EQ(0u, server.io_queue().stats().inline_completions);
  EXPECT_EQ(0u, server.io_queue().stats().inflight);
}

// The same guarantees over the wire: UDP worker pool + completion pool.
// Each client thread issues a dependent request stream on one connection;
// any cross-request reply mixup or lost continuation shows up as a CRC
// mismatch or timeout. kCompactDisk runs concurrently as an incremental
// background pass.
TEST(AsyncPipelineTest, UdpWorkerPoolWithParkedContinuations) {
  BulletHarness::Options options;
  options.disk_blocks = 1 << 14;
  options.inode_slots = 2048;
  BulletHarness h(options);
  auto config = async_config(2);
  config.cache_bytes = 64 << 10;  // small cache: plenty of parked misses
  h.reboot(config);

  rpc::UdpServerOptions server_options;
  server_options.workers = 4;
  auto udp = rpc::UdpServer::start(server_options);
  ASSERT_TRUE(udp.ok());
  ASSERT_OK(udp.value()->register_service(&h.server()));
  h.server().attach_io_counters(&udp.value()->io_counters());

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 50;
  std::atomic<int> failures{0};

  auto client_thread = [&](int thread_id) {
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
    Rng rng(static_cast<std::uint64_t>(thread_id) * 31 + 5);
    std::vector<std::pair<Capability, std::uint32_t>> mine;
    for (int op = 0; op < kOpsPerThread; ++op) {
      const std::uint64_t dice = rng.next_below(100);
      if (mine.empty() || dice < 40) {
        Bytes data(rng.next_range(1, 10000));
        rng.fill(data);
        auto cap = client.create(data, 1);
        if (!cap.ok()) {
          ++failures;
          continue;
        }
        mine.emplace_back(cap.value(), crc32c(data));
      } else if (dice < 70) {
        const auto& [cap, crc] = mine[rng.next_below(mine.size())];
        auto data = client.read(cap);
        if (!data.ok() || crc32c(data.value()) != crc) ++failures;
      } else if (dice < 80) {
        // Admin-driven incremental compaction, concurrent with traffic.
        if (!client.compact_disk().ok()) ++failures;
      } else {
        const auto pick = rng.next_below(mine.size());
        if (!client.erase(mine[pick].first).ok()) ++failures;
        mine.erase(mine.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
    for (const auto& [cap, crc] : mine) {
      auto data = client.read(cap);
      if (!data.ok() || crc32c(data.value()) != crc) ++failures;
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(client_thread, t);
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(0, failures.load());
  h.server().io_queue().drain();
  EXPECT_EQ(0u, h.server().check_consistency().repairs());
  // No UDP worker ever blocked in the device on a cache-miss path.
  EXPECT_EQ(0u, h.server().io_queue().stats().inline_completions);
  udp.value()->stop();
}

}  // namespace
}  // namespace bullet
