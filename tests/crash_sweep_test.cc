// Crash-point durability sweep: crash the mirror at EVERY write index the
// workload issues — clean, torn at block granularity, and torn at inode
// (16-byte) granularity — reboot from the surviving images, and hold the
// server to its durability contract. See tests/crash_harness.h for the
// checked invariants and the tear model.
#include <gtest/gtest.h>

#include "tests/crash_harness.h"
#include "tests/test_util.h"

namespace bullet {
namespace {

using testing::BulletHarness;
using testing::CrashHarness;

// The workload must be big enough that the sweep means something.
constexpr std::uint64_t kMinWrites = 20;

std::uint64_t probe_total_writes() {
  CrashHarness harness;
  const std::uint64_t total = harness.run(
      CrashPlan::kNeverCrash, CrashPlan::TearMode::clean, /*torn_align=*/1);
  harness.verify_recovery();
  return total;
}

TEST(CrashSweepTest, WorkloadIsSubstantial) {
  EXPECT_GE(probe_total_writes(), kMinWrites);
}

TEST(CrashSweepTest, CleanCrashAtEveryWriteIndex) {
  const std::uint64_t total = probe_total_writes();
  CrashHarness harness;
  for (std::uint64_t k = 0; k < total; ++k) {
    SCOPED_TRACE(::testing::Message() << "clean crash at write " << k);
    harness.run(k, CrashPlan::TearMode::clean, /*torn_align=*/1);
    harness.verify_recovery();
  }
}

TEST(CrashSweepTest, TornBlockPrefixCrashAtEveryWriteIndex) {
  const std::uint64_t total = probe_total_writes();
  CrashHarness harness;
  for (std::uint64_t k = 0; k < total; ++k) {
    SCOPED_TRACE(::testing::Message() << "torn-prefix crash at write " << k);
    harness.run(k, CrashPlan::TearMode::torn_prefix, /*torn_align=*/1);
    harness.verify_recovery();
  }
}

TEST(CrashSweepTest, TornInodeGranularityCrashAtEveryWriteIndex) {
  const std::uint64_t total = probe_total_writes();
  CrashHarness harness;
  for (std::uint64_t k = 0; k < total; ++k) {
    SCOPED_TRACE(::testing::Message() << "torn-bytes crash at write " << k);
    harness.run(k, CrashPlan::TearMode::torn_bytes, /*torn_align=*/16);
    harness.verify_recovery();
  }
}

// The incremental-compaction protocol claims the crash-safe copy-then-flip
// invariant holds at EVERY step boundary, not just at the end of a full
// pass. Single-step a compaction of a fragmented disk and, after each
// bounded step, boot a fresh server from an image of the disks exactly as
// a power cut at that boundary would leave them. Every file must read back
// CRC-exact, fsck must find nothing, the free list must equal a fresh
// inode scan, and the replicas must already be identical (no healing
// needed — step writes are write-through to the whole mirror).
TEST(CrashSweepTest, RebootAtEveryIncrementalCompactionStepBoundary) {
  BulletHarness::Options options;
  options.disk_blocks = 1024;
  options.inode_slots = 64;
  options.cache_bytes = 64 << 10;
  BulletHarness h(options);

  // Fragment the data region: interleaved creates, then erase every other
  // file. The survivors need both disjoint and overlapping (staged) slides.
  std::vector<std::pair<Capability, std::uint32_t>> live;
  std::vector<Capability> doomed;
  for (int i = 0; i < 10; ++i) {
    const Bytes data = testing::payload(1800 + 700 * (i % 4),
                                        0xC0FFEEull + static_cast<unsigned>(i));
    auto cap = h.server().create(data, 2);
    ASSERT_OK(testing::status_of(cap));
    if (i % 2 == 0) {
      live.emplace_back(cap.value(), crc32c(data));
    } else {
      doomed.push_back(cap.value());
    }
  }
  for (const Capability& cap : doomed) ASSERT_OK(h.server().erase(cap));

  // Step with small slices so every multi-block move spans several
  // boundaries (4 blocks per step; the files above are 4-10 blocks each).
  std::uint64_t steps = 0;
  for (;;) {
    auto progress = h.server().compact_step(/*max_blocks=*/4);
    ASSERT_OK(testing::status_of(progress));
    ++steps;
    ASSERT_LT(steps, 10000u) << "compaction failed to converge";

    // "Crash" here: image both replicas and boot a throwaway server.
    std::vector<std::unique_ptr<MemDisk>> copies;
    std::vector<BlockDevice*> replicas;
    for (int r = 0; r < options.replicas; ++r) {
      copies.push_back(std::make_unique<MemDisk>(options.block_size,
                                                 options.disk_blocks));
      ASSERT_OK(copies.back()->restore(h.disk(r).snapshot()));
      replicas.push_back(copies.back().get());
    }
    auto scrub_mirror = MirroredDisk::create(std::move(replicas));
    ASSERT_OK(testing::status_of(scrub_mirror));
    auto scrub = scrub_mirror.value().scrub(/*repair=*/false);
    ASSERT_OK(testing::status_of(scrub));
    EXPECT_EQ(0u, scrub.value().mismatched_blocks)
        << "replicas diverged at step " << steps;

    MirroredDisk mirror = std::move(scrub_mirror).value();
    BulletConfig config;
    config.cache_bytes = options.cache_bytes;
    auto booted = BulletServer::start(&mirror, config);
    ASSERT_OK(testing::status_of(booted));
    BulletServer& rebooted = *booted.value();
    EXPECT_EQ(0u, rebooted.boot_report().repairs())
        << "boot fsck repaired inodes at step " << steps;
    for (const auto& [cap, crc] : live) {
      auto data = rebooted.read(cap);
      ASSERT_OK(testing::status_of(data));
      EXPECT_EQ(crc, crc32c(data.value())) << "corrupt file at step " << steps;
    }
    const DiskLayout& layout = rebooted.layout();
    ExtentAllocator expected(layout.data_start_block(), layout.data_blocks());
    for (const auto& object : rebooted.list_objects()) {
      const std::uint64_t blocks = layout.blocks_for(object.size_bytes);
      if (blocks > 0) ASSERT_OK(expected.reserve(object.first_block, blocks));
    }
    EXPECT_EQ(expected.holes(), rebooted.disk_free().holes())
        << "free list out of sync at step " << steps;

    if (progress.value().done) break;
  }
  // The sweep is only meaningful if the pass actually took many bounded
  // steps (copy slices + per-hop flips across several moved files).
  EXPECT_GE(steps, 8u);
  EXPECT_GE(testing::metric(h.server(), "bullet_compact_steps_total"), steps);

  // The stepped pass left the region packed: a full-pass rerun moves 0.
  auto rerun = h.server().compact_disk();
  ASSERT_OK(testing::status_of(rerun));
  EXPECT_EQ(0u, rerun.value());
}

// Crashing with a torn write must stay safe for every single replica count
// too (no peer to heal from — only the write ordering protects you).
TEST(CrashSweepTest, SingleReplicaTornSweep) {
  CrashHarness::Options options;
  options.replicas = 1;
  CrashHarness probe(options);
  const std::uint64_t total = probe.run(CrashPlan::kNeverCrash,
                                        CrashPlan::TearMode::clean, 1);
  probe.verify_recovery();
  CrashHarness harness(options);
  for (std::uint64_t k = 0; k < total; ++k) {
    SCOPED_TRACE(::testing::Message() << "1-replica torn crash at " << k);
    harness.run(k, CrashPlan::TearMode::torn_bytes, /*torn_align=*/16);
    harness.verify_recovery();
  }
}

}  // namespace
}  // namespace bullet
