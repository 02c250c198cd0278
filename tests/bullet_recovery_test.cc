// Crash-recovery, startup consistency checks (fsck), replica failover, and
// resilvering for the Bullet server.
#include <gtest/gtest.h>

#include "bullet/server.h"
#include "common/crc.h"
#include "tests/test_util.h"

namespace bullet {
namespace {

using testing::BulletHarness;
using testing::payload;
using testing::status_of;

TEST(BulletRecoveryTest, FilesSurviveReboot) {
  BulletHarness h;
  std::vector<Capability> caps;
  std::vector<std::uint32_t> crcs;
  for (int i = 0; i < 20; ++i) {
    const Bytes data = payload(200 + 37 * static_cast<std::size_t>(i), i);
    auto cap = h.server().create(data, 2);
    ASSERT_TRUE(cap.ok());
    caps.push_back(cap.value());
    crcs.push_back(crc32c(data));
  }
  h.reboot();
  for (std::size_t i = 0; i < caps.size(); ++i) {
    auto read = h.server().read(caps[i]);
    ASSERT_TRUE(read.ok()) << i;
    EXPECT_EQ(crcs[i], crc32c(read.value())) << i;
  }
  EXPECT_EQ(20u, h.server().live_files());
}

TEST(BulletRecoveryTest, DeletionsSurviveReboot) {
  BulletHarness h;
  auto keep = h.server().create(payload(100, 1), 2);
  auto drop = h.server().create(payload(100, 2), 2);
  ASSERT_TRUE(keep.ok() && drop.ok());
  ASSERT_OK(h.server().erase(drop.value()));
  h.reboot();
  EXPECT_TRUE(h.server().read(keep.value()).ok());
  EXPECT_FALSE(h.server().read(drop.value()).ok());
  EXPECT_EQ(1u, h.server().live_files());
}

TEST(BulletRecoveryTest, FreeListRebuiltExactly) {
  BulletHarness h;
  auto a = h.server().create(payload(3000, 1), 2);
  auto b = h.server().create(payload(3000, 2), 2);
  auto c = h.server().create(payload(3000, 3), 2);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_OK(h.server().erase(b.value()));  // leaves a hole
  const auto free_before = h.server().disk_free().total_free();
  const auto holes_before = h.server().disk_free().hole_count();
  h.reboot();
  EXPECT_EQ(free_before, h.server().disk_free().total_free());
  EXPECT_EQ(holes_before, h.server().disk_free().hole_count());
}

TEST(BulletRecoveryTest, CapabilitiesRemainValidAcrossReboot) {
  // The random number lives in the inode, so a reboot must not invalidate
  // outstanding capabilities — and forged ones must still fail.
  BulletHarness h;
  auto cap = h.server().create(payload(64, 7), 2);
  ASSERT_TRUE(cap.ok());
  h.reboot();
  EXPECT_TRUE(h.server().read(cap.value()).ok());
  Capability forged = cap.value();
  forged.check ^= 0x800;
  EXPECT_CODE(bad_capability, status_of(h.server().read(forged)));
}

TEST(BulletRecoveryTest, PfactorOneFileSurvivesCrashOfUnsyncedReplica) {
  // With P-FACTOR=1 the client resumes after one disk holds the file; the
  // second replica is written behind the reply. In the synchronous harness
  // both end up written, so crash the *second* replica before its copy and
  // verify the first alone can serve the file.
  BulletHarness h;
  h.disk(1).fail_after_writes(0);  // replica 1 dies at its next write
  auto cap = h.server().create(payload(5000, 3), 1);
  ASSERT_TRUE(cap.ok());
  EXPECT_EQ(1, h.mirror().healthy_count());
  auto read = h.server().read(cap.value());
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(equal(payload(5000, 3), read.value()));
}

TEST(BulletRecoveryTest, PfactorIsAHardGuarantee) {
  // With one replica already dead, a P-FACTOR=2 create cannot meet its
  // contract: it must fail cleanly, leaving no file behind.
  BulletHarness h;
  h.disk(1).fail_device();
  (void)h.server().read(h.server().super_capability());  // any op is fine
  auto cap = h.server().create(payload(2000, 1), 2);
  EXPECT_CODE(io_error, status_of(cap));
  EXPECT_EQ(0u, h.server().live_files());
  // P-FACTOR=1 still succeeds on the survivor.
  auto ok_cap = h.server().create(payload(2000, 2), 1);
  ASSERT_TRUE(ok_cap.ok());
  EXPECT_TRUE(equal(payload(2000, 2), h.server().read(ok_cap.value()).value()));
  // After the undo, a reboot from the survivor is clean.
  h.disk(0).clear_faults();
  h.reboot();
  EXPECT_EQ(0u, h.server().boot_report().repairs());
  EXPECT_EQ(1u, h.server().live_files());
}

TEST(BulletRecoveryTest, CrashMidCreateLeavesConsistentDisk) {
  // Fail the devices part-way through a create: the file may or may not
  // exist after reboot, but the disk must pass its consistency checks and
  // previously stored files must be intact.
  for (std::uint64_t survive_writes = 0; survive_writes < 6;
       ++survive_writes) {
    BulletHarness h;
    auto stable = h.server().create(payload(2000, 11), 2);
    ASSERT_TRUE(stable.ok());

    h.disk(0).fail_after_writes(survive_writes);
    h.disk(1).fail_after_writes(survive_writes);
    (void)h.server().create(payload(4000, 12), 2);  // may fail — that's fine

    // "Reboot": clear the injected faults and restart from the images.
    h.disk(0).clear_faults();
    h.disk(1).clear_faults();
    h.reboot();

    EXPECT_EQ(0u, h.server().boot_report().repairs())
        << "writes=" << survive_writes;
    auto read = h.server().read(stable.value());
    ASSERT_TRUE(read.ok()) << "writes=" << survive_writes;
    EXPECT_TRUE(equal(payload(2000, 11), read.value()));
  }
}

TEST(BulletRecoveryTest, FsckClearsOutOfBoundsInode) {
  BulletHarness h;
  auto good = h.server().create(payload(600, 1), 2);
  auto bad = h.server().create(payload(600, 2), 2);
  ASSERT_TRUE(good.ok() && bad.ok());

  // Corrupt the second file's inode on both replicas: point it beyond the
  // data region.
  const auto& layout = h.server().layout();
  const std::uint32_t object = bad.value().object;
  const std::uint64_t block = layout.inode_device_block(object);
  const std::uint32_t offset = layout.inode_offset_in_block(object);
  for (int replica = 0; replica < 2; ++replica) {
    Bytes raw(layout.block_size());
    ASSERT_OK(h.disk(replica).read(block, raw));
    Inode inode = Inode::decode(ByteSpan(raw.data() + offset, Inode::kDiskSize));
    inode.first_block = 0xFFFFFF;  // far past the device
    inode.encode(MutableByteSpan(raw.data() + offset, Inode::kDiskSize));
    ASSERT_OK(h.disk(replica).write(block, raw));
  }

  h.reboot();
  EXPECT_EQ(1u, h.server().boot_report().cleared_bad_bounds);
  EXPECT_FALSE(h.server().read(bad.value()).ok());
  EXPECT_TRUE(h.server().read(good.value()).ok());
  // The repair was written back: a second reboot is clean.
  h.reboot();
  EXPECT_EQ(0u, h.server().boot_report().repairs());
}

TEST(BulletRecoveryTest, FsckClearsOverlappingInodes) {
  BulletHarness h;
  auto a = h.server().create(payload(2048, 1), 2);
  auto b = h.server().create(payload(2048, 2), 2);
  ASSERT_TRUE(a.ok() && b.ok());

  // Make b's inode claim a's blocks.
  const auto& layout = h.server().layout();
  const std::uint32_t object_a = a.value().object;
  const std::uint32_t object_b = b.value().object;
  const std::uint64_t block = layout.inode_device_block(object_b);
  const std::uint32_t offset_b = layout.inode_offset_in_block(object_b);
  // Read a's first block from its inode.
  Bytes raw(layout.block_size());
  ASSERT_OK(h.disk(0).read(layout.inode_device_block(object_a), raw));
  const Inode inode_a = Inode::decode(ByteSpan(
      raw.data() + layout.inode_offset_in_block(object_a), Inode::kDiskSize));

  for (int replica = 0; replica < 2; ++replica) {
    Bytes blk(layout.block_size());
    ASSERT_OK(h.disk(replica).read(block, blk));
    Inode inode_b =
        Inode::decode(ByteSpan(blk.data() + offset_b, Inode::kDiskSize));
    inode_b.first_block = inode_a.first_block;  // overlap!
    inode_b.encode(MutableByteSpan(blk.data() + offset_b, Inode::kDiskSize));
    ASSERT_OK(h.disk(replica).write(block, blk));
  }

  h.reboot();
  EXPECT_EQ(1u, h.server().boot_report().cleared_overlaps);
  // Exactly one of the two survives, with intact data.
  const bool a_alive = h.server().read(a.value()).ok();
  const bool b_alive = h.server().read(b.value()).ok();
  EXPECT_NE(a_alive, b_alive);
  EXPECT_EQ(0u, h.server().check_consistency().cleared_overlaps);
}

TEST(BulletRecoveryTest, StaleCacheIndexClearedAtBoot) {
  BulletHarness h;
  auto cap = h.server().create(payload(100, 5), 2);
  ASSERT_TRUE(cap.ok());
  // Write a bogus cache index into the on-disk inode.
  const auto& layout = h.server().layout();
  const std::uint64_t block = layout.inode_device_block(cap.value().object);
  const std::uint32_t offset =
      layout.inode_offset_in_block(cap.value().object);
  for (int replica = 0; replica < 2; ++replica) {
    Bytes raw(layout.block_size());
    ASSERT_OK(h.disk(replica).read(block, raw));
    Inode inode = Inode::decode(ByteSpan(raw.data() + offset, Inode::kDiskSize));
    inode.cache_index = 999;
    inode.encode(MutableByteSpan(raw.data() + offset, Inode::kDiskSize));
    ASSERT_OK(h.disk(replica).write(block, raw));
  }
  h.reboot();
  EXPECT_EQ(1u, h.server().boot_report().cleared_cache_fields);
  // Not a repair — the file is fine.
  EXPECT_EQ(0u, h.server().boot_report().repairs());
  EXPECT_TRUE(equal(payload(100, 5), h.server().read(cap.value()).value()));
}

TEST(BulletRecoveryTest, ServesFromSecondReplicaWhenMainDies) {
  BulletHarness::Options options;
  options.cache_bytes = 2048;  // small cache to force disk reads
  BulletHarness h(options);
  auto a = h.server().create(payload(1500, 1), 2);
  auto b = h.server().create(payload(1500, 2), 2);
  ASSERT_TRUE(a.ok() && b.ok());
  // Fill the cache with b, then kill the main disk and read a (cache miss).
  ASSERT_TRUE(h.server().read(b.value()).ok());
  h.disk(0).fail_device();
  auto read = h.server().read(a.value());
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(equal(payload(1500, 1), read.value()));
  EXPECT_EQ(1u, testing::metric(h.server(), "bullet_healthy_replicas"));
}

TEST(BulletRecoveryTest, ResilverRestoresRedundancy) {
  BulletHarness::Options options;
  options.cache_bytes = 2048;
  BulletHarness h(options);
  auto a = h.server().create(payload(1500, 1), 2);
  ASSERT_TRUE(a.ok());
  h.disk(1).fail_device();
  auto b = h.server().create(payload(1500, 2), 1);  // replica 1 misses this
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(1, h.mirror().healthy_count());

  h.disk(1).clear_faults();
  ASSERT_OK(h.mirror().resilver(1));
  EXPECT_EQ(2, h.mirror().healthy_count());

  // Now replica 0 dies; everything must still be served (from replica 1).
  // Evict cached copies first by rebooting.
  h.reboot();
  h.disk(0).fail_device();
  EXPECT_TRUE(equal(payload(1500, 1), h.server().read(a.value()).value()));
  EXPECT_TRUE(equal(payload(1500, 2), h.server().read(b.value()).value()));
}

TEST(BulletRecoveryTest, BootReportCountsFiles) {
  BulletHarness h;
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(h.server().create(payload(100, i), 2).ok());
  }
  h.reboot();
  EXPECT_EQ(7u, h.server().boot_report().files);
  EXPECT_EQ(0u, h.server().boot_report().repairs());
}

}  // namespace
}  // namespace bullet
