// Tests for disk compaction and fragmentation behaviour ("compaction every
// morning at say 3 am").
#include <gtest/gtest.h>

#include "bullet/server.h"
#include "common/crc.h"
#include "tests/test_util.h"

namespace bullet {
namespace {

using testing::BulletHarness;
using testing::payload;
using testing::status_of;

TEST(BulletCompactionTest, CompactEmptyDiskIsNoop) {
  BulletHarness h;
  auto moved = h.server().compact_disk();
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(0u, moved.value());
}

TEST(BulletCompactionTest, CompactAlreadyContiguousIsNoop) {
  BulletHarness h;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(h.server().create(payload(1000, i), 2).ok());
  }
  auto moved = h.server().compact_disk();
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(0u, moved.value());
}

TEST(BulletCompactionTest, SqueezesHolesAndPreservesData) {
  BulletHarness h;
  std::vector<Capability> caps;
  for (int i = 0; i < 10; ++i) {
    auto cap = h.server().create(payload(2000, i), 2);
    ASSERT_TRUE(cap.ok());
    caps.push_back(cap.value());
  }
  // Delete every other file, leaving holes.
  for (std::size_t i = 0; i < caps.size(); i += 2) {
    ASSERT_OK(h.server().erase(caps[i]));
  }
  const auto holes_before = h.server().disk_free().hole_count();
  EXPECT_GT(holes_before, 1u);

  auto moved = h.server().compact_disk();
  ASSERT_TRUE(moved.ok());
  EXPECT_GT(moved.value(), 0u);
  EXPECT_EQ(1u, h.server().disk_free().hole_count());

  // Survivors intact, via the server...
  for (std::size_t i = 1; i < caps.size(); i += 2) {
    auto read = h.server().read(caps[i]);
    ASSERT_TRUE(read.ok()) << i;
    EXPECT_TRUE(equal(payload(2000, i), read.value())) << i;
  }
  // ... and from a cold boot (compaction rewrote inodes write-through).
  h.reboot();
  EXPECT_EQ(0u, h.server().boot_report().repairs());
  for (std::size_t i = 1; i < caps.size(); i += 2) {
    auto read = h.server().read(caps[i]);
    ASSERT_TRUE(read.ok()) << i;
    EXPECT_TRUE(equal(payload(2000, i), read.value())) << i;
  }
}

TEST(BulletCompactionTest, CreateCompactsWhenFragmentationBlocks) {
  // Carve the small data region into alternating live/dead extents so no
  // hole fits the final request, then watch create() compact and succeed.
  BulletHarness::Options options;
  options.disk_blocks = 128;  // 64 KB disk
  options.inode_slots = 32;
  BulletHarness h(options);
  const std::uint64_t bs = h.options().block_size;

  std::vector<Capability> caps;
  for (;;) {
    auto cap = h.server().create(payload(8 * bs, caps.size()), 2);
    if (!cap.ok()) break;
    caps.push_back(cap.value());
  }
  ASSERT_GE(caps.size(), 4u);
  for (std::size_t i = 0; i < caps.size(); i += 2) {
    ASSERT_OK(h.server().erase(caps[i]));
  }
  const std::uint64_t free_blocks = h.server().disk_free().total_free();
  const std::uint64_t largest = h.server().disk_free().largest_hole();
  ASSERT_GT(free_blocks, largest);  // fragmented

  // Ask for more than the largest hole but less than the total free space.
  const std::uint64_t want_blocks = largest + 4;
  ASSERT_LE(want_blocks, free_blocks);
  auto cap = h.server().create(payload(want_blocks * bs, 777), 2);
  ASSERT_TRUE(cap.ok()) << cap.error().to_string();
  EXPECT_TRUE(equal(payload(want_blocks * bs, 777),
                    h.server().read(cap.value()).value()));
  // Remaining originals intact.
  for (std::size_t i = 1; i < caps.size(); i += 2) {
    EXPECT_TRUE(equal(payload(8 * bs, i), h.server().read(caps[i]).value()));
  }
}

TEST(BulletCompactionTest, FragmentationStatsExposed) {
  BulletHarness h;
  auto a = h.server().create(payload(1024, 1), 2);
  auto b = h.server().create(payload(1024, 2), 2);
  auto c = h.server().create(payload(1024, 3), 2);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_OK(h.server().erase(b.value()));
  const std::string stats = h.server().metrics_text();
  EXPECT_GE(testing::metric(stats, "bullet_disk_holes"), 2u);
  EXPECT_GT(testing::metric(stats, "bullet_disk_free_bytes"),
            testing::metric(stats, "bullet_disk_largest_hole_bytes"));
}

TEST(BulletCompactionTest, CachedFilesUnaffectedByDiskMoves) {
  // Compaction moves disk extents; cached copies must keep serving and the
  // moved disk locations must match what the cache had.
  BulletHarness::Options options;
  options.cache_bytes = 1 << 20;
  BulletHarness h(options);
  auto a = h.server().create(payload(3000, 1), 2);
  auto b = h.server().create(payload(3000, 2), 2);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_OK(h.server().erase(a.value()));
  ASSERT_TRUE(h.server().compact_disk().ok());
  // b is still cached; read it (hit), then force a cold read after reboot.
  const auto crc_cached = crc32c(h.server().read(b.value()).value());
  h.reboot();
  const auto crc_disk = crc32c(h.server().read(b.value()).value());
  EXPECT_EQ(crc_cached, crc_disk);
}

}  // namespace
}  // namespace bullet
