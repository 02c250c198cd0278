// Tests for the rnode file cache: LRU eviction, free lists, evict-to-fit.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "bullet/file_cache.h"
#include "tests/test_util.h"

namespace bullet {
namespace {

using testing::payload;

void fill(FileCache& cache, RnodeIndex index, const Bytes& data) {
  auto span = cache.mutable_data(index);
  ASSERT_EQ(data.size(), span.size());
  if (!data.empty()) std::memcpy(span.data(), data.data(), data.size());
}

TEST(FileCacheTest, InsertAndReadBack) {
  FileCache cache(1024);
  std::vector<std::uint32_t> evicted;
  auto index = cache.insert(7, 100, &evicted);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(evicted.empty());
  fill(cache, index.value(), payload(100, 1));
  EXPECT_TRUE(equal(payload(100, 1), cache.data(index.value())));
  EXPECT_EQ(7u, cache.inode_of(index.value()));
  EXPECT_TRUE(cache.contains(index.value()));
}

TEST(FileCacheTest, ZeroSizeEntry) {
  FileCache cache(1024);
  std::vector<std::uint32_t> evicted;
  auto index = cache.insert(1, 0, &evicted);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(0u, cache.data(index.value()).size());
  cache.remove(index.value());
  EXPECT_FALSE(cache.contains(index.value()));
}

TEST(FileCacheTest, TooLargeRejected) {
  FileCache cache(1024);
  std::vector<std::uint32_t> evicted;
  EXPECT_CODE(too_large, cache.insert(1, 2048, &evicted));
}

TEST(FileCacheTest, ExactCapacityFits) {
  FileCache cache(1024);
  std::vector<std::uint32_t> evicted;
  EXPECT_TRUE(cache.insert(1, 1024, &evicted).ok());
}

TEST(FileCacheTest, EvictsLeastRecentlyUsed) {
  FileCache cache(1000);
  std::vector<std::uint32_t> evicted;
  auto a = cache.insert(1, 400, &evicted);
  auto b = cache.insert(2, 400, &evicted);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Touch `a` so that `b` becomes the LRU entry.
  cache.touch(a.value());
  auto c = cache.insert(3, 400, &evicted);
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(1u, evicted.size());
  EXPECT_EQ(2u, evicted[0]);  // inode of b
  EXPECT_TRUE(cache.contains(a.value()));
}

TEST(FileCacheTest, EvictsRepeatedlyUntilFit) {
  FileCache cache(1000);
  std::vector<std::uint32_t> evicted;
  for (std::uint32_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(cache.insert(i, 250, &evicted).ok());
  }
  EXPECT_TRUE(evicted.empty());
  ASSERT_TRUE(cache.insert(9, 900, &evicted).ok());
  // All four had to go.
  EXPECT_EQ(4u, evicted.size());
  EXPECT_EQ(4u, cache.stats().evictions);
}

TEST(FileCacheTest, RemoveFreesSpace) {
  FileCache cache(1000);
  std::vector<std::uint32_t> evicted;
  auto a = cache.insert(1, 1000, &evicted);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(0u, cache.free_bytes());
  cache.remove(a.value());
  EXPECT_EQ(1000u, cache.free_bytes());
  // Space is reusable without eviction.
  evicted.clear();
  ASSERT_TRUE(cache.insert(2, 1000, &evicted).ok());
  EXPECT_TRUE(evicted.empty());
}

TEST(FileCacheTest, FragmentedInsertEvictsInLruOrder) {
  FileCache cache(1000);
  std::vector<std::uint32_t> evicted;
  auto a = cache.insert(1, 100, &evicted);   // [0, 100)
  auto x = cache.insert(2, 100, &evicted);   // [100, 200)
  auto b = cache.insert(3, 100, &evicted);   // [200, 300)
  auto c = cache.insert(4, 100, &evicted);   // [300, 400)
  auto e = cache.insert(5, 100, &evicted);   // [400, 500)
  auto y = cache.insert(6, 100, &evicted);   // [500, 600)
  auto f = cache.insert(7, 400, &evicted);   // [600, 1000)
  ASSERT_TRUE(a.ok() && x.ok() && b.ok() && c.ok() && e.ok() && y.ok() &&
              f.ok());
  fill(cache, a.value(), payload(100, 1));
  fill(cache, e.value(), payload(100, 5));
  const auto* base = cache.data(a.value()).data();
  cache.remove(x.value());
  cache.remove(y.value());
  cache.touch(a.value());
  cache.touch(e.value());
  cache.touch(f.value());  // recency, oldest first: b, c, a, e, f
  // 200 bytes free in two 100-byte holes. A 250-byte insert evicts b
  // (hole 200, still short; compacting would now have fit it), then c
  // (hole 300), and stops there.
  auto g = cache.insert(8, 250, &evicted);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ((std::vector<std::uint32_t>{3, 4}), evicted);
  EXPECT_EQ(2u, cache.stats().evictions);
  EXPECT_EQ(base + 100, cache.data(g.value()).data());
  // The survivors did not move and kept their bytes.
  EXPECT_EQ(base, cache.data(a.value()).data());
  EXPECT_EQ(base + 400, cache.data(e.value()).data());
  EXPECT_EQ(base + 600, cache.data(f.value()).data());
  EXPECT_TRUE(equal(payload(100, 1), cache.data(a.value())));
  EXPECT_TRUE(equal(payload(100, 5), cache.data(e.value())));
}

TEST(FileCacheTest, RnodeSlotsRecycled) {
  FileCache cache(1 << 20, /*block_size=*/1, /*max_entries=*/4);
  std::vector<std::uint32_t> evicted;
  // Five entries into four slots: the LRU entry is recycled.
  for (std::uint32_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(cache.insert(i, 16, &evicted).ok());
  }
  EXPECT_EQ(1u, evicted.size());
  EXPECT_EQ(1u, evicted[0]);
  EXPECT_EQ(4u, cache.stats().entries);
}

TEST(FileCacheTest, StatsTrackUsage) {
  FileCache cache(1000);
  std::vector<std::uint32_t> evicted;
  auto a = cache.insert(1, 600, &evicted);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(1000u, cache.stats().capacity);
  EXPECT_EQ(600u, cache.stats().used);
  EXPECT_EQ(1u, cache.stats().entries);
  cache.remove(a.value());
  EXPECT_EQ(0u, cache.stats().used);
  EXPECT_EQ(0u, cache.stats().entries);
}

// --- block-aligned arena ----------------------------------------------------

TEST(FileCacheAlignmentTest, CapacityRoundsDownToWholeBlocks) {
  FileCache cache(1000, /*block_size=*/512);
  EXPECT_EQ(512u, cache.stats().capacity);
  EXPECT_EQ(512u, cache.free_bytes());
}

TEST(FileCacheAlignmentTest, AllocationsRoundUpToWholeBlocks) {
  FileCache cache(4096, /*block_size=*/512);
  std::vector<std::uint32_t> evicted;
  auto a = cache.insert(1, 1, &evicted);
  ASSERT_TRUE(a.ok());
  // One byte costs one block.
  EXPECT_EQ(4096u - 512u, cache.free_bytes());
  EXPECT_EQ(512u, cache.stats().used);
  EXPECT_EQ(1u, cache.data(a.value()).size());
  EXPECT_EQ(512u, cache.padded_data(a.value()).size());
  // 513 bytes cost two blocks.
  auto b = cache.insert(2, 513, &evicted);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(4096u - 512u - 1024u, cache.free_bytes());
  EXPECT_EQ(1024u, cache.padded_data(b.value()).size());
}

TEST(FileCacheAlignmentTest, PaddedSizeDecidesTooLarge) {
  FileCache cache(1024, /*block_size=*/512);
  std::vector<std::uint32_t> evicted;
  // 1025 bytes pad to 3 blocks > 2-block capacity.
  EXPECT_CODE(too_large, cache.insert(1, 1025, &evicted));
  EXPECT_TRUE(cache.insert(1, 1024, &evicted).ok());
}

TEST(FileCacheAlignmentTest, ZeroSizeFileOccupiesNoBlocks) {
  FileCache cache(1024, /*block_size=*/512);
  std::vector<std::uint32_t> evicted;
  auto a = cache.insert(1, 0, &evicted);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(0u, cache.data(a.value()).size());
  EXPECT_EQ(0u, cache.padded_data(a.value()).size());
  EXPECT_EQ(1024u, cache.free_bytes());
  cache.remove(a.value());
  EXPECT_FALSE(cache.contains(a.value()));
}

TEST(FileCacheAlignmentTest, PaddingTailIsZeroedOnRecycledSpace) {
  FileCache cache(512, /*block_size=*/512);
  std::vector<std::uint32_t> evicted;
  // Dirty the whole block, then release it.
  auto a = cache.insert(1, 512, &evicted);
  ASSERT_TRUE(a.ok());
  std::memset(cache.mutable_data(a.value()).data(), 0xAB, 512);
  cache.remove(a.value());
  // A short entry reusing that space must see zeroed padding.
  auto b = cache.insert(2, 100, &evicted);
  ASSERT_TRUE(b.ok());
  const ByteSpan padded = cache.padded_data(b.value());
  ASSERT_EQ(512u, padded.size());
  for (std::size_t i = 100; i < padded.size(); ++i) {
    ASSERT_EQ(0u, padded[i]) << "padding byte " << i;
  }
}

TEST(FileCacheAlignmentTest, EvictionToFitPreservesAlignment) {
  FileCache cache(2048, /*block_size=*/512);
  std::vector<std::uint32_t> evicted;
  auto a = cache.insert(1, 300, &evicted);  // block 0
  auto b = cache.insert(2, 300, &evicted);  // block 1
  auto c = cache.insert(3, 300, &evicted);  // block 2
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  // Dirty a's whole block, padding included, so its reuse must re-zero.
  std::memset(cache.mutable_padded_data(a.value()).data(), 0xAB, 512);
  fill(cache, c.value(), payload(300, 3));
  const auto* c_addr = cache.data(c.value()).data();
  cache.remove(b.value());
  // Two blocks free but split 1+1: a two-block insert evicts a, the LRU
  // entry, and lands on blocks 0-1.
  auto d = cache.insert(4, 700, &evicted);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(std::vector<std::uint32_t>{1}, evicted);
  EXPECT_EQ(c_addr, cache.data(c.value()).data());
  EXPECT_TRUE(equal(payload(300, 3), cache.data(c.value())));
  // Entries sit on block boundaries, and the padding tails read as zero.
  const ByteSpan padded = cache.padded_data(d.value());
  ASSERT_EQ(1024u, padded.size());
  EXPECT_EQ(c_addr - 1024, padded.data());
  for (std::size_t i = 700; i < padded.size(); ++i) {
    ASSERT_EQ(0u, padded[i]) << "padding byte " << i;
  }
  EXPECT_EQ(512u, cache.padded_data(c.value()).size());
}

// --- O(1) LRU ----------------------------------------------------------------

TEST(FileCacheLruTest, EvictScansAreConstantPerEviction) {
  FileCache cache(1000);
  std::vector<std::uint32_t> evicted;
  // 10 live entries, then force 5 evictions; an age scan would examine
  // ~10 rnodes per eviction, the recency list exactly one.
  for (std::uint32_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(cache.insert(i, 100, &evicted).ok());
  }
  ASSERT_TRUE(evicted.empty());
  ASSERT_TRUE(cache.insert(11, 500, &evicted).ok());
  EXPECT_EQ(5u, evicted.size());
  EXPECT_EQ(5u, cache.stats().evictions);
  EXPECT_EQ(cache.stats().evictions, cache.stats().evict_scans);
}

// Property: the intrusive recency list evicts in exactly the order the old
// age-field scan did. The model replays the same operations against a
// shadow age table and scans for the minimum, as file_cache.cc used to.
TEST(FileCacheLruTest, MatchesAgeScanModel) {
  constexpr std::uint32_t kEntryBytes = 64;
  constexpr std::uint32_t kSlots = 16;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    FileCache cache(kEntryBytes * kSlots);
    std::map<std::uint32_t, std::uint64_t> age_of;  // inode -> age (model)
    std::map<std::uint32_t, RnodeIndex> rnode_of;   // inode -> handle
    std::uint64_t next_age = 1;
    std::uint32_t next_inode = 1;
    Rng rng(seed);

    auto model_evict_order = [&](std::size_t n) {
      std::vector<std::uint32_t> order;
      auto ages = age_of;
      while (order.size() < n && !ages.empty()) {
        auto victim = ages.begin();
        for (auto it = ages.begin(); it != ages.end(); ++it) {
          if (it->second < victim->second) victim = it;
        }
        order.push_back(victim->first);
        ages.erase(victim);
      }
      return order;
    };

    for (int step = 0; step < 500; ++step) {
      const std::uint32_t pick = rng.next_below(100);
      if (pick < 50 || age_of.empty()) {
        // Insert: may evict any number of LRU victims.
        const std::uint32_t inode = next_inode++;
        // 1..4 entry-sized units so inserts evict varying victim counts.
        const std::uint32_t size =
            kEntryBytes * (1 + rng.next_below(4));
        const std::size_t max_evictions = age_of.size();
        std::vector<std::uint32_t> evicted;
        auto index = cache.insert(inode, size, &evicted);
        ASSERT_TRUE(index.ok());
        const auto expected = model_evict_order(max_evictions);
        ASSERT_LE(evicted.size(), expected.size());
        for (std::size_t i = 0; i < evicted.size(); ++i) {
          ASSERT_EQ(expected[i], evicted[i])
              << "seed " << seed << " step " << step << " eviction " << i;
          age_of.erase(evicted[i]);
          rnode_of.erase(evicted[i]);
        }
        age_of[inode] = next_age++;
        rnode_of[inode] = index.value();
      } else if (pick < 80) {
        // Touch a random live entry.
        auto it = rnode_of.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.next_below(rnode_of.size())));
        cache.touch(it->second);
        age_of[it->first] = next_age++;
      } else {
        // Remove a random live entry.
        auto it = rnode_of.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.next_below(rnode_of.size())));
        cache.remove(it->second);
        age_of.erase(it->first);
        rnode_of.erase(it);
      }
    }
  }
}

TEST(FileCacheTest, AgeOrderingAcrossManyTouches) {
  FileCache cache(300);
  std::vector<std::uint32_t> evicted;
  auto a = cache.insert(1, 100, &evicted);
  auto b = cache.insert(2, 100, &evicted);
  auto c = cache.insert(3, 100, &evicted);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  // Rotate recency: a, then b, so c is the oldest.
  cache.touch(a.value());
  cache.touch(b.value());
  auto d = cache.insert(4, 100, &evicted);
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(1u, evicted.size());
  EXPECT_EQ(3u, evicted[0]);
}

}  // namespace
}  // namespace bullet
