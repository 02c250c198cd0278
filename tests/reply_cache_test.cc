// The UDP server's retransmit-suppression cache: bounded by entries AND by
// bytes, FIFO eviction, newest entry always retained.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "rpc/udp_transport.h"
#include "tests/test_util.h"

namespace bullet::rpc {
namespace {

std::shared_ptr<const Bytes> reply_of(std::size_t n, std::uint8_t fill) {
  return std::make_shared<const Bytes>(Bytes(n, fill));
}

TEST(ReplyCacheTest, FindReturnsInserted) {
  ReplyCache cache(/*max_entries=*/4, /*max_bytes=*/1 << 20);
  cache.insert(1, 100, reply_of(10, 0xAA));
  const auto hit = cache.find(1, 100);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 10u);
  EXPECT_EQ((*hit)[0], 0xAA);
  EXPECT_EQ(cache.find(1, 101), nullptr);
  EXPECT_EQ(cache.find(2, 100), nullptr);
}

TEST(ReplyCacheTest, EntryBoundEvictsOldestFirst) {
  ReplyCache cache(/*max_entries=*/3, /*max_bytes=*/1 << 20);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    cache.insert(7, id, reply_of(8, static_cast<std::uint8_t>(id)));
  }
  // FIFO: 1 and 2 evicted, 3..5 retained.
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_EQ(cache.find(7, 1), nullptr);
  EXPECT_EQ(cache.find(7, 2), nullptr);
  EXPECT_NE(cache.find(7, 3), nullptr);
  EXPECT_NE(cache.find(7, 5), nullptr);
}

TEST(ReplyCacheTest, ByteBoundEvictsBeforeEntryBound) {
  // Entry bound alone would admit 128 replies; 1 KB of budget admits four
  // 256-byte replies at most. This is the regression the bound exists for:
  // large borrowed-payload replies must not accumulate unbounded bytes.
  ReplyCache cache(/*max_entries=*/128, /*max_bytes=*/1024);
  for (std::uint64_t id = 1; id <= 10; ++id) {
    cache.insert(7, id, reply_of(256, static_cast<std::uint8_t>(id)));
  }
  EXPECT_EQ(cache.entries(), 4u);
  EXPECT_EQ(cache.bytes(), 1024u);
  EXPECT_EQ(cache.evictions(), 6u);
  EXPECT_EQ(cache.find(7, 6), nullptr);
  EXPECT_NE(cache.find(7, 7), nullptr);
  EXPECT_NE(cache.find(7, 10), nullptr);
}

TEST(ReplyCacheTest, OversizedNewestEntryIsKept) {
  // A single reply larger than the whole byte budget still caches: the
  // server must be able to answer the retransmit of the request it just
  // executed, or at-most-once degrades to at-least-once under loss.
  ReplyCache cache(/*max_entries=*/8, /*max_bytes=*/100);
  cache.insert(1, 1, reply_of(50, 1));
  cache.insert(1, 2, reply_of(500, 2));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.find(1, 1), nullptr);
  ASSERT_NE(cache.find(1, 2), nullptr);
  EXPECT_EQ(cache.find(1, 2)->size(), 500u);
  // The next small insert evicts the oversized one.
  cache.insert(1, 3, reply_of(10, 3));
  EXPECT_EQ(cache.find(1, 2), nullptr);
  EXPECT_NE(cache.find(1, 3), nullptr);
  EXPECT_EQ(cache.bytes(), 10u);
}

TEST(ReplyCacheTest, DuplicateInsertIsIgnored) {
  ReplyCache cache(4, 1 << 20);
  cache.insert(1, 1, reply_of(10, 1));
  cache.insert(1, 1, reply_of(99, 2));  // retransmit raced with execution
  ASSERT_NE(cache.find(1, 1), nullptr);
  EXPECT_EQ(cache.find(1, 1)->size(), 10u);
  EXPECT_EQ(cache.bytes(), 10u);
}

TEST(ReplyCacheTest, FoundReplySurvivesConcurrentEviction) {
  // find() hands out a shared_ptr; the bytes must stay valid even after
  // eviction drops the cache's own reference.
  ReplyCache cache(/*max_entries=*/1, /*max_bytes=*/1 << 20);
  cache.insert(1, 1, reply_of(64, 0x5A));
  const auto held = cache.find(1, 1);
  ASSERT_NE(held, nullptr);
  cache.insert(1, 2, reply_of(64, 0xA5));  // evicts id 1
  EXPECT_EQ(cache.find(1, 1), nullptr);
  EXPECT_EQ(held->size(), 64u);
  EXPECT_EQ((*held)[63], 0x5A);
}

TEST(ReplyCacheTest, ConcurrentInsertFindIsSafe) {
  ReplyCache cache(/*max_entries=*/16, /*max_bytes=*/4096);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (std::uint64_t i = 0; i < 500; ++i) {
        cache.insert(static_cast<std::uint64_t>(t), i,
                     reply_of(64, static_cast<std::uint8_t>(i)));
        const auto hit = cache.find(static_cast<std::uint64_t>(t), i);
        if (hit != nullptr) {
          // Entry may already be evicted by other threads' inserts, but a
          // found reply is always intact.
          EXPECT_EQ(hit->size(), 64u);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_LE(cache.entries(), 16u);
  EXPECT_LE(cache.bytes(), 4096u + 64u);
}

}  // namespace
}  // namespace bullet::rpc
