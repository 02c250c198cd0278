// Regression tests for the zero-copy read/create hot path: borrowed-payload
// replies, the bytes_copied / scratch_allocs / evict_scans cost counters,
// and wire compatibility of the gathered encoding.
#include <gtest/gtest.h>

#include <vector>

#include "bullet/client.h"
#include "bullet/server.h"
#include "common/crc.h"
#include "tests/test_util.h"

namespace bullet {
namespace {

using testing::BulletHarness;
using testing::payload;

// A cache-hit READ must not stage payload bytes through any temporary
// buffer: the reply borrows straight from the cache arena.
TEST(ZeroCopyTest, CacheHitReadCopiesNothing) {
  BulletHarness h;
  rpc::LoopbackTransport transport;
  ASSERT_OK(transport.register_service(&h.server()));
  BulletClient client(&transport, h.server().super_capability());

  const Bytes data = payload(64 << 10, 7);
  auto cap = client.create(data, 2);
  ASSERT_TRUE(cap.ok());

  for (int i = 0; i < 8; ++i) {
    auto got = client.read(cap.value());
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(crc32c(data), crc32c(got.value()));
  }

  auto stats = client.stats_text();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(8u, testing::metric(stats.value(), "bullet_cache_hits_total"));
  EXPECT_EQ(0u, testing::metric(stats.value(), "bullet_cache_misses_total"));
  // Create ingests straight into the arena and read replies borrow from
  // it, so the server staged zero payload bytes end to end.
  EXPECT_EQ(0u, testing::metric(stats.value(), "bullet_bytes_copied_total"));
  EXPECT_EQ(0u, testing::metric(stats.value(), "bullet_scratch_allocs_total"));
}

// The raw reply for READ carries the 4-byte length prefix as owned bytes
// and the file itself as a borrowed segment referencing the cache arena.
TEST(ZeroCopyTest, ReadReplyBorrowsFromCacheArena) {
  BulletHarness h;
  rpc::LoopbackTransport transport;
  ASSERT_OK(transport.register_service(&h.server()));
  BulletClient client(&transport, h.server().super_capability());

  const Bytes data = payload(3000, 11);
  auto cap = client.create(data, 2);
  ASSERT_TRUE(cap.ok());

  rpc::Request req;
  req.target = cap.value();
  req.opcode = wire::kRead;
  rpc::Reply reply = h.server().handle(req);
  ASSERT_EQ(ErrorCode::ok, reply.status);
  EXPECT_EQ(4u, reply.body.size());  // owned part is just the length prefix
  ASSERT_EQ(1u, reply.segments.size());
  ASSERT_EQ(data.size(), reply.segments[0].size());
  EXPECT_TRUE(equal(data, reply.segments[0]));
  EXPECT_EQ(2u + 4u + 4u + data.size(), reply.wire_size());
}

// Gathering a borrowed reply onto the wire produces bytes identical to the
// old flat (fully owned) encoding, so UDP peers and golden files are
// unaffected by the representation change.
TEST(ZeroCopyTest, BorrowedEncodeMatchesFlatEncode) {
  const Bytes data = payload(777, 3);
  Writer flat(4 + data.size());
  flat.u32(static_cast<std::uint32_t>(data.size()));
  flat.bytes(data);
  const rpc::Reply owned = rpc::Reply::success(std::move(flat).take());

  Writer header(4);
  header.u32(static_cast<std::uint32_t>(data.size()));
  const rpc::Reply borrowed =
      rpc::Reply::success_borrowed(std::move(header).take(), data);

  EXPECT_EQ(owned.payload_size(), borrowed.payload_size());
  EXPECT_EQ(owned.wire_size(), borrowed.wire_size());
  const Bytes wire_owned = owned.encode();
  const Bytes wire_borrowed = borrowed.encode();
  EXPECT_EQ(wire_owned.size(), borrowed.wire_size());
  EXPECT_TRUE(equal(wire_owned, wire_borrowed));

  // And the decoded form is a flat reply again.
  auto decoded = rpc::Reply::decode(wire_borrowed);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(ErrorCode::ok, decoded.value().status);
  EXPECT_TRUE(decoded.value().segments.empty());
  EXPECT_EQ(owned.body.size(), decoded.value().body.size());
  EXPECT_TRUE(equal(owned.body, decoded.value().body));
}

// take_payload() materializes body + segments in order; with no segments it
// must move the body, not copy it.
TEST(ZeroCopyTest, TakePayloadConcatenatesSegments) {
  const Bytes part1 = payload(10, 1);
  const Bytes part2 = payload(20, 2);
  rpc::Reply reply;
  reply.body = part1;
  reply.segments.push_back(part2);
  Bytes all = std::move(reply).take_payload();
  ASSERT_EQ(30u, all.size());
  EXPECT_TRUE(equal(part1, ByteSpan(all).first(10)));
  EXPECT_TRUE(equal(part2, ByteSpan(all).subspan(10)));

  rpc::Reply flat;
  flat.body = part1;
  const std::uint8_t* before = flat.body.data();
  Bytes moved = std::move(flat).take_payload();
  EXPECT_EQ(before, moved.data());  // moved, not reallocated
}

// Eviction must examine exactly one rnode per victim (intrusive LRU list),
// not scan the whole table.
TEST(ZeroCopyTest, EvictionExaminesOneRnodePerVictim) {
  BulletHarness::Options options;
  options.cache_bytes = 64 << 10;  // small cache to force eviction churn
  BulletHarness h(options);
  rpc::LoopbackTransport transport;
  ASSERT_OK(transport.register_service(&h.server()));
  BulletClient client(&transport, h.server().super_capability());

  std::vector<Capability> caps;
  for (std::uint64_t i = 0; i < 40; ++i) {
    auto cap = client.create(payload(8 << 10, i + 1), 2);
    ASSERT_TRUE(cap.ok());
    caps.push_back(cap.value());
  }
  // Re-read a few old files to force miss -> insert -> evict cycles.
  for (std::size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.read(caps[i]).ok());
  }

  auto stats = client.stats_text();
  ASSERT_TRUE(stats.ok());
  ASSERT_GT(testing::metric(stats.value(), "bullet_cache_evictions_total"), 0u);
  EXPECT_EQ(testing::metric(stats.value(), "bullet_cache_evictions_total"),
            testing::metric(stats.value(), "bullet_evict_scans_total"));
  // Cache-miss reads also stay copy-free: disk blocks land directly in the
  // arena and the reply borrows them.
  EXPECT_EQ(0u, testing::metric(stats.value(), "bullet_bytes_copied_total"));
}

// READ-RANGE replies borrow a sub-span of the cached file.
TEST(ZeroCopyTest, ReadRangeBorrowsSubSpan) {
  BulletHarness h;
  rpc::LoopbackTransport transport;
  ASSERT_OK(transport.register_service(&h.server()));
  BulletClient client(&transport, h.server().super_capability());

  const Bytes data = payload(5000, 21);
  auto cap = client.create(data, 2);
  ASSERT_TRUE(cap.ok());

  rpc::Request req;
  req.target = cap.value();
  req.opcode = wire::kReadRange;
  Writer w(8);
  w.u32(1000);
  w.u32(2000);
  req.body = std::move(w).take();
  rpc::Reply reply = h.server().handle(req);
  ASSERT_EQ(ErrorCode::ok, reply.status);
  ASSERT_EQ(1u, reply.segments.size());
  ASSERT_EQ(2000u, reply.segments[0].size());
  EXPECT_TRUE(equal(ByteSpan(data).subspan(1000, 2000), reply.segments[0]));

  auto got = client.read_range(cap.value(), 1000, 2000);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(equal(ByteSpan(data).subspan(1000, 2000), got.value()));
}

}  // namespace
}  // namespace bullet
