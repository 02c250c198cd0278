// Tests for client-side caching of immutable files.
#include <gtest/gtest.h>

#include "bullet/caching_client.h"
#include "dir/server.h"
#include "tests/test_util.h"

namespace bullet {
namespace {

using testing::BulletHarness;
using testing::payload;
using testing::status_of;

class CachingClientTest : public ::testing::Test {
 protected:
  CachingClientTest() {
    EXPECT_TRUE(transport_.register_service(&h_.server()).ok());
    BulletClient storage(&transport_, h_.server().super_capability());
    auto server = dir::DirServer::start(storage, dir::DirConfig());
    EXPECT_TRUE(server.ok());
    dir_server_ = std::move(server).value();
    EXPECT_TRUE(transport_.register_service(dir_server_.get()).ok());

    auto root = dir_server_->create_dir();
    EXPECT_TRUE(root.ok());
    root_ = root.value_or(Capability{});
    client_ = std::make_unique<CachingBulletClient>(
        BulletClient(&transport_, h_.server().super_capability()),
        dir::DirClient(&transport_, dir_server_->super_capability()),
        /*capacity_bytes=*/64 * 1024);
  }

  std::uint64_t server_reads() {
    return testing::metric(h_.server(), "bullet_reads_total");
  }

  BulletHarness h_;
  rpc::LoopbackTransport transport_;
  std::unique_ptr<dir::DirServer> dir_server_;
  Capability root_;
  std::unique_ptr<CachingBulletClient> client_;
};

TEST_F(CachingClientTest, RepeatReadsSkipTheNetwork) {
  auto cap = client_->underlying().create(payload(5000, 1), 1);
  ASSERT_TRUE(cap.ok());
  const auto reads0 = server_reads();
  for (int i = 0; i < 5; ++i) {
    auto data = client_->read(cap.value());
    ASSERT_TRUE(data.ok());
    EXPECT_TRUE(equal(payload(5000, 1), data.value()));
  }
  // Only the first read reached the server.
  EXPECT_EQ(reads0 + 1, server_reads());
  EXPECT_EQ(4u, client_->stats().hits);
  EXPECT_EQ(1u, client_->stats().misses);
}

TEST_F(CachingClientTest, CreatePopulatesCache) {
  auto cap = client_->create(payload(800, 2), 1);
  ASSERT_TRUE(cap.ok());
  const auto reads0 = server_reads();
  ASSERT_TRUE(client_->read(cap.value()).ok());
  EXPECT_EQ(reads0, server_reads());  // zero server reads
}

TEST_F(CachingClientTest, NameValidationDetectsNewVersion) {
  auto v1 = client_->create(as_span("v1"), 1);
  ASSERT_TRUE(v1.ok());
  dir::DirClient names(&transport_, dir_server_->super_capability());
  ASSERT_OK(names.enter(root_, "doc", v1.value()));

  // First named read: validation + cache fill.
  EXPECT_EQ("v1", to_string(client_->read_name(root_, "doc").value()));
  // Second: validation (cheap) + cache hit (no file transfer).
  const auto reads0 = server_reads();
  EXPECT_EQ("v1", to_string(client_->read_name(root_, "doc").value()));
  EXPECT_EQ(reads0, server_reads());

  // Publish v2 under the same name; the next named read must see it.
  auto v2 = client_->create(as_span("v2"), 1);
  ASSERT_TRUE(v2.ok());
  ASSERT_TRUE(names.replace(root_, "doc", v2.value()).ok());
  EXPECT_EQ("v2", to_string(client_->read_name(root_, "doc").value()));
  EXPECT_EQ(3u, client_->stats().validations);
}

TEST_F(CachingClientTest, EraseDropsCachedCopy) {
  auto cap = client_->create(payload(100, 3), 1);
  ASSERT_TRUE(cap.ok());
  ASSERT_OK(client_->erase(cap.value()));
  EXPECT_CODE(no_such_object, status_of(client_->read(cap.value())));
  EXPECT_EQ(0u, client_->bytes_cached());
}

TEST_F(CachingClientTest, CapacityEnforcedWithLru) {
  // 64 KB capacity; three 30 KB files cannot all stay.
  std::vector<Capability> caps;
  for (int i = 0; i < 3; ++i) {
    auto cap = client_->underlying().create(payload(30 * 1024, i), 1);
    ASSERT_TRUE(cap.ok());
    caps.push_back(cap.value());
  }
  ASSERT_TRUE(client_->read(caps[0]).ok());  // miss, cached
  ASSERT_TRUE(client_->read(caps[1]).ok());  // miss, cached
  ASSERT_TRUE(client_->read(caps[0]).ok());  // hit (refresh LRU)
  ASSERT_TRUE(client_->read(caps[2]).ok());  // miss, evicts caps[1]
  EXPECT_GT(client_->stats().evictions, 0u);
  const auto reads0 = server_reads();
  ASSERT_TRUE(client_->read(caps[0]).ok());  // still cached
  EXPECT_EQ(reads0, server_reads());
  ASSERT_TRUE(client_->read(caps[1]).ok());  // was evicted -> server read
  EXPECT_EQ(reads0 + 1, server_reads());
  EXPECT_LE(client_->bytes_cached(), 64u * 1024);
}

TEST_F(CachingClientTest, OversizedObjectsBypassCache) {
  auto cap = client_->underlying().create(payload(100 * 1024, 9), 1);
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(client_->read(cap.value()).ok());
  EXPECT_EQ(0u, client_->bytes_cached());  // never admitted
  ASSERT_TRUE(client_->read(cap.value()).ok());
  EXPECT_EQ(2u, client_->stats().misses);
}

TEST_F(CachingClientTest, ClearEmptiesEverything) {
  auto cap = client_->create(payload(1000, 4), 1);
  ASSERT_TRUE(cap.ok());
  EXPECT_GT(client_->bytes_cached(), 0u);
  client_->clear();
  EXPECT_EQ(0u, client_->bytes_cached());
  const auto reads0 = server_reads();
  ASSERT_TRUE(client_->read(cap.value()).ok());
  EXPECT_EQ(reads0 + 1, server_reads());
}

TEST_F(CachingClientTest, DistinctRightsAreDistinctKeys) {
  // Two capabilities for the same object but different sealed rights are
  // different cache keys (conservative; both still read correctly).
  auto cap = client_->underlying().create(payload(64, 5), 1);
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(client_->read(cap.value()).ok());
  Capability other = cap.value();
  other.rights = rights::kRead;
  other.check ^= 0xF;  // not properly sealed: the server must refuse
  EXPECT_FALSE(client_->read(other).ok());
}

}  // namespace
}  // namespace bullet
