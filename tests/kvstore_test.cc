// Tests for the sharded key-value store over immutable Bullet files.
#include <gtest/gtest.h>

#include <map>

#include "dir/server.h"
#include "kvstore/kv_store.h"
#include "tests/test_util.h"

namespace bullet::kvstore {
namespace {

using ::bullet::testing::BulletHarness;
using ::bullet::testing::payload;
using ::bullet::testing::status_of;

class KvStoreTest : public ::testing::Test {
 protected:
  KvStoreTest() {
    EXPECT_TRUE(transport_.register_service(&h_.server()).ok());
    BulletClient storage(&transport_, h_.server().super_capability());
    auto server = dir::DirServer::start(storage, dir::DirConfig());
    EXPECT_TRUE(server.ok());
    dir_server_ = std::move(server).value();
    EXPECT_TRUE(transport_.register_service(dir_server_.get()).ok());
    auto dir = dir_server_->create_dir();
    EXPECT_TRUE(dir.ok());
    dir_ = dir.value_or(Capability{});
  }

  BulletClient files() {
    return BulletClient(&transport_, h_.server().super_capability());
  }
  dir::DirClient names() {
    return dir::DirClient(&transport_, dir_server_->super_capability());
  }

  Result<KvStore> make(std::uint32_t buckets = 8) {
    KvConfig config;
    config.buckets = buckets;
    return KvStore::create(files(), names(), dir_, config);
  }

  BulletHarness h_;
  rpc::LoopbackTransport transport_;
  std::unique_ptr<dir::DirServer> dir_server_;
  Capability dir_;
};

TEST_F(KvStoreTest, PutGetEraseRoundtrip) {
  auto store = make();
  ASSERT_TRUE(store.ok());
  ASSERT_OK(store.value().put("alpha", as_span("1")));
  ASSERT_OK(store.value().put("beta", as_span("2")));
  auto got = store.value().get("alpha");
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got.value().has_value());
  EXPECT_EQ("1", to_string(*got.value()));
  EXPECT_FALSE(store.value().get("gamma").value().has_value());
  ASSERT_OK(store.value().erase("alpha"));
  EXPECT_FALSE(store.value().get("alpha").value().has_value());
  EXPECT_CODE(not_found, store.value().erase("alpha"));
}

TEST_F(KvStoreTest, OverwriteReplacesValue) {
  auto store = make();
  ASSERT_TRUE(store.ok());
  ASSERT_OK(store.value().put("k", as_span("old")));
  ASSERT_OK(store.value().put("k", as_span("new")));
  EXPECT_EQ("new", to_string(*store.value().get("k").value()));
  EXPECT_EQ(1u, store.value().size().value());
}

TEST_F(KvStoreTest, KeysAreSortedAcrossBuckets) {
  auto store = make(4);
  ASSERT_TRUE(store.ok());
  for (const char* key : {"pear", "apple", "fig", "date", "cherry"}) {
    ASSERT_OK(store.value().put(key, as_span(key)));
  }
  auto keys = store.value().keys();
  ASSERT_TRUE(keys.ok());
  ASSERT_EQ(5u, keys.value().size());
  EXPECT_EQ("apple", keys.value().front());
  EXPECT_EQ("pear", keys.value().back());
  EXPECT_TRUE(std::is_sorted(keys.value().begin(), keys.value().end()));
}

TEST_F(KvStoreTest, EmptyKeyRejected) {
  auto store = make();
  ASSERT_TRUE(store.ok());
  EXPECT_CODE(bad_argument, store.value().put("", as_span("x")));
}

TEST_F(KvStoreTest, OnlyTheTouchedBucketIsRewritten) {
  // The whole point of sharding: a put rewrites one small bucket file, not
  // the whole database.
  auto store = make(8);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_OK(store.value().put("key" + std::to_string(i),
                                payload(500, i)));
  }
  const auto creates_before =
      testing::metric(h_.server(), "bullet_creates_total");
  ASSERT_OK(store.value().put("one-more", as_span("v")));
  // Exactly one new bucket version (the CAS swap is a directory write,
  // which itself creates one directory-version file).
  EXPECT_LE(
      testing::metric(h_.server(), "bullet_creates_total") - creates_before,
      2u);
}

TEST_F(KvStoreTest, OpenRediscoversBucketCount) {
  {
    auto store = make(5);
    ASSERT_TRUE(store.ok());
    ASSERT_OK(store.value().put("persist", as_span("me")));
  }
  auto reopened = KvStore::open(files(), names(), dir_, KvConfig());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(5u, reopened.value().bucket_count());
  EXPECT_EQ("me", to_string(*reopened.value().get("persist").value()));
}

TEST_F(KvStoreTest, OpenFailsOnEmptyDirectory) {
  auto empty_dir = dir_server_->create_dir();
  ASSERT_TRUE(empty_dir.ok());
  EXPECT_CODE(not_found, status_of(KvStore::open(files(), names(),
                                                 empty_dir.value(),
                                                 KvConfig())));
}

TEST_F(KvStoreTest, ConflictingWritersRetryTransparently) {
  // Two handles to the same store: interleaved writes to the same bucket
  // must both land, with the loser retrying via CAS.
  auto a = make(1);  // one bucket: every write collides on it
  ASSERT_TRUE(a.ok());
  auto b = KvStore::open(files(), names(), dir_, KvConfig());
  ASSERT_TRUE(b.ok());

  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(a.value().put("a" + std::to_string(i), as_span("A")));
    ASSERT_OK(b.value().put("b" + std::to_string(i), as_span("B")));
  }
  // Each handle cached no state: all 20 keys visible from both.
  EXPECT_EQ(20u, a.value().size().value());
  EXPECT_EQ(20u, b.value().size().value());
}

TEST_F(KvStoreTest, VersionsAreRetired) {
  // Bucket churn must not leak Bullet files: live files stay bounded by
  // buckets + directory backing + snapshot-free overhead.
  auto store = make(4);
  ASSERT_TRUE(store.ok());
  const auto base = h_.server().live_files();
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(store.value().put("k" + std::to_string(i % 7), payload(64, i)));
  }
  // Only current bucket versions remain (4), not one file per put.
  EXPECT_EQ(base, h_.server().live_files());
}

TEST_F(KvStoreTest, GenuineCasConflictIsRetried) {
  // Force a real lost-update race: another writer publishes to the same
  // bucket between our load and our publish (via the test hook). The first
  // attempt must lose the CAS; the retry must succeed and keep BOTH
  // writes.
  KvConfig config;
  config.buckets = 1;
  int interferences = 0;
  auto victim_config = config;
  auto store = KvStore::create(files(), names(), dir_, config);
  ASSERT_TRUE(store.ok());
  auto intruder = KvStore::open(files(), names(), dir_, KvConfig());
  ASSERT_TRUE(intruder.ok());

  victim_config.before_publish = [&]() {
    if (interferences++ == 0) {
      ASSERT_OK(intruder.value().put("intruder", as_span("I")));
    }
  };
  auto victim = KvStore::open(files(), names(), dir_, victim_config);
  ASSERT_TRUE(victim.ok());

  ASSERT_OK(victim.value().put("victim", as_span("V")));
  EXPECT_EQ(1u, victim.value().cas_conflicts());
  EXPECT_EQ(2, interferences);  // hook ran on both attempts
  // Both updates survived the race.
  EXPECT_EQ("V", to_string(*victim.value().get("victim").value()));
  EXPECT_EQ("I", to_string(*victim.value().get("intruder").value()));
}

TEST_F(KvStoreTest, GivesUpAfterMaxRetries) {
  KvConfig config;
  config.buckets = 1;
  auto store = KvStore::create(files(), names(), dir_, config);
  ASSERT_TRUE(store.ok());
  auto intruder = KvStore::open(files(), names(), dir_, KvConfig());
  ASSERT_TRUE(intruder.ok());

  KvConfig hostile = config;
  hostile.max_retries = 3;
  int hits = 0;
  hostile.before_publish = [&]() {
    ++hits;  // interfere on EVERY attempt
    ASSERT_OK(intruder.value().put("noise" + std::to_string(hits),
                                   as_span("n")));
  };
  auto victim = KvStore::open(files(), names(), dir_, hostile);
  ASSERT_TRUE(victim.ok());
  EXPECT_CODE(conflict, victim.value().put("never", as_span("x")));
  EXPECT_EQ(3, hits);
}

TEST_F(KvStoreTest, RandomOpsMatchOracle) {
  auto store = make(8);
  ASSERT_TRUE(store.ok());
  std::map<std::string, Bytes> oracle;
  Rng rng(61);
  for (int step = 0; step < 300; ++step) {
    const std::string key = "k" + std::to_string(rng.next_below(30));
    const std::uint64_t dice = rng.next_below(100);
    if (dice < 45) {
      Bytes value(rng.next_below(800));
      rng.fill(value);
      ASSERT_OK(store.value().put(key, value));
      oracle[key] = std::move(value);
    } else if (dice < 80) {
      auto got = store.value().get(key);
      ASSERT_TRUE(got.ok());
      const auto expected = oracle.find(key);
      if (expected == oracle.end()) {
        EXPECT_FALSE(got.value().has_value()) << key;
      } else {
        ASSERT_TRUE(got.value().has_value()) << key;
        EXPECT_TRUE(equal(expected->second, *got.value())) << key;
      }
    } else {
      const Status st = store.value().erase(key);
      if (oracle.erase(key) > 0) {
        EXPECT_OK(st);
      } else {
        EXPECT_CODE(not_found, st);
      }
    }
  }
  EXPECT_EQ(oracle.size(), store.value().size().value());
  auto keys = store.value().keys();
  ASSERT_TRUE(keys.ok());
  ASSERT_EQ(oracle.size(), keys.value().size());
  auto it = oracle.begin();
  for (const auto& key : keys.value()) {
    EXPECT_EQ(it->first, key);
    ++it;
  }
}

}  // namespace
}  // namespace bullet::kvstore
