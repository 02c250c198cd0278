// Sharded Bullet cluster: consistent-hash ring invariants, the versioned
// placement map (codec, Bullet-shard installs, directory-server home),
// client-side routing with wrong_shard self-correction, and live rebalance
// (shard add/remove, racing creates, reconcile, drain).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bullet/client.h"
#include "bullet/server.h"
#include "cluster/placement.h"
#include "cluster/rebalance.h"
#include "cluster/ring.h"
#include "cluster/routing_client.h"
#include "dir/client.h"
#include "dir/server.h"
#include "tests/test_util.h"

#ifndef BULLET_TOOL_PATH
#error "BULLET_TOOL_PATH must be defined by the build"
#endif

namespace bullet {
namespace {

using ::bullet::testing::BulletHarness;
using ::bullet::testing::payload;
using ::bullet::testing::status_of;

std::vector<std::uint32_t> ids_1_to(std::uint32_t n) {
  std::vector<std::uint32_t> ids;
  for (std::uint32_t i = 1; i <= n; ++i) ids.push_back(i);
  return ids;
}

// --- ring invariants ----------------------------------------------------

TEST(RingTest, DeterministicAcrossInstances) {
  const cluster::Ring a(ids_1_to(7));
  const cluster::Ring b(ids_1_to(7));
  for (std::uint32_t object = 1; object <= 4096; ++object) {
    ASSERT_EQ(a.owner_of(object), b.owner_of(object));
  }
}

TEST(RingTest, RoughlyBalanced) {
  const std::uint32_t kShards = 8;
  const std::uint32_t kObjects = 10000;
  const cluster::Ring ring(ids_1_to(kShards));
  std::map<std::uint32_t, std::uint32_t> owned;
  for (std::uint32_t object = 1; object <= kObjects; ++object) {
    ++owned[ring.owner_of(object)];
  }
  EXPECT_EQ(kShards, owned.size());
  // Fair share is 12.5%; vnode smoothing keeps every shard within a loose
  // band around it.
  for (const auto& [shard, count] : owned) {
    EXPECT_GT(count, kObjects / kShards / 3) << "shard " << shard;
    EXPECT_LT(count, kObjects / kShards * 3) << "shard " << shard;
  }
}

TEST(RingTest, AddingOneShardRemapsBoundedMinimalDelta) {
  const std::uint32_t kObjects = 10000;
  const cluster::Ring before(ids_1_to(4));
  const cluster::Ring after(ids_1_to(5));
  std::uint32_t moved = 0;
  for (std::uint32_t object = 1; object <= kObjects; ++object) {
    const std::uint32_t was = before.owner_of(object);
    const std::uint32_t now = after.owner_of(object);
    if (was == now) continue;
    ++moved;
    // Consistent hashing: a new shard only *steals* keys; no key moves
    // between two surviving shards.
    EXPECT_EQ(5u, now) << "object " << object << " moved " << was << "->"
                       << now;
  }
  // Expected fraction is 1/5 of the key space; allow ~1.5x slack for vnode
  // placement variance.
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, kObjects * 3 / 10);
}

TEST(RingTest, VnodeCountChangesPlacement) {
  // vnodes is part of the placement function, which is why the map carries
  // it: evaluating the same shard set at different vnode counts is a
  // different ring.
  const cluster::Ring a(ids_1_to(4), 64);
  const cluster::Ring b(ids_1_to(4), 32);
  std::uint32_t differs = 0;
  for (std::uint32_t object = 1; object <= 1000; ++object) {
    if (a.owner_of(object) != b.owner_of(object)) ++differs;
  }
  EXPECT_GT(differs, 0u);
}

// Cross-process determinism: the tool computes owners in a separate
// process; its output must match the in-process ring bit for bit.
TEST(RingTest, DeterministicAcrossProcesses) {
  const std::string capture =
      testing::unique_temp_path(".ring");
  const std::string command = std::string(BULLET_TOOL_PATH) +
                              " ring --shards 4 --sample 32 > " + capture;
  ASSERT_EQ(0, WEXITSTATUS(std::system(command.c_str())));
  std::ifstream in(capture);
  const cluster::Ring ring(ids_1_to(4));
  std::uint32_t object = 0, owner = 0, lines = 0;
  while (in >> object >> owner) {
    ++lines;
    EXPECT_EQ(ring.owner_of(object), owner) << "object " << object;
  }
  EXPECT_EQ(32u, lines);
  std::remove(capture.c_str());
}

// --- placement map codec ------------------------------------------------

cluster::PlacementMap sample_map() {
  cluster::PlacementMap map;
  map.epoch = 7;
  map.vnodes = 32;
  map.shards.push_back({1, {9001}});
  map.shards.push_back({2, {9002, 9003}});
  map.shards.push_back({5, {9005}});
  return map;
}

TEST(PlacementMapTest, EncodeDecodeRoundtrip) {
  const cluster::PlacementMap map = sample_map();
  const Bytes wire = map.encode_bytes();
  auto decoded = cluster::PlacementMap::decode_bytes(ByteSpan(wire));
  ASSERT_OK(status_of(decoded));
  EXPECT_EQ(map.epoch, decoded.value().epoch);
  EXPECT_EQ(map.vnodes, decoded.value().vnodes);
  ASSERT_EQ(map.shards.size(), decoded.value().shards.size());
  for (std::size_t i = 0; i < map.shards.size(); ++i) {
    EXPECT_EQ(map.shards[i].id, decoded.value().shards[i].id);
    EXPECT_EQ(map.shards[i].endpoints, decoded.value().shards[i].endpoints);
  }
  EXPECT_TRUE(decoded.value().has_shard(5));
  EXPECT_FALSE(decoded.value().has_shard(3));
}

TEST(PlacementMapTest, RejectsTrailingBytes) {
  Bytes wire = sample_map().encode_bytes();
  wire.push_back(0);
  EXPECT_FALSE(cluster::PlacementMap::decode_bytes(ByteSpan(wire)).ok());
}

TEST(PlacementMapTest, RejectsDuplicateShardIds) {
  cluster::PlacementMap map = sample_map();
  map.shards.push_back({2, {9999}});
  const Bytes wire = map.encode_bytes();
  EXPECT_FALSE(cluster::PlacementMap::decode_bytes(ByteSpan(wire)).ok());
}

TEST(PlacementMapTest, RejectsZeroVnodes) {
  cluster::PlacementMap map = sample_map();
  map.vnodes = 0;
  const Bytes wire = map.encode_bytes();
  EXPECT_FALSE(cluster::PlacementMap::decode_bytes(ByteSpan(wire)).ok());
}

// --- shard-side map handling --------------------------------------------

cluster::PlacementMap two_shard_map(std::uint64_t epoch) {
  cluster::PlacementMap map;
  map.epoch = epoch;
  map.shards.push_back({1, {0}});
  map.shards.push_back({2, {1}});
  return map;
}

TEST(ShardMapTest, InstallEpochDiscipline) {
  BulletHarness h;
  BulletServer& server = h.server();
  EXPECT_EQ(0u, server.placement().epoch);

  ASSERT_OK(server.install_placement(1, two_shard_map(2)));
  EXPECT_EQ(2u, server.placement().epoch);
  EXPECT_EQ(1u, server.shard_id());

  // Idempotent at the same epoch and identity...
  ASSERT_OK(server.install_placement(1, two_shard_map(2)));
  // ...but a conflicting identity or an older epoch is refused.
  EXPECT_CODE(conflict, server.install_placement(2, two_shard_map(2)));
  EXPECT_CODE(conflict, server.install_placement(1, two_shard_map(1)));
  // A map that does not list this shard cannot be installed.
  cluster::PlacementMap absent = two_shard_map(3);
  absent.shards.erase(absent.shards.begin());
  EXPECT_CODE(bad_argument, server.install_placement(1, absent));

  EXPECT_EQ(2u, testing::metric(server, "bullet_shard_epoch"));
  EXPECT_EQ(1u, testing::metric(server, "bullet_shard_id"));
  // Only installs that took effect count; the idempotent re-install above
  // was a no-op.
  EXPECT_EQ(1u, testing::metric(server, "bullet_shard_map_installs_total"));
}

TEST(ShardMapTest, WrongShardOnlyForAbsentForeignObjects) {
  BulletHarness h;
  rpc::LoopbackTransport net;
  ASSERT_OK(net.register_service(&h.server()));
  BulletClient client(&net, h.server().super_capability());

  // Files created before sharding: owned by "whoever holds them".
  std::vector<Capability> caps;
  for (int i = 0; i < 12; ++i) {
    auto cap = client.create(payload(512, 40 + i), 1);
    ASSERT_OK(status_of(cap));
    caps.push_back(cap.value());
  }

  const cluster::PlacementMap map = two_shard_map(1);
  ASSERT_OK(h.server().install_placement(1, map));
  const cluster::Ring ring = map.ring();

  // Held objects are served regardless of ring ownership: reads from the
  // old owner must stay valid mid-rebalance.
  bool saw_foreign_held = false;
  for (const Capability& cap : caps) {
    ASSERT_OK(status_of(client.read(cap)));
    if (ring.owner_of(cap.object) != 1) saw_foreign_held = true;
  }
  EXPECT_TRUE(saw_foreign_held);
  EXPECT_EQ(0u,
            testing::metric(h.server(), "bullet_wrong_shard_replies_total"));

  // An *absent* object the ring places elsewhere is a routing miss.
  std::uint32_t foreign_free = 0, local_free = 0;
  const std::uint32_t slots = h.options().inode_slots;
  for (std::uint32_t object = 1; object < slots; ++object) {
    bool held = false;
    for (const Capability& cap : caps) held = held || cap.object == object;
    if (held) continue;
    if (ring.owner_of(object) != 1 && foreign_free == 0) foreign_free = object;
    if (ring.owner_of(object) == 1 && local_free == 0) local_free = object;
  }
  ASSERT_NE(0u, foreign_free);
  ASSERT_NE(0u, local_free);

  Capability probe = caps.front();
  probe.object = foreign_free;
  EXPECT_CODE(wrong_shard, status_of(client.read(probe)));
  probe.object = local_free;
  EXPECT_CODE(no_such_object, status_of(client.read(probe)));
  EXPECT_EQ(1u,
            testing::metric(h.server(), "bullet_wrong_shard_replies_total"));
}

TEST(ShardMapTest, CreateAllocatesOnlySelfOwnedSlots) {
  BulletHarness h;
  rpc::LoopbackTransport net;
  ASSERT_OK(net.register_service(&h.server()));
  BulletClient client(&net, h.server().super_capability());

  const cluster::PlacementMap map = two_shard_map(1);
  ASSERT_OK(h.server().install_placement(1, map));
  const cluster::Ring ring = map.ring();

  for (int i = 0; i < 24; ++i) {
    auto cap = client.create(payload(256, 60 + i), 1);
    ASSERT_OK(status_of(cap));
    EXPECT_EQ(1u, ring.owner_of(cap.value().object))
        << "allocated foreign slot " << cap.value().object;
  }
}

TEST(ShardMapTest, WireInstallAndFetch) {
  BulletHarness h;
  rpc::LoopbackTransport net;
  ASSERT_OK(net.register_service(&h.server()));

  const cluster::PlacementMap map = two_shard_map(9);
  Writer install(1 + 4 + 4 + 64);
  install.u8(wire::kShardMapInstall);
  install.u32(2);
  install.blob(map.encode_bytes());
  rpc::Request request;
  request.target = h.server().super_capability();
  request.opcode = wire::kShardMap;
  request.body = std::move(install).take();
  auto reply = net.call(request);
  ASSERT_OK(status_of(reply));
  ASSERT_EQ(ErrorCode::ok, reply.value().status);
  EXPECT_EQ(2u, h.server().shard_id());

  Writer fetch(1);
  fetch.u8(wire::kShardMapFetch);
  request.body = std::move(fetch).take();
  reply = net.call(request);
  ASSERT_OK(status_of(reply));
  ASSERT_EQ(ErrorCode::ok, reply.value().status);
  Reader r(ByteSpan(reply.value().body));
  auto blob = r.blob();
  ASSERT_OK(status_of(blob));
  auto fetched = cluster::PlacementMap::decode_bytes(blob.value());
  ASSERT_OK(status_of(fetched));
  EXPECT_EQ(9u, fetched.value().epoch);

  // Without the admin right the opcode is refused.
  request.target = h.server().super_capability(rights::kRead);
  Writer fetch2(1);
  fetch2.u8(wire::kShardMapFetch);
  request.body = std::move(fetch2).take();
  reply = net.call(request);
  ASSERT_OK(status_of(reply));
  EXPECT_EQ(ErrorCode::permission, reply.value().status);
}

// --- directory-server map home ------------------------------------------

class DirMapTest : public ::testing::Test {
 protected:
  DirMapTest() {
    EXPECT_OK(net_.register_service(&h_.server()));
    BulletClient storage(&net_, h_.server().super_capability());
    auto server = dir::DirServer::start(storage, dir::DirConfig());
    EXPECT_TRUE(server.ok());
    dir_server_ = std::move(server).value();
    EXPECT_OK(net_.register_service(dir_server_.get()));
    client_ = std::make_unique<dir::DirClient>(&net_,
                                               dir_server_->super_capability());
  }

  BulletHarness h_;
  rpc::LoopbackTransport net_;
  std::unique_ptr<dir::DirServer> dir_server_;
  std::unique_ptr<dir::DirClient> client_;
};

TEST_F(DirMapTest, InstallFetchEpochDiscipline) {
  auto epoch = client_->map_epoch();
  ASSERT_OK(status_of(epoch));
  EXPECT_EQ(0u, epoch.value());

  const Bytes v2 = two_shard_map(2).encode_bytes();
  EXPECT_CODE(bad_argument, client_->install_map(0, ByteSpan(v2)));
  ASSERT_OK(client_->install_map(2, ByteSpan(v2)));

  auto fetched = client_->fetch_map();
  ASSERT_OK(status_of(fetched));
  EXPECT_EQ(2u, fetched.value().epoch);
  EXPECT_EQ(v2, fetched.value().map);

  // Idempotent re-install; conflict on regression or a different map at
  // the same epoch.
  ASSERT_OK(client_->install_map(2, ByteSpan(v2)));
  EXPECT_CODE(conflict, client_->install_map(1, ByteSpan(v2)));
  const Bytes other = two_shard_map(9).encode_bytes();
  EXPECT_CODE(conflict, client_->install_map(2, ByteSpan(other)));

  const Bytes v3 = two_shard_map(3).encode_bytes();
  ASSERT_OK(client_->install_map(3, ByteSpan(v3)));
  epoch = client_->map_epoch();
  ASSERT_OK(status_of(epoch));
  EXPECT_EQ(3u, epoch.value());
}

TEST_F(DirMapTest, MapSurvivesCheckpointRestore) {
  const Bytes v5 = two_shard_map(5).encode_bytes();
  ASSERT_OK(client_->install_map(5, ByteSpan(v5)));
  auto boot = client_->checkpoint();
  ASSERT_OK(status_of(boot));

  dir::DirConfig config;
  config.restore_from = boot.value();
  BulletClient storage(&net_, h_.server().super_capability());
  auto revived = dir::DirServer::start(storage, config);
  ASSERT_OK(status_of(revived));
  EXPECT_EQ(5u, revived.value()->map_epoch());
  EXPECT_EQ(v5, revived.value()->map_bytes());
}

TEST_F(DirMapTest, PreClusterCheckpointStillRestores) {
  // A checkpoint taken before any map was installed has no map tail; it
  // must restore cleanly with epoch 0 (append-only snapshot discipline).
  auto boot = client_->checkpoint();
  ASSERT_OK(status_of(boot));
  dir::DirConfig config;
  config.restore_from = boot.value();
  BulletClient storage(&net_, h_.server().super_capability());
  auto revived = dir::DirServer::start(storage, config);
  ASSERT_OK(status_of(revived));
  EXPECT_EQ(0u, revived.value()->map_epoch());
}

// --- cluster harness ----------------------------------------------------

BulletHarness::Options solo_disk() {
  BulletHarness::Options options;
  options.replicas = 1;
  return options;
}

// N Bullet shards sharing private port and secret (the cluster identity),
// each on its own LoopbackTransport (they answer on the same public port),
// plus a directory server for the map. The directory server's own metadata
// lives on a *separate* Bullet instance, never a cluster shard: the dir
// reaches its storage over a fixed direct connection, so its files must not
// be subject to rebalance. Endpoint tokens in ShardInfo are indexes into
// the transport array.
class ClusterHarness {
 public:
  explicit ClusterHarness(std::size_t shard_count)
      : dir_storage_(solo_disk()) {
    for (std::size_t i = 0; i < shard_count; ++i) {
      shards_.push_back(std::make_unique<BulletHarness>(solo_disk()));
      BulletConfig config;
      config.cache_bytes = 1 << 20;
      config.rng_seed = 0xC10C + 0x1111 * i;
      shards_.back()->reboot(config);
      nets_.push_back(std::make_unique<rpc::LoopbackTransport>());
      EXPECT_OK(nets_.back()->register_service(&shards_.back()->server()));
    }
    EXPECT_OK(dir_storage_net_.register_service(&dir_storage_.server()));
    BulletClient storage(&dir_storage_net_,
                         dir_storage_.server().super_capability());
    auto server = dir::DirServer::start(storage, dir::DirConfig());
    EXPECT_TRUE(server.ok());
    dir_server_ = std::move(server).value();
    EXPECT_OK(dir_net_.register_service(dir_server_.get()));
    dir_client_ = std::make_unique<dir::DirClient>(
        &dir_net_, dir_server_->super_capability());
  }

  Capability super() { return shards_[0]->server().super_capability(); }

  cluster::RoutingClient::Resolver resolver() {
    return [this](const cluster::ShardInfo& info) -> rpc::Transport* {
      if (info.endpoints.empty()) return nullptr;
      const std::uint64_t index = info.endpoints.front();
      if (index >= nets_.size()) return nullptr;
      return nets_[index].get();
    };
  }

  // Shard ids 1..n, endpoint token = transport index (id - 1).
  std::vector<cluster::ShardInfo> shard_infos(std::size_t n) {
    std::vector<cluster::ShardInfo> infos;
    for (std::size_t i = 0; i < n; ++i) {
      infos.push_back({static_cast<std::uint32_t>(i + 1), {i}});
    }
    return infos;
  }

  cluster::Rebalancer rebalancer() {
    return cluster::Rebalancer(dir_client_.get(), super(), resolver());
  }

  void bootstrap(std::size_t n) {
    cluster::PlacementMap initial;
    initial.shards = shard_infos(n);
    ASSERT_OK(rebalancer().bootstrap(std::move(initial)));
  }

  cluster::RoutingClient routing_client() {
    return cluster::RoutingClient(dir_client_.get(), super(), resolver());
  }

  BulletServer& shard(std::uint32_t id) {
    return shards_[id - 1]->server();
  }
  std::size_t shard_count() const { return shards_.size(); }
  dir::DirClient& dir() { return *dir_client_; }

  std::uint64_t total_live_files(std::size_t n) {
    std::uint64_t total = 0;
    for (std::size_t i = 1; i <= n; ++i) {
      total += shard(static_cast<std::uint32_t>(i)).live_files();
    }
    return total;
  }

 private:
  std::vector<std::unique_ptr<BulletHarness>> shards_;
  std::vector<std::unique_ptr<rpc::LoopbackTransport>> nets_;
  BulletHarness dir_storage_;
  rpc::LoopbackTransport dir_storage_net_;
  rpc::LoopbackTransport dir_net_;
  std::unique_ptr<dir::DirServer> dir_server_;
  std::unique_ptr<dir::DirClient> dir_client_;
};

// --- routed operations --------------------------------------------------

TEST(RoutingTest, CreateReadEraseAcrossShards) {
  ClusterHarness cluster(3);
  cluster.bootstrap(3);
  cluster::RoutingClient client = cluster.routing_client();
  client.enable_message_ids(0x500);

  std::vector<std::pair<Capability, Bytes>> files;
  for (int i = 0; i < 48; ++i) {
    const Bytes data = payload(200 + 37 * i, 700 + i);
    auto cap = client.create(ByteSpan(data), 1);
    ASSERT_OK(status_of(cap));
    files.push_back({cap.value(), data});
  }
  // One map fetch served every operation (the hot path never touches the
  // directory server).
  EXPECT_EQ(1u, client.map_fetches());
  EXPECT_EQ(0u, client.wrong_shard_retries());

  // Round-robin creates spread the data across every shard.
  for (std::uint32_t id = 1; id <= 3; ++id) {
    EXPECT_GT(cluster.shard(id).live_files(), 0u) << "shard " << id;
  }
  EXPECT_EQ(files.size(), cluster.total_live_files(3));

  // Every file reads back through routing, and sits where the ring says.
  for (const auto& [cap, data] : files) {
    auto back = client.read_whole(cap);
    ASSERT_OK(status_of(back));
    EXPECT_EQ(data, back.value());
    auto owner = client.shard_for(cap.object);
    ASSERT_OK(status_of(owner));
    ASSERT_OK(status_of(cluster.shard(owner.value()).read(cap)));
  }

  // Erase half; erased objects are gone, the rest remain.
  for (std::size_t i = 0; i < files.size(); i += 2) {
    ASSERT_OK(client.erase(files[i].first));
  }
  for (std::size_t i = 0; i < files.size(); ++i) {
    auto back = client.read(files[i].first);
    if (i % 2 == 0) {
      EXPECT_FALSE(back.ok());
    } else {
      ASSERT_OK(status_of(back));
    }
  }
  EXPECT_EQ(files.size() / 2, cluster.total_live_files(3));
}

TEST(RoutingTest, StaleMapResolvesInOneRefetch) {
  ClusterHarness cluster(3);
  cluster.bootstrap(2);
  cluster::RoutingClient stale = cluster.routing_client();

  std::vector<std::pair<Capability, Bytes>> files;
  for (int i = 0; i < 40; ++i) {
    const Bytes data = payload(300, 900 + i);
    auto cap = stale.create(ByteSpan(data), 1);
    ASSERT_OK(status_of(cap));
    files.push_back({cap.value(), data});
  }
  EXPECT_EQ(1u, stale.epoch());

  // Grow the cluster behind the client's back.
  auto report = cluster.rebalancer().run(cluster.shard_infos(3));
  ASSERT_OK(status_of(report));
  EXPECT_GT(report.value().planned, 0u);

  // Find a file the rebalance moved; the stale client's first read of it
  // answers wrong_shard, and exactly one map refetch self-corrects.
  const cluster::Ring before(ids_1_to(2));
  const cluster::Ring after(ids_1_to(3));
  const Capability* moved = nullptr;
  const Bytes* moved_data = nullptr;
  for (const auto& [cap, data] : files) {
    if (before.owner_of(cap.object) != after.owner_of(cap.object)) {
      moved = &cap;
      moved_data = &data;
      break;
    }
  }
  ASSERT_NE(nullptr, moved);

  const std::uint64_t fetches_before = stale.map_fetches();
  auto back = stale.read(*moved);
  ASSERT_OK(status_of(back));
  EXPECT_EQ(*moved_data, back.value());
  EXPECT_EQ(1u, stale.wrong_shard_retries());
  EXPECT_EQ(fetches_before + 1, stale.map_fetches());
  EXPECT_EQ(2u, stale.epoch());

  // Everything else reads correctly through the refreshed map too.
  for (const auto& [cap, data] : files) {
    auto again = stale.read_whole(cap);
    ASSERT_OK(status_of(again));
    EXPECT_EQ(data, again.value());
  }
}

// --- rebalance ----------------------------------------------------------

TEST(RebalanceTest, AddShardMovesDeltaAndDrains) {
  ClusterHarness cluster(3);
  cluster.bootstrap(2);
  cluster::RoutingClient client = cluster.routing_client();

  std::vector<std::pair<Capability, Bytes>> files;
  for (int i = 0; i < 120; ++i) {
    const Bytes data = payload(128 + 11 * i, 1100 + i);
    auto cap = client.create(ByteSpan(data), 1);
    ASSERT_OK(status_of(cap));
    files.push_back({cap.value(), data});
  }

  cluster::Rebalancer rebalancer = cluster.rebalancer();
  auto report = rebalancer.run(cluster.shard_infos(3));
  ASSERT_OK(status_of(report));
  // Only the ring delta moves: about a third of the objects, never most
  // of them.
  EXPECT_GT(report.value().planned, 0u);
  EXPECT_LT(report.value().planned, files.size() * 11 / 20);
  EXPECT_EQ(report.value().planned, report.value().copied);
  EXPECT_EQ(0u, report.value().conflicts);
  // Drain leaves exactly one copy of each file cluster-wide.
  EXPECT_EQ(files.size(), cluster.total_live_files(3));
  EXPECT_GT(cluster.shard(3).live_files(), 0u);

  // A fresh client (and the old one) read everything back intact.
  cluster::RoutingClient fresh = cluster.routing_client();
  for (const auto& [cap, data] : files) {
    auto a = fresh.read_whole(cap);
    ASSERT_OK(status_of(a));
    EXPECT_EQ(data, a.value());
    auto b = client.read_whole(cap);
    ASSERT_OK(status_of(b));
    EXPECT_EQ(data, b.value());
  }
  EXPECT_EQ(0u, fresh.fallback_reads());

  // Placement converged: planning the same target again finds no moves.
  auto again = rebalancer.plan(cluster.shard_infos(3));
  ASSERT_OK(status_of(again));
  EXPECT_EQ(0u, again.value().moves.size());
}

TEST(RebalanceTest, RemoveShardDrainsIt) {
  ClusterHarness cluster(3);
  cluster.bootstrap(3);
  cluster::RoutingClient client = cluster.routing_client();

  std::vector<std::pair<Capability, Bytes>> files;
  for (int i = 0; i < 90; ++i) {
    const Bytes data = payload(256, 1300 + i);
    auto cap = client.create(ByteSpan(data), 1);
    ASSERT_OK(status_of(cap));
    files.push_back({cap.value(), data});
  }
  ASSERT_GT(cluster.shard(3).live_files(), 0u);

  // Shrink to shards {1, 2}: shard 3's whole population moves off it.
  auto report = cluster.rebalancer().run(cluster.shard_infos(2));
  ASSERT_OK(status_of(report));
  EXPECT_EQ(0u, cluster.shard(3).live_files());
  EXPECT_EQ(files.size(), cluster.total_live_files(2));

  cluster::RoutingClient fresh = cluster.routing_client();
  for (const auto& [cap, data] : files) {
    auto back = fresh.read_whole(cap);
    ASSERT_OK(status_of(back));
    EXPECT_EQ(data, back.value());
  }
}

TEST(RebalanceTest, CreatesRacingTheCopyAreNeverLost) {
  ClusterHarness cluster(3);
  cluster.bootstrap(2);
  cluster::RoutingClient client = cluster.routing_client();

  std::vector<std::pair<Capability, Bytes>> files;
  for (int i = 0; i < 60; ++i) {
    const Bytes data = payload(192, 1500 + i);
    auto cap = client.create(ByteSpan(data), 1);
    ASSERT_OK(status_of(cap));
    files.push_back({cap.value(), data});
  }

  // Drive the phases by hand, injecting racing creates mid-copy: these
  // land on slots the (still-installed) old map owns, some of which the
  // new ring assigns elsewhere — the strays the reconcile pass exists for.
  cluster::Rebalancer rebalancer = cluster.rebalancer();
  auto plan = rebalancer.plan(cluster.shard_infos(3));
  ASSERT_OK(status_of(plan));
  ASSERT_OK(status_of(rebalancer.copy_step(plan.value(), 5)));

  std::vector<std::pair<Capability, Bytes>> racing;
  for (int i = 0; i < 24; ++i) {
    const Bytes data = payload(160, 1700 + i);
    auto cap = client.create(ByteSpan(data), 1);
    ASSERT_OK(status_of(cap));
    racing.push_back({cap.value(), data});
  }
  const cluster::Ring before(ids_1_to(2));
  const cluster::Ring after(ids_1_to(3));
  std::size_t expected_strays = 0;
  for (const auto& [cap, data] : racing) {
    if (before.owner_of(cap.object) != after.owner_of(cap.object)) {
      ++expected_strays;
    }
  }
  ASSERT_GT(expected_strays, 0u) << "racing creates produced no strays; "
                                    "grow the racing batch";

  while (!plan.value().copy_done()) {
    ASSERT_OK(status_of(rebalancer.copy_step(plan.value(), 8)));
  }
  ASSERT_OK(rebalancer.flip(plan.value()));

  // Post-flip, pre-reconcile: the strays still live at their old owners.
  // A client that lived through the flip finds them via its previous-map
  // fallback; a client born after the flip finds them by probing. No
  // acked object is unreadable at any point.
  for (const auto& [cap, data] : racing) {
    auto back = client.read_whole(cap);
    ASSERT_OK(status_of(back));
    EXPECT_EQ(data, back.value());
  }
  cluster::RoutingClient fresh = cluster.routing_client();
  for (const auto& [cap, data] : racing) {
    auto back = fresh.read_whole(cap);
    ASSERT_OK(status_of(back));
    EXPECT_EQ(data, back.value());
  }
  EXPECT_GT(fresh.fallback_reads(), 0u);

  auto reconciled = rebalancer.reconcile(plan.value());
  ASSERT_OK(status_of(reconciled));
  EXPECT_GE(reconciled.value(), expected_strays);
  auto drained = rebalancer.drain(plan.value());
  ASSERT_OK(status_of(drained));

  // Converged: every file exactly once, everything readable without
  // fallbacks, and a re-plan finds nothing to move.
  EXPECT_EQ(files.size() + racing.size(), cluster.total_live_files(3));
  cluster::RoutingClient after_client = cluster.routing_client();
  for (const auto& [cap, data] : files) {
    auto back = after_client.read_whole(cap);
    ASSERT_OK(status_of(back));
    EXPECT_EQ(data, back.value());
  }
  for (const auto& [cap, data] : racing) {
    auto back = after_client.read_whole(cap);
    ASSERT_OK(status_of(back));
    EXPECT_EQ(data, back.value());
  }
  EXPECT_EQ(0u, after_client.fallback_reads());
  auto replan = rebalancer.plan(cluster.shard_infos(3));
  ASSERT_OK(status_of(replan));
  EXPECT_EQ(0u, replan.value().moves.size());
}

TEST(RebalanceTest, EpochInvariantDuringFlip) {
  // client epoch <= dir epoch <= every shard's epoch, at every phase
  // boundary of a rebalance.
  ClusterHarness cluster(3);
  cluster.bootstrap(2);
  cluster::RoutingClient client = cluster.routing_client();
  ASSERT_OK(client.refresh_map());

  auto check = [&](std::uint64_t client_epoch) {
    auto dir_epoch = cluster.dir().map_epoch();
    ASSERT_OK(status_of(dir_epoch));
    EXPECT_LE(client_epoch, dir_epoch.value());
    const std::uint64_t installed_shards =
        cluster.dir().map_epoch().value() == 1 ? 2 : 3;
    for (std::uint32_t id = 1; id <= installed_shards; ++id) {
      EXPECT_LE(dir_epoch.value(), cluster.shard(id).placement().epoch);
    }
  };

  check(client.epoch());
  cluster::Rebalancer rebalancer = cluster.rebalancer();
  auto plan = rebalancer.plan(cluster.shard_infos(3));
  ASSERT_OK(status_of(plan));
  check(client.epoch());
  ASSERT_OK(status_of(
      rebalancer.copy_step(plan.value(), static_cast<std::size_t>(-1))));
  check(client.epoch());
  ASSERT_OK(rebalancer.flip(plan.value()));
  check(client.epoch());
  ASSERT_OK(client.refresh_map());
  EXPECT_EQ(2u, client.epoch());
  check(client.epoch());
}

}  // namespace
}  // namespace bullet
