// Full-stack integration: every server registered on one transport, driven
// through the public client APIs, in both real-dispatch and simulated-time
// configurations.
#include <gtest/gtest.h>

#include "bullet/client.h"
#include "bullet/server.h"
#include "common/crc.h"
#include "dir/client.h"
#include "dir/server.h"
#include "disk/sim_disk.h"
#include "kvstore/kv_store.h"
#include "logsvc/client.h"
#include "logsvc/server.h"
#include "nfsbase/client.h"
#include "nfsbase/server.h"
#include "rpc/udp_transport.h"
#include "sim/testbed.h"
#include "tests/test_util.h"
#include "unixemu/unix_fs.h"

namespace bullet {
namespace {

using testing::BulletHarness;
using testing::payload;

TEST(IntegrationTest, AllServersOnOneTransport) {
  rpc::LoopbackTransport transport;

  // Bullet.
  BulletHarness h;
  ASSERT_OK(transport.register_service(&h.server()));
  BulletClient files(&transport, h.server().super_capability());

  // Directory.
  auto dir_server = dir::DirServer::start(files, dir::DirConfig());
  ASSERT_TRUE(dir_server.ok());
  ASSERT_OK(transport.register_service(dir_server.value().get()));
  dir::DirClient names(&transport, dir_server.value()->super_capability());

  // Log.
  MemDisk log_disk(512, 2048);
  ASSERT_OK(logsvc::LogServer::format(log_disk, 16));
  auto log_server = logsvc::LogServer::start(&log_disk, logsvc::LogConfig());
  ASSERT_TRUE(log_server.ok());
  ASSERT_OK(transport.register_service(log_server.value().get()));
  logsvc::LogClient logs(&transport, log_server.value()->super_capability());

  // Baseline.
  MemDisk nfs_disk(8192, 512);
  ASSERT_OK(nfsbase::NfsServer::format(nfs_disk, 64));
  auto nfs_server = nfsbase::NfsServer::start(&nfs_disk, nfsbase::NfsConfig());
  ASSERT_TRUE(nfs_server.ok());
  ASSERT_OK(transport.register_service(nfs_server.value().get()));
  nfsbase::NfsClient nfs(&transport, nfs_server.value()->super_capability());

  // A workload that crosses all of them: store an object in Bullet, name
  // it, log the event, and mirror it into the baseline server.
  const Bytes object = payload(20000, 123);
  auto cap = files.create(object, 2);
  ASSERT_TRUE(cap.ok());

  auto root = names.create_dir();
  ASSERT_TRUE(root.ok());
  ASSERT_OK(names.enter(root.value(), "object-123", cap.value()));

  auto journal = logs.create_log();
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(
      logs.append(journal.value(), as_span("stored object-123\n")).ok());

  auto mirror = nfs.write_file("object-123", object);
  ASSERT_TRUE(mirror.ok());

  // Cross-check every copy.
  auto via_name = names.lookup(root.value(), "object-123");
  ASSERT_TRUE(via_name.ok());
  EXPECT_EQ(crc32c(object), crc32c(files.read_whole(via_name.value()).value()));
  EXPECT_EQ(crc32c(object), crc32c(nfs.read_file(mirror.value()).value()));
  EXPECT_EQ("stored object-123\n",
            to_string(logs.read_all(journal.value()).value()));
}

TEST(IntegrationTest, PortsAreDistinctAcrossServices) {
  BulletHarness h;
  rpc::LoopbackTransport transport;
  ASSERT_OK(transport.register_service(&h.server()));
  BulletClient files(&transport, h.server().super_capability());
  auto dir_server = dir::DirServer::start(files, dir::DirConfig());
  ASSERT_TRUE(dir_server.ok());
  EXPECT_NE(h.server().public_port(), dir_server.value()->public_port());
  // A Bullet capability shown to the directory server port is rejected.
  Capability confused = h.server().super_capability();
  confused.port = dir_server.value()->public_port();
  rpc::Request req;
  req.target = confused;
  req.opcode = dir::kList;
  EXPECT_NE(ErrorCode::ok, dir_server.value()->handle(req).status);
}

TEST(IntegrationTest, KvStoreOverRealNetwork) {
  // The composed stack over actual sockets: kvstore -> dir + bullet -> UDP.
  BulletHarness h;
  auto udp = rpc::UdpServer::start(rpc::UdpServerOptions{});
  ASSERT_TRUE(udp.ok());
  ASSERT_OK(udp.value()->register_service(&h.server()));

  // The dir server itself talks to Bullet in-process (as in the daemon).
  rpc::LoopbackTransport loopback;
  ASSERT_OK(loopback.register_service(&h.server()));
  BulletClient storage(&loopback, h.server().super_capability());
  auto dir_server = dir::DirServer::start(storage, dir::DirConfig());
  ASSERT_TRUE(dir_server.ok());
  rpc::SerializedService dir_service(dir_server.value().get());
  ASSERT_OK(udp.value()->register_service(&dir_service));

  rpc::UdpClientOptions options;
  options.server_udp_port = udp.value()->port();
  auto transport = rpc::UdpTransport::connect(options);
  ASSERT_TRUE(transport.ok());
  BulletClient net_files(transport.value().get(),
                         h.server().super_capability());
  dir::DirClient net_names(transport.value().get(),
                           dir_server.value()->super_capability());

  auto kv_dir = dir_server.value()->create_dir();
  ASSERT_TRUE(kv_dir.ok());
  kvstore::KvConfig config;
  config.buckets = 4;
  auto store = kvstore::KvStore::create(net_files, net_names, kv_dir.value(),
                                        config);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(store.value().put("key" + std::to_string(i),
                                payload(300, i)));
  }
  for (int i = 0; i < 20; ++i) {
    auto got = store.value().get("key" + std::to_string(i));
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got.value().has_value());
    EXPECT_TRUE(equal(payload(300, i), *got.value())) << i;
  }
  EXPECT_EQ(20u, store.value().size().value());
}

// The simulated full stack: Bullet on mirrored simulated disks, virtual
// time charged for network and disk. This is the configuration the
// benchmark harness uses; the test pins its key physical properties.
class SimulatedStackTest : public ::testing::Test {
 protected:
  SimulatedStackTest()
      : raw0_(512, 1 << 14),
        raw1_(512, 1 << 14),
        sim0_(&raw0_, sim::DiskParams::winchester_1989(512, 1 << 14), &clock_),
        sim1_(&raw1_, sim::DiskParams::winchester_1989(512, 1 << 14), &clock_),
        transport_(sim::NetParams::ethernet_10mbit(), &clock_) {
    EXPECT_TRUE(BulletServer::format(raw0_, 128).ok());
    EXPECT_TRUE(raw1_.restore(raw0_.snapshot()).ok());
    auto mirror = MirroredDisk::create({&sim0_, &sim1_});
    EXPECT_TRUE(mirror.ok());
    mirror_ = std::make_unique<MirroredDisk>(std::move(mirror).value());
    BulletConfig config;
    config.clock = &clock_;
    config.cache_bytes = 2 << 20;
    auto server = BulletServer::start(mirror_.get(), config);
    EXPECT_TRUE(server.ok());
    server_ = std::move(server).value();
    EXPECT_TRUE(transport_
                    .register_service(server_.get(),
                                      sim::ProtocolCosts::amoeba_rpc_1989())
                    .ok());
    client_ = std::make_unique<BulletClient>(&transport_,
                                             server_->super_capability());
  }

  sim::Clock clock_;
  MemDisk raw0_, raw1_;
  SimDisk sim0_, sim1_;
  std::unique_ptr<MirroredDisk> mirror_;
  std::unique_ptr<BulletServer> server_;
  rpc::SimTransport transport_;
  std::unique_ptr<BulletClient> client_;
};

TEST_F(SimulatedStackTest, WarmReadTakesMillisecondsNotSeconds) {
  auto cap = client_->create(payload(1024, 1), 0);
  ASSERT_TRUE(cap.ok());
  const auto t0 = clock_.now();
  ASSERT_TRUE(client_->read(cap.value()).ok());
  const double ms = sim::to_ms(clock_.now() - t0);
  // Warm-cache 1 KB read: RPC-bound, low single-digit milliseconds.
  EXPECT_GT(ms, 1.0);
  EXPECT_LT(ms, 10.0);
}

TEST_F(SimulatedStackTest, PfactorOrderingHolds) {
  // create(p=0) < create(p=1) < create(p=2) in client-visible delay, and
  // the skipped work shows up as background time.
  const Bytes data = payload(50000, 2);
  sim::Duration delays[3];
  for (int p = 0; p < 3; ++p) {
    const auto t0 = clock_.now();
    auto cap = client_->create(data, p);
    ASSERT_TRUE(cap.ok());
    delays[p] = clock_.now() - t0;
  }
  EXPECT_LT(delays[0], delays[1]);
  EXPECT_LT(delays[1], delays[2]);
  EXPECT_GT(clock_.background_total(), 0);
}

TEST_F(SimulatedStackTest, ColdReadPaysDiskTime) {
  auto cap = client_->create(payload(40000, 3), 2);
  ASSERT_TRUE(cap.ok());
  // Warm read.
  const auto t0 = clock_.now();
  ASSERT_TRUE(client_->read(cap.value()).ok());
  const auto warm = clock_.now() - t0;
  // Evict by rebooting the server on the same disks.
  BulletConfig config;
  config.clock = &clock_;
  auto server2 = BulletServer::start(mirror_.get(), config);
  ASSERT_TRUE(server2.ok());
  rpc::SimTransport transport2(sim::NetParams::ethernet_10mbit(), &clock_);
  ASSERT_OK(transport2.register_service(server2.value().get(),
                                        sim::ProtocolCosts::amoeba_rpc_1989()));
  BulletClient client2(&transport2, server2.value()->super_capability());
  const auto t1 = clock_.now();
  ASSERT_TRUE(client2.read(cap.value()).ok());
  const auto cold = clock_.now() - t1;
  EXPECT_GT(cold, warm + sim::from_ms(10));  // seek + rotation + transfer
}

TEST_F(SimulatedStackTest, WholeFileTransferApproachesWireLimit) {
  auto cap = client_->create(payload(1 << 20, 4), 0);
  ASSERT_TRUE(cap.ok());
  const auto t0 = clock_.now();
  ASSERT_TRUE(client_->read(cap.value()).ok());
  const double seconds = sim::to_seconds(clock_.now() - t0);
  const double kb_per_s = 1024.0 / seconds;
  // The paper's Bullet achieved roughly 400-800 KB/s for 1 MB reads on a
  // 10 Mbit/s Ethernet; the simulated stack must land in that regime.
  EXPECT_GT(kb_per_s, 400.0);
  EXPECT_LT(kb_per_s, 1100.0);
}

}  // namespace
}  // namespace bullet
