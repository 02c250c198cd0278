// Replicated server pairs: create/delete propagation, cross-replica reply
// dedup, client failover, resync convergence, tombstone semantics,
// a peer that refuses pushes, and the deterministic FaultTransport itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bullet/client.h"
#include "bullet/server.h"
#include "common/fifo_record.h"
#include "common/rng.h"
#include "rpc/failover_transport.h"
#include "rpc/fault_transport.h"
#include "rpc/udp_transport.h"
#include "tests/test_util.h"

namespace bullet {
namespace {

using testing::BulletHarness;
using testing::payload;
using testing::status_of;

BulletHarness::Options single_disk() {
  BulletHarness::Options options;
  options.replicas = 1;  // pair replication is the cross-server story here
  return options;
}

BulletConfig config_with_seed(std::uint64_t seed) {
  BulletConfig config;
  config.cache_bytes = 1 << 20;
  config.rng_seed = seed;
  return config;
}

// Two Bullet servers sharing the default private port and secret, wired
// as a replicated pair over in-process transports. The two servers answer
// on the SAME public port, so each needs its own LoopbackTransport; the
// client links and the peer links are separate FaultTransports so a test
// can partition the pair while clients still reach both sides (and vice
// versa).
class PairHarness {
 public:
  PairHarness() : a_(single_disk()), b_(single_disk()) {
    a_.reboot(config_with_seed(0xAAA1));
    b_.reboot(config_with_seed(0xBBB2));
    EXPECT_OK(net_a_.register_service(&a_.server()));
    EXPECT_OK(net_b_.register_service(&b_.server()));
    EXPECT_OK(peer_of_a_.register_service(&b_.server()));
    EXPECT_OK(peer_of_b_.register_service(&a_.server()));
    fault_a_ = std::make_unique<rpc::FaultTransport>(&net_a_);
    fault_b_ = std::make_unique<rpc::FaultTransport>(&net_b_);
    peer_fault_a_ = std::make_unique<rpc::FaultTransport>(&peer_of_a_);
    peer_fault_b_ = std::make_unique<rpc::FaultTransport>(&peer_of_b_);
  }

  void attach() {
    a_.server().attach_replica(peer_fault_a_.get(),
                               BulletServer::ReplRole::kPrimary);
    b_.server().attach_replica(peer_fault_b_.get(),
                               BulletServer::ReplRole::kBackup);
  }

  // Cut the pair's peer links both ways. Each side notices (and degrades
  // to solo) at its next push.
  void partition_pair() {
    peer_fault_a_->set_partition(rpc::FaultTransport::Partition::kFull);
    peer_fault_b_->set_partition(rpc::FaultTransport::Partition::kFull);
  }

  void heal_pair() {
    peer_fault_a_->set_partition(rpc::FaultTransport::Partition::kNone);
    peer_fault_b_->set_partition(rpc::FaultTransport::Partition::kNone);
    peer_fault_a_->flush();
    peer_fault_b_->flush();
  }

  BulletServer& a() { return a_.server(); }
  BulletServer& b() { return b_.server(); }
  rpc::FaultTransport& client_link_a() { return *fault_a_; }
  rpc::FaultTransport& client_link_b() { return *fault_b_; }

  // A failover client over both replicas, preferring A.
  BulletClient failover_client(std::uint64_t message_seed) {
    failover_ = std::make_unique<rpc::FailoverTransport>(
        std::vector<rpc::Transport*>{fault_a_.get(), fault_b_.get()});
    BulletClient client(failover_.get(), a_.server().super_capability());
    client.enable_message_ids(message_seed);
    return client;
  }
  rpc::FailoverTransport& failover() { return *failover_; }

 private:
  BulletHarness a_, b_;
  rpc::LoopbackTransport net_a_, net_b_, peer_of_a_, peer_of_b_;
  std::unique_ptr<rpc::FaultTransport> fault_a_, fault_b_;
  std::unique_ptr<rpc::FaultTransport> peer_fault_a_, peer_fault_b_;
  std::unique_ptr<rpc::FailoverTransport> failover_;
};

// --- propagation --------------------------------------------------------

TEST(ReplicationTest, CreatePropagatesToBackupBeforeAck) {
  PairHarness pair;
  pair.attach();
  BulletClient client = pair.failover_client(0x100);

  const Bytes data = payload(4096, 7);
  auto cap = client.create(data, 1);
  ASSERT_OK(status_of(cap));

  // The ack implies the backup holds the file: read it there directly.
  auto copy = pair.b().read(cap.value());
  ASSERT_OK(status_of(copy));
  EXPECT_EQ(data, Bytes(copy.value().begin(), copy.value().end()));

  EXPECT_EQ(1u, testing::metric(pair.a(), "bullet_repl_pushes_total"));
  EXPECT_EQ(1u, testing::metric(pair.b(), "bullet_repl_installs_total"));
  EXPECT_EQ(1u, pair.a().live_files());
  EXPECT_EQ(1u, pair.b().live_files());
}

TEST(ReplicationTest, DeletePropagatesAndLeavesNoGhost) {
  PairHarness pair;
  pair.attach();
  BulletClient client = pair.failover_client(0x200);

  auto cap = client.create(payload(512, 9), 1);
  ASSERT_OK(status_of(cap));
  ASSERT_OK(client.erase(cap.value()));

  EXPECT_CODE(no_such_object, status_of(pair.a().read(cap.value())));
  EXPECT_CODE(no_such_object, status_of(pair.b().read(cap.value())));
  EXPECT_EQ(0u, pair.a().live_files());
  EXPECT_EQ(0u, pair.b().live_files());
}

TEST(ReplicationTest, ReadsFailOverToSurvivingReplica) {
  PairHarness pair;
  pair.attach();
  BulletClient client = pair.failover_client(0x300);

  const Bytes data = payload(2048, 11);
  auto cap = client.create(data, 1);
  ASSERT_OK(status_of(cap));

  // Kill the preferred replica's client link; the read must fail over.
  // The capability verifies at B because the pair shares port + secret.
  pair.client_link_a().set_partition(rpc::FaultTransport::Partition::kFull);
  auto via_b = client.read(cap.value());
  ASSERT_OK(status_of(via_b));
  EXPECT_EQ(data, via_b.value());
  EXPECT_GE(pair.failover().failovers(), 1u);
  EXPECT_EQ(1u, pair.failover().current_replica());

  // Stickiness: the next read goes straight to the survivor.
  const std::uint64_t failovers = pair.failover().failovers();
  EXPECT_OK(status_of(client.read(cap.value())));
  EXPECT_EQ(failovers, pair.failover().failovers());
}

// --- cross-replica dedup ------------------------------------------------

TEST(ReplicationTest, LostAckCreateIsNotDoubleAppliedAcrossFailover) {
  PairHarness pair;
  pair.attach();
  BulletClient client = pair.failover_client(0x400);

  // A executes the create (and pushes the install + dedup record to B),
  // but the client never hears the ack; the failover retry lands on B.
  pair.client_link_a().set_partition(
      rpc::FaultTransport::Partition::kDropReplies);
  const Bytes data = payload(1024, 13);
  auto cap = client.create(data, 1);
  ASSERT_OK(status_of(cap));

  // Applied exactly once: one file per replica, B answered from the
  // replicated reply record rather than re-executing.
  EXPECT_EQ(1u, pair.a().live_files());
  EXPECT_EQ(1u, pair.b().live_files());
  EXPECT_GE(testing::metric(pair.b(), "bullet_repl_dedup_hits_total"), 1u);

  // The returned capability is the one A minted; it reads everywhere.
  auto from_a = pair.a().read(cap.value());
  ASSERT_OK(status_of(from_a));
  EXPECT_EQ(data, Bytes(from_a.value().begin(), from_a.value().end()));
  auto from_b = pair.b().read(cap.value());
  ASSERT_OK(status_of(from_b));
  EXPECT_EQ(data, Bytes(from_b.value().begin(), from_b.value().end()));
}

TEST(ReplicationTest, LostAckDeleteIsIdempotentAcrossFailover) {
  PairHarness pair;
  pair.attach();
  BulletClient client = pair.failover_client(0x500);

  auto cap = client.create(payload(256, 17), 1);
  ASSERT_OK(status_of(cap));

  // A erases and propagates, the ack is lost, the retry lands on B —
  // which must answer ok from its record, not no_such_object.
  pair.client_link_a().set_partition(
      rpc::FaultTransport::Partition::kDropReplies);
  ASSERT_OK(client.erase(cap.value()));
  EXPECT_EQ(0u, pair.a().live_files());
  EXPECT_EQ(0u, pair.b().live_files());
}

// A client that never opted into message ids is covered too: the failover
// transport gives the create one id before its first attempt, so the
// retry on B after A's lost ack is answered from the replicated record
// instead of making a twin.
TEST(ReplicationTest, LostAckCreateWithoutClientIdsMakesNoTwin) {
  PairHarness pair;
  pair.attach();
  rpc::FailoverTransport failover(
      {&pair.client_link_a(), &pair.client_link_b()});
  BulletClient client(&failover, pair.a().super_capability());

  pair.client_link_a().set_partition(
      rpc::FaultTransport::Partition::kDropReplies);
  const Bytes data = payload(1500, 19);
  auto cap = client.create(data, 1);
  ASSERT_OK(status_of(cap));

  EXPECT_EQ(1u, pair.a().live_files());
  EXPECT_EQ(1u, pair.b().live_files());
  auto from_a = pair.a().read(cap.value());
  ASSERT_OK(status_of(from_a));
  EXPECT_EQ(data, Bytes(from_a.value().begin(), from_a.value().end()));
  auto from_b = pair.b().read(cap.value());
  ASSERT_OK(status_of(from_b));
  EXPECT_EQ(data, Bytes(from_b.value().begin(), from_b.value().end()));
}

// Property: one logical create retried through arbitrary client-link
// faults (the retransmit keeps its message id) is applied exactly once
// and the acked capability reads back on both replicas.
TEST(ReplicationProperty, CreateDedupAcrossFailoverManySchedules) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    PairHarness pair;
    pair.attach();
    const std::uint64_t message_seed = seed << 32;
    BulletClient client = pair.failover_client(message_seed);

    // Faulty client links both ways; the peer link stays clean so every
    // accepted create reaches both replicas.
    sim::FaultParams params;
    params.drop_request = 0.2;
    params.drop_reply = 0.2;
    params.duplicate = 0.15;
    params.reorder = 0.1;
    pair.client_link_a().set_plan(sim::FaultPlan(params, seed * 11));
    pair.client_link_b().set_plan(sim::FaultPlan(params, seed * 13));

    const Bytes data = payload(777, seed);
    Result<Capability> cap = Error(ErrorCode::unreachable, "not yet");
    for (int attempt = 0; attempt < 64 && !cap.ok(); ++attempt) {
      // Re-arm the same message id: each attempt is a retransmit of the
      // same logical operation, exactly what a real client's retry loop
      // sends after a timeout.
      client.enable_message_ids(message_seed);
      cap = client.create(data, 1);
    }
    ASSERT_OK(status_of(cap));

    // Drain held (reordered) retransmits, then check exactly-once.
    pair.client_link_a().flush();
    pair.client_link_b().flush();
    EXPECT_EQ(1u, pair.a().live_files()) << "seed " << seed;
    EXPECT_EQ(1u, pair.b().live_files()) << "seed " << seed;
    auto from_a = pair.a().read(cap.value());
    ASSERT_OK(status_of(from_a));
    EXPECT_EQ(data, Bytes(from_a.value().begin(), from_a.value().end()));
    auto from_b = pair.b().read(cap.value());
    ASSERT_OK(status_of(from_b));
    EXPECT_EQ(data, Bytes(from_b.value().begin(), from_b.value().end()));
  }
}

// --- resync -------------------------------------------------------------

TEST(ReplicationTest, ResyncConvergesAfterSplitBrainCreates) {
  PairHarness pair;
  pair.attach();
  BulletClient client = pair.failover_client(0x600);

  auto shared = client.create(payload(300, 1), 1);
  ASSERT_OK(status_of(shared));

  // Independent creates on both sides of a partition. (The direct C++
  // API does not propagate — these model mutations the peer never saw.)
  pair.partition_pair();
  auto only_a = pair.a().create(payload(400, 2), 1);
  ASSERT_OK(status_of(only_a));
  auto only_b = pair.b().create(payload(500, 3), 1);
  ASSERT_OK(status_of(only_b));
  // Split allocation keeps the independent creates off each other's slots.
  EXPECT_NE(only_a.value().object, only_b.value().object);

  pair.heal_pair();
  auto report = pair.a().resync_with_peer();
  ASSERT_OK(status_of(report));
  EXPECT_EQ(1u, report.value().files_pulled);
  EXPECT_EQ(1u, report.value().files_pushed);
  EXPECT_EQ(0u, report.value().conflicts);

  // Both replicas now hold all three files, byte-identical manifests.
  EXPECT_EQ(3u, pair.a().live_files());
  EXPECT_EQ(3u, pair.b().live_files());
  for (const auto& cap : {shared.value(), only_a.value(), only_b.value()}) {
    EXPECT_OK(status_of(pair.a().read(cap)));
    EXPECT_OK(status_of(pair.b().read(cap)));
  }

  auto ma = pair.a().replica_manifest();
  auto mb = pair.b().replica_manifest();
  ASSERT_EQ(ma.files.size(), mb.files.size());
  auto by_object = [](const wire::ReplManifest::File& x,
                      const wire::ReplManifest::File& y) {
    return x.object < y.object;
  };
  std::sort(ma.files.begin(), ma.files.end(), by_object);
  std::sort(mb.files.begin(), mb.files.end(), by_object);
  for (std::size_t i = 0; i < ma.files.size(); ++i) {
    EXPECT_EQ(ma.files[i].object, mb.files[i].object);
    EXPECT_EQ(ma.files[i].random, mb.files[i].random);
    EXPECT_EQ(ma.files[i].size, mb.files[i].size);
  }
  // Resync cleared the tombstone logs on both sides.
  EXPECT_TRUE(ma.tombstones.empty());
  EXPECT_TRUE(mb.tombstones.empty());
}

TEST(ReplicationTest, TombstoneWinsOverStaleCopyOnResync) {
  PairHarness pair;
  pair.attach();
  BulletClient client = pair.failover_client(0x700);

  auto cap = client.create(payload(350, 5), 1);
  ASSERT_OK(status_of(cap));

  // Delete on A while B is unreachable: the push fails (A degrades to
  // solo), the tombstone stays behind.
  pair.partition_pair();
  ASSERT_OK(client.erase(cap.value()));
  EXPECT_EQ(0u, pair.a().live_files());
  EXPECT_EQ(1u, pair.b().live_files());  // B still holds the stale copy
  EXPECT_GE(testing::metric(pair.a(), "bullet_repl_push_failures_total"), 1u);
  EXPECT_FALSE(pair.a().repl_status().peer_healthy);

  pair.heal_pair();
  auto report = pair.a().resync_with_peer();
  ASSERT_OK(status_of(report));
  EXPECT_EQ(1u, report.value().erases_applied);
  EXPECT_EQ(0u, report.value().files_pulled);  // the delete won, no copy-back

  // No ghost on either side, and the pair is healthy again.
  EXPECT_EQ(0u, pair.a().live_files());
  EXPECT_EQ(0u, pair.b().live_files());
  EXPECT_CODE(no_such_object, status_of(pair.b().read(cap.value())));
  EXPECT_TRUE(pair.a().repl_status().peer_healthy);
}

// Every delete a paired server applies, its own or the peer's, stays
// tombstoned until a resync: the manifest lists them in delete order on
// both sides, and a late install of a deleted file answers with its
// capability instead of bringing the file back.
TEST(ReplicationTest, ThousandsOfDeletesStayTombstonedInOrderUntilResync) {
  PairHarness pair;
  pair.attach();
  BulletClient client = pair.failover_client(0x780);
  Rng rng(0x781);

  constexpr int kRounds = 30;
  constexpr int kBatch = 100;
  std::vector<wire::ReplManifest::Tombstone> deleted;
  std::optional<Capability> first;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<Capability> caps;
    for (int i = 0; i < kBatch; ++i) {
      auto cap = client.create(payload(64, round * kBatch + i), 1);
      ASSERT_OK(status_of(cap));
      caps.push_back(cap.value());
    }
    std::map<std::uint32_t, std::uint64_t> random_of;
    for (const auto& f : pair.a().replica_manifest().files) {
      random_of[f.object] = f.random;
    }
    // Freed slots are reused by the next round, so tombstones of different
    // incarnations share an object number.
    for (std::size_t i = caps.size(); i > 1; --i) {
      std::swap(caps[i - 1], caps[rng.next_below(i)]);
    }
    for (const Capability& cap : caps) {
      ASSERT_OK(client.erase(cap));
      deleted.push_back({cap.object, random_of.at(cap.object)});
      if (!first) first = cap;
    }
  }
  ASSERT_EQ(0u, pair.a().live_files());
  ASSERT_EQ(0u, pair.b().live_files());

  for (BulletServer* server : {&pair.a(), &pair.b()}) {
    const auto tombstones = server->replica_manifest().tombstones;
    ASSERT_EQ(deleted.size(), tombstones.size());
    for (std::size_t i = 0; i < deleted.size(); ++i) {
      ASSERT_EQ(deleted[i], tombstones[i]) << "delete #" << i;
    }
    EXPECT_EQ(deleted.size(),
              testing::metric(*server, "bullet_repl_tombstones"));

    // A REPL-INSTALL of the first deleted file arrives late.
    rpc::Request request;
    request.target = server->super_capability();
    request.opcode = wire::kReplicate;
    Writer w;
    w.u8(wire::kReplInstall);
    w.u32(deleted[0].object);
    w.u64(deleted[0].random);
    w.u64(0);
    w.u8(1);
    w.blob(payload(64, 0));
    request.body = std::move(w).take();
    const rpc::Reply reply = server->handle(request);
    ASSERT_EQ(ErrorCode::ok, reply.status);
    Reader r{ByteSpan(reply.body)};
    auto cap = Capability::decode(r);
    ASSERT_OK(status_of(cap));
    EXPECT_EQ(*first, cap.value());
    EXPECT_EQ(0u, server->live_files());
    EXPECT_CODE(no_such_object, status_of(server->read(*first)));
  }

  auto report = pair.a().resync_with_peer();
  ASSERT_OK(status_of(report));
  EXPECT_EQ(0u, report.value().erases_applied);
  for (BulletServer* server : {&pair.a(), &pair.b()}) {
    EXPECT_TRUE(server->replica_manifest().tombstones.empty());
    EXPECT_EQ(0u, testing::metric(*server, "bullet_repl_tombstones"));
  }
}

TEST(ReplicationTest, DuplicateCreateFromBothSidesKeepsBothCopies) {
  PairHarness pair;
  pair.attach();
  pair.partition_pair();

  // The same logical create (one message id) executed independently on
  // both sides of the partition — a client that retried across it. Each
  // side's push fails, so both apply solo.
  const Bytes data = payload(600, 21);
  const std::uint64_t message_id = 0xD00D;
  rpc::LoopbackTransport direct_a, direct_b;
  ASSERT_OK(direct_a.register_service(&pair.a()));
  ASSERT_OK(direct_b.register_service(&pair.b()));
  BulletClient client_a(&direct_a, pair.a().super_capability());
  BulletClient client_b(&direct_b, pair.b().super_capability());
  client_a.enable_message_ids(message_id);
  client_b.enable_message_ids(message_id);
  auto cap_a = client_a.create(data, 1);
  auto cap_b = client_b.create(data, 1);
  ASSERT_OK(status_of(cap_a));
  ASSERT_OK(status_of(cap_b));
  EXPECT_NE(cap_a.value().object, cap_b.value().object);

  pair.heal_pair();
  auto report = pair.a().resync_with_peer();
  ASSERT_OK(status_of(report));
  EXPECT_EQ(1u, report.value().duplicates_reconciled);

  // Neither copy was erased: the client may hold either capability, so
  // resync keeps both (the unreferenced twin is garbage, not a ghost).
  EXPECT_EQ(2u, pair.a().live_files());
  EXPECT_EQ(2u, pair.b().live_files());
  EXPECT_OK(status_of(pair.a().read(cap_b.value())));
  EXPECT_OK(status_of(pair.b().read(cap_a.value())));
}

TEST(ReplicationTest, CrashedBackupCatchesUpByPlainFileCopy) {
  PairHarness pair;
  pair.attach();
  BulletClient client = pair.failover_client(0x800);

  pair.partition_pair();  // "crashed backup": B unreachable from A
  std::vector<Capability> caps;
  for (int i = 0; i < 5; ++i) {
    auto cap = client.create(payload(200 + 100 * i, 30 + i), 1);
    ASSERT_OK(status_of(cap));
    caps.push_back(cap.value());
  }
  EXPECT_EQ(0u, pair.b().live_files());
  EXPECT_FALSE(pair.a().repl_status().peer_healthy);  // degraded to solo

  // The returning replica initiates the resync and pulls what it missed.
  pair.heal_pair();
  auto report = pair.b().resync_with_peer();
  ASSERT_OK(status_of(report));
  EXPECT_EQ(5u, report.value().files_pulled);
  EXPECT_EQ(5u, pair.b().live_files());
  for (const auto& cap : caps) {
    EXPECT_OK(status_of(pair.b().read(cap)));
  }
  EXPECT_EQ(1u, testing::metric(pair.b(), "bullet_repl_resyncs_total"));
  EXPECT_EQ(5u, testing::metric(pair.b(), "bullet_repl_resync_files_total"));
}

TEST(ReplicationTest, InstallRejectsNullSlotAndRandom) {
  BulletHarness h(single_disk());
  const Bytes data = payload(64, 1);
  EXPECT_CODE(bad_argument,
              status_of(h.server().install_object(0, 77, data, 0)));
  EXPECT_CODE(bad_argument,
              status_of(h.server().install_object(3, 0, data, 0)));
}

// Peer installs are exempt from the backup's disk-fill admission bound: a
// shed install would fail the push and degrade the pair, so a backup whose
// fill slots are all taken by held read misses must still accept them.
TEST(ReplicationTest, InstallsBypassTheFillBoundOnTheBackup) {
  BulletHarness a(single_disk());
  a.reboot(config_with_seed(0xA));
  MemDisk b_disk(512, 4096);
  ASSERT_OK(BulletServer::format(b_disk, 256));
  testing::GatedDisk gate(&b_disk);
  auto b_mirror = MirroredDisk::create({&gate});
  ASSERT_TRUE(b_mirror.ok());
  MirroredDisk b_store = std::move(b_mirror).value();

  rpc::LoopbackTransport client_link, peer_of_a, peer_of_b;
  ASSERT_OK(client_link.register_service(&a.server()));
  ASSERT_OK(peer_of_b.register_service(&a.server()));
  BulletClient client(&client_link, a.server().super_capability());
  client.enable_message_ids(0xF11);

  // Two files on both sides, then a cold restart of the backup with one
  // fill slot and two completion threads (one to hold, one to install).
  Capability held, other;
  {
    auto b = BulletServer::start(&b_store, config_with_seed(0xB));
    ASSERT_TRUE(b.ok());
    ASSERT_OK(peer_of_a.register_service(b.value().get()));
    a.server().attach_replica(&peer_of_a, BulletServer::ReplRole::kPrimary);
    b.value()->attach_replica(&peer_of_b, BulletServer::ReplRole::kBackup);
    auto c1 = client.create(payload(8000, 1), 1);
    auto c2 = client.create(payload(8000, 2), 1);
    ASSERT_OK(status_of(c1));
    ASSERT_OK(status_of(c2));
    held = c1.value();
    other = c2.value();
    ASSERT_OK(peer_of_a.unregister_service(b.value()->public_port()));
  }
  BulletConfig bounded = config_with_seed(0xB);
  bounded.io_threads = 2;
  bounded.max_inflight_fills = 1;
  auto started = BulletServer::start(&b_store, bounded);
  ASSERT_TRUE(started.ok());
  BulletServer& b = *started.value();
  ASSERT_OK(peer_of_a.register_service(&b));
  b.attach_replica(&peer_of_b, BulletServer::ReplRole::kBackup);

  // Occupy the backup's only fill slot with a read held in the device.
  for (const auto& info : b.list_objects()) {
    if (info.object == held.object) gate.arm(info.first_block, 8000 / 512 + 1);
  }
  std::atomic<bool> parked_ok{false};
  std::atomic<bool> parked_done{false};
  b.read_pinned_async(held, [&](Result<BulletServer::PinnedFile> r) {
    parked_ok = r.ok() && r.value().data.size() == 8000;
    parked_done = true;
  });
  gate.wait_held(1);
  // The bound is live: a second read miss is shed.
  std::optional<ErrorCode> shed;
  b.read_pinned_async(other, [&](Result<BulletServer::PinnedFile> r) {
    shed = r.ok() ? ErrorCode::ok : r.code();
  });
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(ErrorCode::retry_later, *shed);

  // Creates on the primary are still pushed and acked.
  const std::uint64_t failures_before =
      testing::metric(a.server(), "bullet_repl_push_failures_total");
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK(status_of(client.create(payload(3000, 10 + i), 1)));
  }
  EXPECT_TRUE(a.server().repl_status().peer_healthy);
  EXPECT_EQ(failures_before,
            testing::metric(a.server(), "bullet_repl_push_failures_total"));
  EXPECT_EQ(0u, failures_before);
  EXPECT_EQ(3u, testing::metric(b, "bullet_repl_installs_total"));

  gate.release();
  b.io_queue().drain();
  EXPECT_TRUE(parked_done.load());
  EXPECT_TRUE(parked_ok.load());
  a.server().detach_replica();
}

// An install's capability is known before its writes land (the peer issued
// it), so a client can read the file mid-install. When the install's write
// then fails, a read that joined it gets the error instead of hanging.
TEST(ReplicationTest, FailedInstallAnswersReadsThatJoinedIt) {
  // The file to install sits in A's slot 2; B's own file takes slot 1.
  BulletHarness a(single_disk());
  ASSERT_OK(status_of(a.server().create(payload(10, 4), 1)));
  const Bytes data = payload(8000, 5);
  auto cap = a.server().create(data, 1);
  ASSERT_OK(status_of(cap));
  const std::uint64_t random = a.server().replica_manifest().files.at(1).random;

  MemDisk b_disk(512, 4096);
  ASSERT_OK(BulletServer::format(b_disk, 256));
  testing::GatedDisk gate(&b_disk);
  auto b_mirror = MirroredDisk::create({&gate});
  ASSERT_TRUE(b_mirror.ok());
  MirroredDisk b_store = std::move(b_mirror).value();
  BulletConfig config = config_with_seed(0xB);
  config.cache_bytes = 32 << 10;
  config.io_threads = 1;
  const Bytes big = payload(30000, 6);
  Capability big_cap;
  {
    auto b = BulletServer::start(&b_store, config);
    ASSERT_TRUE(b.ok());
    auto created = b.value()->create(big, 1);
    ASSERT_OK(status_of(created));
    big_cap = created.value();
  }
  auto started = BulletServer::start(&b_store, config);
  ASSERT_TRUE(started.ok());
  BulletServer& b = *started.value();

  // A held miss pins most of B's arena and its only completion thread, so
  // the install stages outside the cache and its write waits in the queue.
  gate.arm(b.list_objects().at(0).first_block, (big.size() + 511) / 512);
  std::atomic<bool> big_done{false};
  b.read_pinned_async(big_cap, [&](auto) { big_done = true; });
  gate.wait_held(1);
  gate.fail_writes(true);
  std::optional<Result<Capability>> installed;
  std::atomic<bool> install_returned{false};
  std::thread install([&] {
    installed = b.install_object(cap.value().object, random, data, 0);
    install_returned = true;
  });
  while (b.list_objects().size() < 2 && !install_returned.load()) {
    std::this_thread::yield();
  }
  if (install_returned.load()) {
    install.join();
    FAIL() << "the install did not wait on its disk write";
  }

  std::atomic<bool> joined_done{false};
  std::optional<ErrorCode> joined;
  b.read_pinned_async(cap.value(), [&](Result<BulletServer::PinnedFile> r) {
    joined = r.ok() ? ErrorCode::ok : r.code();
    joined_done = true;
  });
  gate.release();
  install.join();
  b.io_queue().drain();

  ASSERT_TRUE(installed.has_value());
  EXPECT_CODE(io_error, status_of(*installed));
  ASSERT_TRUE(joined_done.load());
  EXPECT_EQ(ErrorCode::io_error, *joined);
  EXPECT_TRUE(big_done.load());
  EXPECT_EQ(1u, b.live_files());
}

// --- mixed versions -----------------------------------------------------

// Both sides of a UDP pair take creates and deletes at once, as after a
// client fails over to the backup. A push may only wait on peer threads
// that never push themselves; otherwise each side's pushes hold the
// threads the other side's pushes need, both time out and the pair
// degrades to solo.
TEST(ReplicationTest, UdpPairMutatingOnBothSidesStaysHealthy) {
  BulletHarness::Options options = single_disk();
  options.disk_blocks = 1 << 14;
  options.inode_slots = 1024;
  BulletHarness a(options), b(options);
  BulletConfig config_a = config_with_seed(0xA);
  BulletConfig config_b = config_with_seed(0xB);
  config_a.io_threads = config_b.io_threads = 2;
  a.reboot(config_a);
  b.reboot(config_b);

  rpc::UdpServerOptions server_options;
  server_options.workers = 2;
  auto udp_a = rpc::UdpServer::start(server_options);
  auto udp_b = rpc::UdpServer::start(server_options);
  ASSERT_TRUE(udp_a.ok());
  ASSERT_TRUE(udp_b.ok());
  ASSERT_OK(udp_a.value()->register_service(&a.server()));
  ASSERT_OK(udp_b.value()->register_service(&b.server()));
  const auto connect = [](const rpc::UdpServer& to) {
    rpc::UdpClientOptions client_options;
    client_options.server_udp_port = to.port();
    return rpc::UdpTransport::connect(client_options);
  };
  auto a_to_b = connect(*udp_b.value());
  auto b_to_a = connect(*udp_a.value());
  ASSERT_TRUE(a_to_b.ok());
  ASSERT_TRUE(b_to_a.ok());
  a.server().attach_replica(a_to_b.value().get(),
                            BulletServer::ReplRole::kPrimary);
  b.server().attach_replica(b_to_a.value().get(),
                            BulletServer::ReplRole::kBackup);

  constexpr int kClients = 4;  // two per side
  constexpr int kCreatesPerClient = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      BulletHarness& side = i % 2 == 0 ? a : b;
      auto link = connect(i % 2 == 0 ? *udp_a.value() : *udp_b.value());
      if (!link.ok()) {
        ++failures;
        return;
      }
      BulletClient client(link.value().get(),
                          side.server().super_capability());
      for (int n = 0; n < kCreatesPerClient; ++n) {
        const Bytes data = payload(1 + (n * 997) % 4000, i * 1000 + n);
        auto cap = client.create(data, 1);
        if (!cap.ok()) {
          ++failures;
        } else if (n % 4 == 3 && !client.erase(cap.value()).ok()) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(0, failures.load());
  for (BulletHarness* side : {&a, &b}) {
    EXPECT_TRUE(side->server().repl_status().peer_healthy);
    EXPECT_EQ(0u, testing::metric(side->server(),
                                  "bullet_repl_push_failures_total"));
  }
  // Every surviving file, whichever side took it, is on both.
  EXPECT_EQ(kClients * kCreatesPerClient * 3 / 4, a.server().live_files());
  EXPECT_EQ(a.server().live_files(), b.server().live_files());
  a.server().detach_replica();
  b.server().detach_replica();
}

// A peer that answers every replication opcode with not_supported and
// serves everything else normally.
class RefusingPeer final : public rpc::Service {
 public:
  explicit RefusingPeer(BulletServer* inner) : inner_(inner) {}
  Port public_port() const noexcept override { return inner_->public_port(); }
  rpc::Reply handle(const rpc::Request& request) override {
    if (request.opcode == wire::kReplicate ||
        request.opcode == wire::kReplResync) {
      return rpc::Reply::error(ErrorCode::not_supported);
    }
    return inner_->handle(request);
  }

 private:
  BulletServer* inner_;
};

TEST(ReplicationTest, RefusingPeerDoesNotWedgeThePrimary) {
  BulletHarness a(single_disk()), b(single_disk());
  a.reboot(config_with_seed(0xA));
  b.reboot(config_with_seed(0xB));
  RefusingPeer refusing(&b.server());
  rpc::LoopbackTransport peer_link, client_link;
  ASSERT_OK(peer_link.register_service(&refusing));
  ASSERT_OK(client_link.register_service(&a.server()));

  // The attach ping is refused, but the peer answered: it is healthy.
  a.server().attach_replica(&peer_link, BulletServer::ReplRole::kPrimary);
  EXPECT_TRUE(a.server().repl_status().peer_healthy);

  // Every create is still acked; each one's push is refused and counted.
  BulletClient client(&client_link, a.server().super_capability());
  client.enable_message_ids(0x900);
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK(status_of(client.create(payload(128, 40 + i), 1)));
  }
  EXPECT_EQ(3u, testing::metric(a.server(), "bullet_repl_push_failures_total"));
  EXPECT_EQ(0u, testing::metric(a.server(), "bullet_repl_pushes_total"));
  EXPECT_TRUE(a.server().repl_status().peer_healthy);
  EXPECT_EQ(3u, a.server().live_files());
  EXPECT_EQ(0u, b.server().live_files());

  // A resync fails with the peer's own code and leaves no resync running.
  EXPECT_CODE(not_supported, status_of(a.server().resync_with_peer()));
  EXPECT_FALSE(a.server().repl_status().resyncing);
}

// --- the fault transport itself ----------------------------------------

// Tallies what the service actually saw, for determinism checks.
class CountingService final : public rpc::Service {
 public:
  explicit CountingService(Port port) : port_(port) {}
  Port public_port() const noexcept override { return port_; }
  rpc::Reply handle(const rpc::Request&) override {
    ++handled_;
    return rpc::Reply::success();
  }
  std::uint64_t handled() const noexcept { return handled_; }

 private:
  Port port_;
  std::uint64_t handled_ = 0;
};

TEST(FaultTransportTest, SameSeedReplaysIdenticalSchedule) {
  rpc::FaultTransport::Counters first{};
  std::uint64_t first_handled = 0;
  for (int round = 0; round < 2; ++round) {
    rpc::LoopbackTransport inner;
    CountingService service(Port(0x77));
    ASSERT_OK(inner.register_service(&service));
    rpc::FaultTransport fault(&inner,
                              sim::FaultPlan(sim::FaultParams::flaky(), 42));

    rpc::Request request;
    request.target.port = Port(0x77);
    for (int i = 0; i < 200; ++i) {
      (void)fault.call(request);
    }
    if (round == 0) {
      first = fault.counters();
      first_handled = service.handled();
      continue;
    }
    const auto c = fault.counters();
    EXPECT_EQ(first.dropped_requests, c.dropped_requests);
    EXPECT_EQ(first.dropped_replies, c.dropped_replies);
    EXPECT_EQ(first.duplicated, c.duplicated);
    EXPECT_EQ(first.reordered, c.reordered);
    EXPECT_EQ(first_handled, service.handled());
    // flaky() actually perturbs something over 200 calls.
    EXPECT_GT(c.dropped_requests + c.dropped_replies + c.duplicated +
                  c.reordered,
              0u);
  }
}

TEST(FaultTransportTest, DroppedReplyStillExecutes) {
  rpc::LoopbackTransport inner;
  CountingService service(Port(0x78));
  ASSERT_OK(inner.register_service(&service));
  sim::FaultParams params;
  params.drop_reply = 1.0;
  rpc::FaultTransport fault(&inner, sim::FaultPlan(params, 1));

  rpc::Request request;
  request.target.port = Port(0x78);
  EXPECT_CODE(unreachable, status_of(fault.call(request)));
  EXPECT_EQ(1u, service.handled());  // the side effect happened
  EXPECT_EQ(1u, fault.counters().dropped_replies);
}

TEST(FaultTransportTest, ReorderedRequestDeliversStaleOnFlush) {
  rpc::LoopbackTransport inner;
  CountingService service(Port(0x79));
  ASSERT_OK(inner.register_service(&service));
  sim::FaultParams params;
  params.reorder = 1.0;
  params.reorder_gap_max = 3;
  rpc::FaultTransport fault(&inner, sim::FaultPlan(params, 2));

  rpc::Request request;
  request.target.port = Port(0x79);
  EXPECT_CODE(unreachable, status_of(fault.call(request)));
  EXPECT_EQ(0u, service.handled());  // held, not delivered
  fault.flush();
  EXPECT_EQ(1u, service.handled());  // stale delivery when the link heals
  EXPECT_EQ(1u, fault.counters().reordered);
}

TEST(FaultTransportTest, PartitionsBlockByDirectionUntilHealed) {
  rpc::LoopbackTransport inner;
  CountingService service(Port(0x7A));
  ASSERT_OK(inner.register_service(&service));
  rpc::FaultTransport fault(&inner);

  rpc::Request request;
  request.target.port = Port(0x7A);
  fault.set_partition(rpc::FaultTransport::Partition::kFull);
  EXPECT_CODE(unreachable, status_of(fault.call(request)));
  EXPECT_EQ(0u, service.handled());

  fault.set_partition(rpc::FaultTransport::Partition::kDropReplies);
  EXPECT_CODE(unreachable, status_of(fault.call(request)));
  EXPECT_EQ(1u, service.handled());  // one-way: it heard us, we never learn

  fault.set_partition(rpc::FaultTransport::Partition::kNone);
  EXPECT_OK(status_of(fault.call(request)));
  EXPECT_EQ(2u, service.handled());
  EXPECT_EQ(2u, fault.counters().partitioned);
}

TEST(FailoverTransportTest, AdvancesOnUnreachableAndSticks) {
  rpc::LoopbackTransport net_a, net_b;
  CountingService only_b(Port(0x7B));
  ASSERT_OK(net_b.register_service(&only_b));  // A answers nothing
  rpc::FailoverTransport failover({&net_a, &net_b});

  rpc::Request request;
  request.target.port = Port(0x7B);
  EXPECT_OK(status_of(failover.call(request)));
  EXPECT_EQ(1u, only_b.handled());
  EXPECT_EQ(1u, failover.current_replica());
  EXPECT_EQ(1u, failover.failovers());

  // Sticky: the next call goes straight to B, no re-probing of A.
  EXPECT_OK(status_of(failover.call(request)));
  EXPECT_EQ(1u, failover.failovers());
  EXPECT_EQ(0u, failover.pushback_failovers());
}

TEST(FailoverTransportTest, GivesUpAfterMaxCyclesWhenAllDead) {
  rpc::LoopbackTransport net_a, net_b;  // nobody registered anywhere
  rpc::FailoverTransport failover({&net_a, &net_b});
  rpc::Request request;
  request.target.port = Port(0x7C);
  // Exhaustion reports the distinct every-replica-down code so callers can
  // tell a dead shard from a single flaky replica.
  const Status st = status_of(failover.call(request));
  EXPECT_CODE(all_replicas_unreachable, st);
  EXPECT_NE(std::string::npos, st.error().message.find("2 replica(s)"));
}


// --- the bounded FIFO record --------------------------------------------

using Record = FifoRecord<int, std::string>;

std::vector<int> keys_of(const Record& record) {
  std::vector<int> keys;
  for (const auto& [key, value] : record) keys.push_back(key);
  return keys;
}

TEST(FifoRecordTest, EvictsInInsertionOrder) {
  Record record(3);
  for (int key = 1; key <= 5; ++key) {
    EXPECT_TRUE(record.put(key, std::to_string(key)));
  }
  EXPECT_EQ(3u, record.size());
  EXPECT_EQ((std::vector<int>{3, 4, 5}), keys_of(record));
  // Lookups miss once their key is evicted.
  EXPECT_EQ(nullptr, record.find(1));
  EXPECT_FALSE(record.contains(2));
  ASSERT_NE(nullptr, record.find(3));
  EXPECT_EQ("3", *record.find(3));
}

TEST(FifoRecordTest, OverwriteKeepsItsPlaceAndSize) {
  Record record(3);
  record.put(1, "a");
  record.put(2, "b");
  record.put(3, "c");
  EXPECT_FALSE(record.put(1, "A"));  // the oldest, overwritten
  EXPECT_EQ(3u, record.size());
  EXPECT_EQ((std::vector<int>{1, 2, 3}), keys_of(record));
  EXPECT_EQ("A", *record.find(1));
  // The overwrite did not make 1 young: the next new key still evicts it.
  EXPECT_TRUE(record.put(4, "d"));
  EXPECT_EQ((std::vector<int>{2, 3, 4}), keys_of(record));
  EXPECT_EQ(nullptr, record.find(1));
  EXPECT_FALSE(record.put(3, "C"));  // a middle entry
  EXPECT_EQ((std::vector<int>{2, 3, 4}), keys_of(record));
  EXPECT_EQ("C", *record.find(3));
  EXPECT_EQ("d", *record.find(4));
}

TEST(FifoRecordTest, ClearEmptiesAndTheRecordFillsAgain) {
  Record record(2);
  record.put(1, "a");
  record.put(2, "b");
  record.put(3, "c");
  record.clear();
  EXPECT_EQ(0u, record.size());
  EXPECT_TRUE(keys_of(record).empty());
  EXPECT_EQ(nullptr, record.find(3));
  // After a clear the record takes keys it held before, in the new order,
  // and evicts from the new front.
  EXPECT_TRUE(record.put(3, "x"));
  EXPECT_TRUE(record.put(1, "y"));
  EXPECT_TRUE(record.put(5, "z"));
  EXPECT_EQ((std::vector<int>{1, 5}), keys_of(record));
  EXPECT_EQ("y", *record.find(1));
  EXPECT_EQ("z", *record.find(5));
}

TEST(FifoRecordTest, IteratesInInsertionOrderThroughManyEvictions) {
  Record record(16);
  Rng rng(0xF1F0);
  std::vector<int> order;
  for (int i = 0; i < 1000; ++i) {
    const int key = static_cast<int>(rng.next_below(64));
    const bool known =
        std::find(order.begin(), order.end(), key) != order.end();
    EXPECT_EQ(!known, record.put(key, std::to_string(i)));
    if (!known) order.push_back(key);
    if (order.size() > 16) order.erase(order.begin());
    ASSERT_EQ(order, keys_of(record)) << "after put #" << i;
  }
}

}  // namespace
}  // namespace bullet
