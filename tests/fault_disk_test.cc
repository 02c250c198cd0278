// FaultDisk unit tests, and the mirror behaviours it exists to exercise:
// per-block read-repair, the error budget, and scrub healing torn writes
// and silent bit-rot.
#include <gtest/gtest.h>

#include <memory>

#include "bullet/server.h"
#include "common/crc.h"
#include "disk/fault_disk.h"
#include "disk/mem_disk.h"
#include "disk/mirrored_disk.h"
#include "tests/test_util.h"

namespace bullet {
namespace {

using testing::payload;
using testing::status_of;

class FaultDiskTest : public ::testing::Test {
 protected:
  FaultDiskTest() : inner_(512, 64), fault_(&inner_) {}
  MemDisk inner_;
  FaultDisk fault_;
};

TEST_F(FaultDiskTest, PassesThroughWhenNoFaults) {
  ASSERT_OK(fault_.write(3, payload(1024, 1)));
  Bytes out(1024);
  ASSERT_OK(fault_.read(3, out));
  EXPECT_TRUE(equal(payload(1024, 1), out));
  EXPECT_EQ(0u, fault_.injected_read_errors());
  EXPECT_EQ(0u, fault_.injected_write_errors());
}

TEST_F(FaultDiskTest, TransientReadErrorTripsOnce) {
  ASSERT_OK(fault_.write(5, payload(512, 2)));
  fault_.inject_read_error(5, /*transient=*/true);
  Bytes out(512);
  EXPECT_CODE(io_error, fault_.read(5, out));
  ASSERT_OK(fault_.read(5, out));  // consumed
  EXPECT_TRUE(equal(payload(512, 2), out));
  EXPECT_EQ(1u, fault_.injected_read_errors());
}

TEST_F(FaultDiskTest, PermanentReadErrorKeepsTripping) {
  fault_.inject_read_error(5, /*transient=*/false);
  Bytes out(512);
  EXPECT_CODE(io_error, fault_.read(5, out));
  EXPECT_CODE(io_error, fault_.read(5, out));
  EXPECT_EQ(2u, fault_.injected_read_errors());
  fault_.clear_faults();
  ASSERT_OK(fault_.read(5, out));
}

TEST_F(FaultDiskTest, WriteErrorsTransientAndPermanent) {
  fault_.inject_write_error(7, /*transient=*/true);
  EXPECT_CODE(io_error, fault_.write(7, payload(512, 3)));
  ASSERT_OK(fault_.write(7, payload(512, 3)));  // consumed
  fault_.inject_write_error(8, /*transient=*/false);
  EXPECT_CODE(io_error, fault_.write(8, payload(512, 4)));
  EXPECT_CODE(io_error, fault_.write(8, payload(512, 4)));
  EXPECT_EQ(3u, fault_.injected_write_errors());
}

TEST_F(FaultDiskTest, MultiBlockSpanHitsPerBlockFault) {
  // A fault on any block of the span fails the whole transfer.
  fault_.inject_read_error(11, /*transient=*/false);
  Bytes out(4 * 512);
  EXPECT_CODE(io_error, fault_.read(9, out));
}

TEST_F(FaultDiskTest, LatentErrorTripsOnReadAndClearsOnRewrite) {
  ASSERT_OK(fault_.write(6, payload(512, 5)));
  fault_.arm_latent_error(6);
  Bytes out(512);
  EXPECT_CODE(io_error, fault_.read(6, out));
  EXPECT_CODE(io_error, fault_.read(6, out));  // still latent
  EXPECT_EQ(2u, fault_.latent_trips());
  ASSERT_OK(fault_.write(6, payload(512, 6)));  // rewrite clears it
  ASSERT_OK(fault_.read(6, out));
  EXPECT_TRUE(equal(payload(512, 6), out));
}

TEST_F(FaultDiskTest, BitRotIsSilent) {
  ASSERT_OK(fault_.write(4, payload(512, 7)));
  ASSERT_OK(fault_.corrupt_block(4, 100, 0x40));
  Bytes out(512);
  ASSERT_OK(fault_.read(4, out));  // no error surfaces
  EXPECT_FALSE(equal(payload(512, 7), out));
  out[100] ^= 0x40;
  EXPECT_TRUE(equal(payload(512, 7), out));
}

TEST_F(FaultDiskTest, CleanCrashDropsTheWholeWrite) {
  auto plan = std::make_shared<CrashPlan>();
  plan->crash_at = 1;
  fault_.set_crash_plan(plan);
  ASSERT_OK(fault_.write(0, payload(512, 1)));       // write 0
  EXPECT_CODE(io_error, fault_.write(1, payload(512, 2)));  // crash
  EXPECT_TRUE(plan->crashed);
  Bytes out(512);
  EXPECT_CODE(io_error, fault_.read(0, out));  // dead after the crash
  EXPECT_CODE(io_error, fault_.write(2, payload(512, 3)));
  EXPECT_CODE(io_error, fault_.flush());
  // The crashed write left no bytes behind.
  ASSERT_OK(inner_.read(1, out));
  EXPECT_TRUE(equal(Bytes(512, 0), out));
}

TEST_F(FaultDiskTest, TornPrefixKeepsWholeBlocksOnly) {
  auto plan = std::make_shared<CrashPlan>();
  plan->crash_at = 0;
  plan->mode = CrashPlan::TearMode::torn_prefix;
  plan->seed = 7;
  fault_.set_crash_plan(plan);
  EXPECT_CODE(io_error, fault_.write(0, payload(4 * 512, 9)));
  // Every block is either fully new or fully old (zero).
  const Bytes want = payload(4 * 512, 9);
  Bytes out(512);
  for (std::uint64_t b = 0; b < 4; ++b) {
    ASSERT_OK(inner_.read(b, out));
    const ByteSpan fresh(want.data() + b * 512, 512);
    EXPECT_TRUE(equal(fresh, out) || equal(Bytes(512, 0), out))
        << "block " << b << " is torn mid-block";
  }
}

TEST_F(FaultDiskTest, TornBytesRespectsAlignment) {
  auto plan = std::make_shared<CrashPlan>();
  plan->crash_at = 0;
  plan->mode = CrashPlan::TearMode::torn_bytes;
  plan->torn_align = 16;
  plan->seed = 3;
  fault_.set_crash_plan(plan);
  EXPECT_CODE(io_error, fault_.write(0, payload(2 * 512, 11)));
  // The persisted image is a prefix of the new bytes at 16-byte
  // granularity, with old (zero) bytes after the tear point.
  const Bytes want = payload(2 * 512, 11);
  Bytes got(2 * 512);
  ASSERT_OK(inner_.read(0, got));
  std::size_t tear = 0;
  while (tear < got.size() && got[tear] == want[tear]) ++tear;
  EXPECT_EQ(0u, tear % 16) << "tear point not 16-byte aligned";
  for (std::size_t i = tear; i < got.size(); ++i) {
    ASSERT_EQ(0, got[i]) << "stale non-zero byte after the tear";
  }
}

TEST_F(FaultDiskTest, SharedPlanCountsWritesAcrossDisks) {
  MemDisk inner2(512, 64);
  FaultDisk fault2(&inner2);
  auto plan = std::make_shared<CrashPlan>();
  plan->crash_at = 2;
  fault_.set_crash_plan(plan);
  fault2.set_crash_plan(plan);
  ASSERT_OK(fault_.write(0, payload(512, 1)));   // write 0
  ASSERT_OK(fault2.write(0, payload(512, 1)));   // write 1
  EXPECT_CODE(io_error, fault_.write(1, payload(512, 2)));  // write 2: crash
  // The other disk attached to the plan is dead too.
  EXPECT_CODE(io_error, fault2.write(1, payload(512, 2)));
  Bytes out(512);
  EXPECT_CODE(io_error, fault2.read(0, out));
}

TEST_F(FaultDiskTest, ProbabilisticLatentArming) {
  fault_.arm_latent_on_write(/*one_in=*/1, /*seed=*/42);  // arm every write
  ASSERT_OK(fault_.write(9, payload(512, 1)));
  Bytes out(512);
  EXPECT_CODE(io_error, fault_.read(9, out));
  EXPECT_EQ(1u, fault_.latent_trips());
}

// --- mirror behaviours under injected faults ---------------------------

class FaultMirrorTest : public ::testing::Test {
 protected:
  FaultMirrorTest()
      : a_(512, 64), b_(512, 64), fa_(&a_), fb_(&b_) {
    auto mirror = MirroredDisk::create({&fa_, &fb_});
    EXPECT_TRUE(mirror.ok());
    mirror_ = std::make_unique<MirroredDisk>(std::move(mirror).value());
  }
  MemDisk a_, b_;
  FaultDisk fa_, fb_;
  std::unique_ptr<MirroredDisk> mirror_;
};

TEST_F(FaultMirrorTest, ReadRepairHealsLatentErrorWithoutDemotion) {
  ASSERT_OK(mirror_->write(10, payload(3 * 512, 1)));
  fa_.arm_latent_error(11);  // middle block of the run rots on replica 0
  Bytes out(3 * 512);
  ASSERT_OK(mirror_->read(10, out));
  EXPECT_TRUE(equal(payload(3 * 512, 1), out));
  // The peer served block 11 and the bad copy was rewritten in place.
  EXPECT_EQ(1u, mirror_->health().read_repairs);
  EXPECT_EQ(0u, mirror_->health().failovers);
  EXPECT_EQ(2, mirror_->healthy_count());
  // The rewrite cleared the latent error: replica 0 serves it again.
  Bytes direct(512);
  ASSERT_OK(fa_.read(11, direct));
  EXPECT_TRUE(equal(ByteSpan(out.data() + 512, 512), direct));
}

TEST_F(FaultMirrorTest, TransientErrorAbsorbedByBlockRetry) {
  ASSERT_OK(mirror_->write(5, payload(512, 2)));
  fa_.inject_read_error(5, /*transient=*/true);
  Bytes out(512);
  ASSERT_OK(mirror_->read(5, out));
  EXPECT_TRUE(equal(payload(512, 2), out));
  // The bulk-read failure consumed the transient fault; the per-block
  // retry on the same replica succeeded, so no peer detour was needed.
  EXPECT_EQ(0u, mirror_->health().read_repairs);
  EXPECT_EQ(0u, mirror_->health().failovers);
  EXPECT_EQ(2, mirror_->healthy_count());
  EXPECT_GE(mirror_->health().io_errors, 1u);
}

TEST_F(FaultMirrorTest, ErrorBudgetExhaustionDemotesReplica) {
  mirror_->set_error_budget(2);
  ASSERT_OK(mirror_->write(0, payload(4 * 512, 3)));
  Bytes out(512);
  for (std::uint64_t b = 0; b < 3; ++b) {
    fa_.arm_latent_error(b);
    // Peer serves it, write-back clears the latent fault, error charged.
    ASSERT_OK(mirror_->read(b, out));
  }
  EXPECT_EQ(3u, mirror_->replica_errors(0));
  EXPECT_FALSE(mirror_->is_healthy(0));  // 3 errors > budget of 2
  EXPECT_EQ(1u, mirror_->health().failovers);
  // Service continues from the survivor.
  ASSERT_OK(mirror_->read(3, out));
}

TEST_F(FaultMirrorTest, TransientWriteErrorAbsorbedByRetry) {
  fb_.inject_write_error(4, /*transient=*/true);
  ASSERT_OK(mirror_->write(4, payload(512, 4)));
  EXPECT_EQ(2, mirror_->healthy_count());  // retry succeeded, no demotion
  Bytes out(512);
  ASSERT_OK(b_.read(4, out));
  EXPECT_TRUE(equal(payload(512, 4), out));
}

TEST_F(FaultMirrorTest, PermanentWriteErrorDemotesReplica) {
  fb_.inject_write_error(4, /*transient=*/false);
  ASSERT_OK(mirror_->write(4, payload(512, 5)));
  EXPECT_FALSE(mirror_->is_healthy(1));
  EXPECT_EQ(1u, mirror_->health().failovers);
}

TEST_F(FaultMirrorTest, BackgroundWriteFailureIsCounted) {
  fb_.inject_write_error(6, /*transient=*/false);
  auto written = mirror_->write_partial(6, payload(512, 6), 1);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(1, written.value());
  ASSERT_OK(mirror_->write_remaining(6, payload(512, 6), 1));
  EXPECT_EQ(1u, mirror_->health().bg_write_failures);
  EXPECT_FALSE(mirror_->is_healthy(1));
}

TEST_F(FaultMirrorTest, ScrubRepairHealsTornWrite) {
  ASSERT_OK(mirror_->write(20, payload(2 * 512, 7)));
  // Replica 1 suffers a torn version of a later overwrite: only the first
  // block of the two-block update landed.
  const Bytes update = payload(2 * 512, 8);
  ASSERT_OK(a_.write(20, update));
  ASSERT_OK(b_.write(20, ByteSpan(update.data(), 512)));  // torn: 1 of 2
  auto report = mirror_->scrub(/*repair=*/true);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(1u, report.value().mismatched_blocks);
  EXPECT_EQ(1u, report.value().repaired_blocks);
  Bytes out(2 * 512);
  ASSERT_OK(b_.read(20, out));
  EXPECT_TRUE(equal(update, out));
}

TEST_F(FaultMirrorTest, ScrubRepairHealsBitRot) {
  ASSERT_OK(mirror_->write(30, payload(512, 9)));
  ASSERT_OK(fb_.corrupt_block(30, 17, 0x01));  // silent single-bit flip
  auto report = mirror_->scrub(/*repair=*/true);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(1u, report.value().mismatched_blocks);
  EXPECT_EQ(1u, report.value().repaired_blocks);
  Bytes out(512);
  ASSERT_OK(b_.read(30, out));
  EXPECT_TRUE(equal(payload(512, 9), out));
  // Clean after repair.
  report = mirror_->scrub(/*repair=*/false);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(0u, report.value().mismatched_blocks);
}

TEST_F(FaultMirrorTest, ScrubDemotesUnreadableReplicaAndContinues) {
  ASSERT_OK(mirror_->write(0, payload(512, 10)));
  fb_.inject_read_error(40, /*transient=*/false);
  auto report = mirror_->scrub(/*repair=*/false);
  ASSERT_TRUE(report.ok());  // the scrub itself succeeds
  EXPECT_FALSE(mirror_->is_healthy(1));
  EXPECT_EQ(1u, mirror_->health().failovers);
}

// --- the acceptance scenario: read-repair through the whole server ------

TEST(FaultServerTest, CacheMissReadServedViaReadRepairWithoutDemotion) {
  MemDisk a(512, 1024), b(512, 1024);
  ASSERT_OK(BulletServer::format(a, 64));
  ASSERT_OK(b.restore(a.snapshot()));
  FaultDisk fa(&a), fb(&b);
  auto mirror = MirroredDisk::create({&fa, &fb});
  ASSERT_TRUE(mirror.ok());
  MirroredDisk md = std::move(mirror).value();
  BulletConfig config;
  config.cache_bytes = 64 << 10;
  auto server = BulletServer::start(&md, config);
  ASSERT_OK(status_of(server));

  const Bytes data = payload(5000, 123);
  auto cap = server.value()->create(data, 2);
  ASSERT_OK(status_of(cap));

  // Evict the file from RAM by rebooting the server, then seed a latent
  // sector error in the middle of the file's extent on the main replica:
  // the cache-miss READ must detour to the peer for that one block.
  server.value().reset();
  auto mirror2 = MirroredDisk::create({&fa, &fb});
  ASSERT_TRUE(mirror2.ok());
  MirroredDisk md2 = std::move(mirror2).value();
  auto rebooted = BulletServer::start(&md2, config);
  ASSERT_OK(status_of(rebooted));
  const auto objects = rebooted.value()->list_objects();
  ASSERT_EQ(1u, objects.size());
  fa.arm_latent_error(objects[0].first_block + 3);

  auto read = rebooted.value()->read(cap.value());
  ASSERT_OK(status_of(read));
  EXPECT_EQ(data.size(), read.value().size());
  EXPECT_EQ(crc32c(data), crc32c(read.value()));

  const std::string stats = rebooted.value()->metrics_text();
  EXPECT_EQ(1u, testing::metric(stats, "bullet_read_repairs_total"));
  EXPECT_EQ(0u, testing::metric(stats, "bullet_failovers_total"));
  EXPECT_EQ(2u, testing::metric(stats, "bullet_healthy_replicas"));
  EXPECT_GE(testing::metric(stats, "bullet_io_errors_total"), 1u);

  // The repair rewrote the block: replica 0 serves the whole file again.
  Bytes direct(512);
  ASSERT_OK(fa.read(objects[0].first_block + 3, direct));
}

}  // namespace
}  // namespace bullet
