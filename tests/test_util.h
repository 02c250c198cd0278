// Shared fixtures and helpers for the test suite.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bullet/client.h"
#include "bullet/server.h"
#include "common/crc.h"
#include "common/rng.h"
#include "disk/mem_disk.h"
#include "disk/mirrored_disk.h"
#include "rpc/transport.h"

namespace bullet::testing {

// Pretty assertion helpers for Status / Result.
#define ASSERT_OK(expr)                                           \
  do {                                                            \
    const auto& _st = (expr);                                     \
    ASSERT_TRUE(_st.ok()) << "status: " << ::bullet::to_string(_st.code()); \
  } while (0)

#define EXPECT_OK(expr)                                           \
  do {                                                            \
    const auto& _st = (expr);                                     \
    EXPECT_TRUE(_st.ok()) << "status: " << ::bullet::to_string(_st.code()); \
  } while (0)

#define EXPECT_CODE(code_, expr)                  \
  do {                                            \
    const auto& _st = (expr);                     \
    EXPECT_FALSE(_st.ok());                       \
    EXPECT_EQ(::bullet::ErrorCode::code_, _st.code()) \
        << ::bullet::to_string(_st.code());       \
  } while (0)

// A ready-to-use Bullet deployment on two mirrored in-memory disks.
class BulletHarness {
 public:
  struct Options {
    std::uint64_t block_size = 512;
    std::uint64_t disk_blocks = 4096;     // 2 MB per replica by default
    std::uint32_t inode_slots = 256;
    std::uint64_t cache_bytes = 1 << 20;  // 1 MB
    int replicas = 2;
  };

  BulletHarness() : BulletHarness(Options{}) {}

  explicit BulletHarness(Options options) : options_(options) {
    for (int i = 0; i < options.replicas; ++i) {
      disks_.push_back(std::make_unique<MemDisk>(options.block_size,
                                                 options.disk_blocks));
    }
    auto st = BulletServer::format(*disks_.front(), options.inode_slots);
    EXPECT_TRUE(st.ok()) << st.to_string();
    // Replicas start identical.
    for (int i = 1; i < options.replicas; ++i) {
      auto st2 = disks_[static_cast<std::size_t>(i)]->restore(
          disks_.front()->snapshot());
      EXPECT_TRUE(st2.ok()) << st2.to_string();
    }
    reboot();
  }

  // Tear the server down and boot a fresh instance from the same disks
  // (state must come back from the disk images). The no-argument form
  // applies the harness options (cache size); the explicit form uses the
  // given config verbatim.
  void reboot() {
    BulletConfig config;
    config.cache_bytes = options_.cache_bytes;
    reboot(config);
  }

  void reboot(BulletConfig config) {
    server_.reset();
    mirror_.reset();
    std::vector<BlockDevice*> replicas;
    for (auto& d : disks_) replicas.push_back(d.get());
    auto mirror = MirroredDisk::create(std::move(replicas));
    ASSERT_TRUE(mirror.ok()) << mirror.error().to_string();
    mirror_ = std::make_unique<MirroredDisk>(std::move(mirror).value());
    auto server = BulletServer::start(mirror_.get(), config);
    ASSERT_TRUE(server.ok()) << server.error().to_string();
    server_ = std::move(server).value();
  }

  BulletServer& server() { return *server_; }
  MirroredDisk& mirror() { return *mirror_; }
  MemDisk& disk(int i) { return *disks_[static_cast<std::size_t>(i)]; }
  const Options& options() const { return options_; }

 private:
  Options options_;
  std::vector<std::unique_ptr<MemDisk>> disks_;
  std::unique_ptr<MirroredDisk> mirror_;
  std::unique_ptr<BulletServer> server_;
};

// A BlockDevice decorator that holds every read overlapping an armed block
// range until release(), and counts those reads. Lets a test keep an async
// cache fill in flight for as long as it needs to race other callers
// against it. fail_writes() makes every write fail with an I/O error.
class GatedDisk final : public BlockDevice {
 public:
  explicit GatedDisk(BlockDevice* inner) : inner_(inner) {}

  std::uint64_t block_size() const noexcept override {
    return inner_->block_size();
  }
  std::uint64_t num_blocks() const noexcept override {
    return inner_->num_blocks();
  }

  void arm(std::uint64_t first_block, std::uint64_t blocks) {
    std::lock_guard<std::mutex> lock(mu_);
    first_ = first_block;
    blocks_ = blocks;
    open_ = false;
  }
  void release() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  // Block until `n` reads of the armed range are being held.
  void wait_held(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return held_ >= n; });
  }
  std::uint64_t range_reads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return range_reads_;
  }
  void fail_writes(bool fail) { fail_writes_ = fail; }

  Status read(std::uint64_t first_block, MutableByteSpan out) override {
    const std::uint64_t blocks = out.size() / block_size();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (blocks_ > 0 && first_block < first_ + blocks_ &&
          first_ < first_block + blocks) {
        ++range_reads_;
        ++held_;
        cv_.notify_all();
        cv_.wait(lock, [&] { return open_; });
        --held_;
      }
    }
    return inner_->read(first_block, out);
  }
  Status write(std::uint64_t first_block, ByteSpan data) override {
    if (fail_writes_) return Error(ErrorCode::io_error, "injected");
    return inner_->write(first_block, data);
  }
  Status flush() override { return inner_->flush(); }

 private:
  BlockDevice* inner_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t first_ = 0;
  std::uint64_t blocks_ = 0;
  bool open_ = true;
  std::atomic<bool> fail_writes_{false};
  int held_ = 0;
  std::uint64_t range_reads_ = 0;
};

// Deterministic payload of `n` bytes derived from `seed`.
inline Bytes payload(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return rng.next_bytes(n);
}

// A collision-free temp path ending in `suffix`. ctest runs every TEST as
// its own process, possibly many in parallel, so fixed file names under
// TempDir() collide across cases and across concurrent runs of the same
// binary; this derives the name from the running test, the pid, and a
// per-process counter.
inline std::string unique_temp_path(const std::string& suffix) {
  static std::atomic<unsigned> counter{0};
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = info != nullptr
                         ? std::string(info->test_suite_name()) + "-" +
                               std::string(info->name())
                         : std::string("standalone");
  for (char& c : test) {
    if (c == '/' || c == '\\') c = '_';
  }
  return ::testing::TempDir() + "bullet-" + test + "-" +
         std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + suffix;
}

// Collapse a Result<T> into a Status for EXPECT_CODE.
template <typename T>
Status status_of(const Result<T>& result) {
  return result.ok() ? Status::success() : Status(result.error());
}
inline Status status_of(const Status& status) { return status; }

}  // namespace bullet::testing
