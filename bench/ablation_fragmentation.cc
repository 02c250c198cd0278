// Ablation A4: external fragmentation and compaction.
//
//   "the conscious choice of using contiguous files may require buying,
//    say, an 800 MB disk to store 500 MB worth of files (the rest being
//    lost to fragmentation unless compaction is done). ... The disk
//    fragmentation can also be relieved by compaction every morning at say
//    3 am."
//
// Runs a create/delete churn workload with the paper's file-size profile
// (median ~1 KB, 99% < 64 KB) and reports fragmentation over time, the
// utilization reached when the first allocation fails, and the effect of
// the 3 am compaction.
#include "bench/bench_util.h"

namespace bullet::bench {
namespace {

int run() {
  sim::Clock clock;
  MemDisk raw0(512, 1 << 14), raw1(512, 1 << 14);  // 8 MB disks
  SimDisk sim0(&raw0, sim::Testbed1989::disk(), &clock);
  SimDisk sim1(&raw1, sim::Testbed1989::disk(), &clock);
  (void)BulletServer::format(raw0, 2048);
  (void)raw1.restore(raw0.snapshot());
  auto mirror = MirroredDisk::create({&sim0, &sim1});
  auto mirror_disk = std::move(mirror).value();
  BulletConfig config;
  config.clock = &clock;
  config.cache_bytes = 2 << 20;
  auto server = BulletServer::start(&mirror_disk, config).value();

  const std::uint64_t data_bytes =
      server->disk_free().total_free() * server->layout().block_size();

  Rng rng(8);
  std::vector<Capability> live;
  std::uint64_t live_bytes = 0;

  auto random_size = [&rng]() -> std::uint64_t {
    // Paper-profile sizes: mostly ~1 KB, occasionally tens of KB.
    const std::uint64_t d = rng.next_below(100);
    if (d < 50) return rng.next_range(64, 2048);
    if (d < 90) return rng.next_range(2048, 16384);
    if (d < 99) return rng.next_range(16384, 65536);
    return rng.next_range(65536, 262144);
  };

  std::printf("Ablation A4: fragmentation under churn (8 MB data region, "
              "paper file-size profile)\n");
  std::printf("\n  %-8s %12s %12s %10s %14s\n", "ops", "utilization",
              "free bytes", "holes", "largest hole");
  std::printf("  %-8s %12s %12s %10s %14s\n", "---", "-----------",
              "----------", "-----", "------------");

  std::uint64_t first_failure_utilization_pct = 0;
  for (int op = 1; op <= 4000; ++op) {
    const bool create = live.empty() || rng.next_below(100) < 55;
    if (create) {
      const std::uint64_t size = random_size();
      auto cap = server->create(rng.next_bytes(size), 1);
      if (cap.ok()) {
        live.push_back(cap.value());
        live_bytes += size;
      } else if (first_failure_utilization_pct == 0) {
        first_failure_utilization_pct = live_bytes * 100 / data_bytes;
      }
    } else {
      const auto idx = rng.next_below(live.size());
      auto size = server->size(live[idx]);
      (void)server->erase(live[idx]);
      live_bytes -= size.value_or(0);
      live[idx] = live.back();
      live.pop_back();
    }
    if (op % 800 == 0) {
      const std::string stats = server->metrics_text();
      std::printf("  %-8d %11" PRIu64 "%% %12" PRIu64 " %10" PRIu64
                  " %14" PRIu64 "\n",
                  op, live_bytes * 100 / data_bytes,
                  metric(stats, "bullet_disk_free_bytes"),
                  metric(stats, "bullet_disk_holes"),
                  metric(stats, "bullet_disk_largest_hole_bytes"));
    }
  }

  const std::string before = server->metrics_text();
  auto moved = server->compact_disk();
  const std::string after = server->metrics_text();
  std::printf("\n3 am compaction: moved %" PRIu64 " blocks; holes %" PRIu64
              " -> %" PRIu64 "; largest hole %" PRIu64 " -> %" PRIu64
              " bytes\n",
              moved.value_or(0), metric(before, "bullet_disk_holes"),
              metric(after, "bullet_disk_holes"),
              metric(before, "bullet_disk_largest_hole_bytes"),
              metric(after, "bullet_disk_largest_hole_bytes"));
  if (first_failure_utilization_pct > 0) {
    std::printf("first allocation failure at %" PRIu64
                "%% utilization (paper's rule of thumb: ~60%%: \"800 MB "
                "disk to store 500 MB\")\n",
                first_failure_utilization_pct);
  } else {
    std::printf("no allocation failure during the run\n");
  }
  std::printf("\n");
  return 0;
}

}  // namespace
}  // namespace bullet::bench

int main() { return bullet::bench::run(); }
