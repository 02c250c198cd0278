// Ablation A3: the value of the contiguous RAM cache.
//
//   "In all cases the test file will be completely in memory, and no disk
//    accesses are necessary." (Fig. 2's reads are warm.)
//
// Measures warm (rnode cache hit) vs. cold (load from disk) read delay per
// file size, and the aggregate effect of cache capacity on a Zipf-ish
// working set.
#include "bench/bench_util.h"

namespace bullet::bench {
namespace {

int run() {
  std::printf("Ablation A3: warm vs. cold reads (the rnode cache)\n");
  std::printf("\n  %-12s %12s %12s %10s\n", "File Size", "warm (ms)",
              "cold (ms)", "penalty");
  std::printf("  %-12s %12s %12s %10s\n", "---------", "---------",
              "---------", "-------");

  Rng rng(5);
  for (const SizeRow& row : kFileSizes) {
    BulletRig rig;
    const Bytes data = rng.next_bytes(row.bytes);
    auto cap = rig.client().create(data, 2);
    if (!cap.ok()) return 1;

    // Warm: just created, still cached.
    auto t0 = rig.clock().now();
    (void)rig.client().read(cap.value());
    const double warm_ms = sim::to_ms(rig.clock().now() - t0);

    // Cold: reboot the server (empty cache), read again.
    rig.boot();
    t0 = rig.clock().now();
    (void)rig.client().read(cap.value());
    const double cold_ms = sim::to_ms(rig.clock().now() - t0);

    std::printf("  %-12s %12.1f %12.1f %9.1fx\n", row.label, warm_ms,
                cold_ms, cold_ms / warm_ms);
  }

  // Working-set sweep: 64 files of 16 KB (1 MB total) under varying cache
  // sizes, accessed with a skewed pattern.
  std::printf("\nWorking set of 64 x 16 KB files, 2000 skewed reads:\n");
  std::printf("  %-14s %12s %12s %14s\n", "cache size", "hit rate",
              "evictions", "avg read (ms)");
  for (const std::uint64_t cache_kb : {64u, 256u, 512u, 1024u, 2048u}) {
    sim::Clock clock;
    MemDisk raw0(512, kBulletDeviceBlocks), raw1(512, kBulletDeviceBlocks);
    SimDisk sim0(&raw0, sim::Testbed1989::disk(), &clock);
    SimDisk sim1(&raw1, sim::Testbed1989::disk(), &clock);
    (void)BulletServer::format(raw0, 512);
    (void)raw1.restore(raw0.snapshot());
    auto mirror = MirroredDisk::create({&sim0, &sim1});
    auto mirror_disk = std::move(mirror).value();
    BulletConfig config;
    config.clock = &clock;
    config.cache_bytes = cache_kb * 1024;
    auto server = BulletServer::start(&mirror_disk, config).value();
    rpc::SimTransport transport(sim::Testbed1989::net(), &clock);
    (void)transport.register_service(server.get(),
                                     sim::Testbed1989::bullet_costs());
    BulletClient client(&transport, server->super_capability());

    Rng rng2(6);
    std::vector<Capability> caps;
    for (int i = 0; i < 64; ++i) {
      auto cap = client.create(rng2.next_bytes(16 << 10), 1);
      if (!cap.ok()) return 1;
      caps.push_back(cap.value());
    }
    const auto t0 = clock.now();
    for (int i = 0; i < 2000; ++i) {
      // Skewed access: square the uniform draw to favour low indices.
      const double u = rng2.next_double();
      const auto idx = static_cast<std::size_t>(u * u * 64.0);
      (void)client.read(caps[std::min<std::size_t>(idx, 63)]);
    }
    const double avg_ms = sim::to_ms((clock.now() - t0) / 2000);
    const std::string stats = server->metrics_text();
    const std::uint64_t hits = metric(stats, "bullet_cache_hits_total");
    const std::uint64_t misses = metric(stats, "bullet_cache_misses_total");
    const double hit_rate =
        static_cast<double>(hits) / static_cast<double>(hits + misses);
    std::printf("  %10" PRIu64 " KB %11.1f%% %12" PRIu64 " %14.1f\n",
                cache_kb, hit_rate * 100.0,
                metric(stats, "bullet_cache_evictions_total"), avg_ms);
  }
  std::printf("\n");
  return 0;
}

}  // namespace
}  // namespace bullet::bench

int main() { return bullet::bench::run(); }
