// Quickstart: stand up a Bullet file server on two mirrored disks, use the
// four paper operations through the client API, and peek at the server's
// internals (layout, cache, free list).
//
// Run:  ./build/examples/quickstart
#include <cinttypes>
#include <cstdio>

#include "bullet/client.h"
#include "bullet/server.h"
#include "disk/mem_disk.h"
#include "disk/mirrored_disk.h"
#include "obs/metrics.h"
#include "rpc/transport.h"

using namespace bullet;

int main() {
  // 1. Two identical replica disks, as in the paper's deployment.
  MemDisk disk_a(512, 4096);  // 2 MB each
  MemDisk disk_b(512, 4096);
  if (!BulletServer::format(disk_a, 256).ok()) return 1;
  if (!disk_b.restore(disk_a.snapshot()).ok()) return 1;
  auto mirror = MirroredDisk::create({&disk_a, &disk_b});
  if (!mirror.ok()) return 1;
  auto mirror_disk = std::move(mirror).value();

  // 2. Boot the server (reads the inode table, runs consistency checks).
  auto server = BulletServer::start(&mirror_disk, BulletConfig());
  if (!server.ok()) {
    std::fprintf(stderr, "boot failed: %s\n",
                 server.error().to_string().c_str());
    return 1;
  }
  std::printf("Bullet server up on port %s\n",
              server.value()->public_port().to_string().c_str());

  // 3. Talk to it over RPC, like any Amoeba client would.
  rpc::LoopbackTransport transport;
  if (!transport.register_service(server.value().get()).ok()) return 1;
  BulletClient client(&transport, server.value()->super_capability());

  // BULLET.CREATE — P-FACTOR 2: on both disks before we resume.
  auto cap = client.create(as_span("files are immutable, contiguous, fast"), 2);
  if (!cap.ok()) return 1;
  std::printf("created file, capability = %s\n",
              cap.value().to_string().c_str());

  // BULLET.SIZE then BULLET.READ, the sequence the paper prescribes.
  auto size = client.size(cap.value());
  std::printf("BULLET.SIZE    -> %u bytes\n", size.value_or(0));
  auto data = client.read_whole(cap.value());
  if (!data.ok()) return 1;
  std::printf("BULLET.READ    -> \"%s\"\n", to_string(data.value()).c_str());

  // Immutability: there is no write. Updates create new versions.
  std::vector<wire::FileEdit> edits;
  edits.push_back(wire::FileEdit::make_overwrite(10, to_bytes("IMMUTABLE")));
  auto v2 = client.create_from(cap.value(), edits, 2);
  if (!v2.ok()) return 1;
  std::printf("CREATE-FROM    -> new version \"%s\"\n",
              to_string(client.read_whole(v2.value()).value()).c_str());

  // A capability is the only key: flip one bit and the server refuses.
  Capability forged = cap.value();
  forged.check ^= 1;
  std::printf("forged cap     -> %s\n",
              client.read(forged).ok() ? "ACCEPTED (bug!)" : "rejected");

  // BULLET.DELETE.
  if (!client.erase(cap.value()).ok()) return 1;
  std::printf("BULLET.DELETE  -> old version gone\n");

  // 4. Server internals.
  auto stats = client.stats_text();
  if (!stats.ok()) return 1;
  const auto metric = [&stats](const char* name) {
    return obs::metric_value(stats.value(), name).value_or(0);
  };
  std::printf(
      "\nserver stats: %" PRIu64 " creates, %" PRIu64 " reads, %" PRIu64
      " deletes\n"
      "  cache: %" PRIu64 " hits / %" PRIu64 " misses, %" PRIu64
      " bytes free\n"
      "  disk:  %" PRIu64 " bytes free in %" PRIu64
      " hole(s), largest %" PRIu64 "; %" PRIu64 " healthy replicas\n",
      metric("bullet_creates_total"), metric("bullet_reads_total"),
      metric("bullet_deletes_total"), metric("bullet_cache_hits_total"),
      metric("bullet_cache_misses_total"), metric("bullet_cache_free_bytes"),
      metric("bullet_disk_free_bytes"), metric("bullet_disk_holes"),
      metric("bullet_disk_largest_hole_bytes"),
      metric("bullet_healthy_replicas"));

  auto report = client.fsck();
  if (!report.ok()) return 1;
  std::printf("fsck: %" PRIu64 " files, %" PRIu64 " repairs needed\n",
              report.value().files, report.value().repairs());
  return 0;
}
