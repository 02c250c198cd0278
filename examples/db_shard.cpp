// Sharded database over immutable files — the paper's §2 suggestion made
// concrete:
//
//   "Data bases can be subdivided over many smaller Bullet files, for
//    example based on the identifying keys."
//
// A tiny user database: records hash into bucket files; each update
// rewrites one small bucket as a new immutable version and publishes it
// with compare-and-swap. Two clients update concurrently; the loser of a
// race retries transparently. Finally the database reopens from the
// directory alone — no other persistent state exists.
//
// Run:  ./build/examples/db_shard
#include <cinttypes>
#include <cstdio>
#include <string>

#include "bullet/client.h"
#include "bullet/server.h"
#include "dir/client.h"
#include "dir/server.h"
#include "disk/mem_disk.h"
#include "disk/mirrored_disk.h"
#include "kvstore/kv_store.h"
#include "obs/metrics.h"
#include "rpc/transport.h"

using namespace bullet;

int main() {
  MemDisk disk_a(512, 1 << 14), disk_b(512, 1 << 14);
  if (!BulletServer::format(disk_a, 1024).ok()) return 1;
  if (!disk_b.restore(disk_a.snapshot()).ok()) return 1;
  auto mirror = MirroredDisk::create({&disk_a, &disk_b});
  auto mirror_disk = std::move(mirror).value();
  auto server = BulletServer::start(&mirror_disk, BulletConfig());
  if (!server.ok()) return 1;

  rpc::LoopbackTransport transport;
  (void)transport.register_service(server.value().get());
  BulletClient files(&transport, server.value()->super_capability());
  auto dir_server = dir::DirServer::start(files, dir::DirConfig());
  if (!dir_server.ok()) return 1;
  (void)transport.register_service(dir_server.value().get());
  dir::DirClient names(&transport, dir_server.value()->super_capability());

  auto db_dir = names.create_dir();
  if (!db_dir.ok()) return 1;

  kvstore::KvConfig config;
  config.buckets = 8;
  auto db = kvstore::KvStore::create(files, names, db_dir.value(), config);
  if (!db.ok()) return 1;
  std::printf("created users db: %u bucket files\n", db.value().bucket_count());

  // Load some records.
  struct User {
    const char* id;
    const char* record;
  };
  const User users[] = {
      {"ast", "Andrew S. Tanenbaum, Vrije Universiteit"},
      {"rvr", "Robbert van Renesse, Vrije Universiteit"},
      {"wilschut", "Annita Wilschut, Universiteit Twente"},
      {"sape", "Sape Mullender, CWI Amsterdam"},
      {"henri", "Henri Bal, Vrije Universiteit"},
  };
  for (const User& user : users) {
    if (!db.value().put(user.id, as_span(user.record)).ok()) return 1;
  }
  std::printf("loaded %zu records into %" PRIu64 " live Bullet files total\n",
              std::size(users), server.value()->live_files());

  // Point lookup: touches exactly one small bucket.
  auto record = db.value().get("rvr");
  if (!record.ok() || !record.value().has_value()) return 1;
  std::printf("get(rvr) -> \"%s\"\n", to_string(*record.value()).c_str());

  // Two "clients" race on the same store (one bucket each put).
  auto other = kvstore::KvStore::open(files, names, db_dir.value(),
                                      kvstore::KvConfig());
  if (!other.ok()) return 1;
  for (int i = 0; i < 8; ++i) {
    if (!db.value().put("shared" + std::to_string(i), as_span("from-A")).ok())
      return 1;
    if (!other.value()
             .put("shared" + std::to_string(i), as_span("from-B"))
             .ok())
      return 1;
  }
  std::printf("after interleaved writers: %" PRIu64
              " records (CAS conflicts seen: %" PRIu64 " + %" PRIu64 ")\n",
              db.value().size().value_or(0), db.value().cas_conflicts(),
              other.value().cas_conflicts());

  // A small update rewrites one bucket, not the database.
  const auto creates = [&server] {
    return obs::metric_value(server.value()->metrics_text(),
                             "bullet_creates_total")
        .value_or(0);
  };
  const std::uint64_t creates_before = creates();
  if (!db.value().put("ast", as_span("Andrew S. Tanenbaum (updated)")).ok())
    return 1;
  std::printf("one update -> %" PRIu64 " new file version(s), not %u\n",
              creates() - creates_before,
              db.value().bucket_count());

  // Reopen purely from the directory: full scan in key order.
  auto reopened = kvstore::KvStore::open(files, names, db_dir.value(),
                                         kvstore::KvConfig());
  if (!reopened.ok()) return 1;
  auto keys = reopened.value().keys();
  if (!keys.ok()) return 1;
  std::printf("\nscan of reopened db (%zu keys):\n", keys.value().size());
  for (const auto& key : keys.value()) {
    auto value = reopened.value().get(key);
    if (!value.ok() || !value.value().has_value()) return 1;
    std::printf("  %-10s %s\n", key.c_str(),
                to_string(*value.value()).c_str());
  }
  return 0;
}
