// bullet_server — a deployable Bullet file server daemon.
//
// Serves one or two file-backed disk images (mirrored replicas) over UDP,
// together with a directory server persisted in the Bullet store:
//
//   bullet_server --image a.img [--image b.img] [--port 4132]
//                 [--cache-mb 64] [--dir-bootstrap FILE] [--workers 4]
//                 [--io-threads 2]
//
// On startup it prints the UDP port, the Bullet super capability, the
// directory super capability, and the root directory capability; clients
// (bullet_client, or anything built on BulletClient/DirClient over
// UdpTransport) need exactly those strings. The root/bootstrap capability
// is kept in --dir-bootstrap (default: <first image>.dircap) so directory
// state survives restarts.
//
// Runs until SIGINT/SIGTERM; shuts down cleanly (checkpoint + sync).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bullet/client.h"
#include "bullet/server.h"
#include "dir/client.h"
#include "dir/server.h"
#include "disk/file_disk.h"
#include "disk/mirrored_disk.h"
#include "obs/trace.h"
#include "rpc/udp_transport.h"

using namespace bullet;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

int usage() {
  std::fprintf(stderr,
               "usage: bullet_server --image FILE [--image FILE] "
               "[--port N] [--cache-mb N] [--dir-bootstrap FILE] "
               "[--workers N] [--io-threads N] [--no-trace] "
               "[--trace-sample N] [--max-queue N] [--max-client-queue N] "
               "[--max-inflight N] [--shed-retry-ms N] "
               "[--peer UDP-PORT --role primary|backup]\n");
  return 2;
}

struct BootstrapFile {
  // The persisted pair: directory-state snapshot + root directory cap.
  Capability snapshot;
  Capability root;
};

bool load_bootstrap(const std::string& path, BootstrapFile* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string snapshot_text, root_text;
  if (!std::getline(in, snapshot_text) || !std::getline(in, root_text)) {
    return false;
  }
  const auto snapshot = Capability::from_string(snapshot_text);
  const auto root = Capability::from_string(root_text);
  if (!snapshot || !root) return false;
  out->snapshot = *snapshot;
  out->root = *root;
  return true;
}

bool save_bootstrap(const std::string& path, const BootstrapFile& data) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << data.snapshot.to_string() << "\n" << data.root.to_string() << "\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> images;
  std::uint16_t udp_port = 4132;
  std::uint64_t cache_mb = 64;
  std::string bootstrap_path;
  unsigned workers = 4;
  // Disk submissions run on a completion pool so no UDP worker ever blocks
  // inside a device read/write; 0 executes ops inline (pre-pipeline mode).
  unsigned io_threads = 2;
  // Overload control (docs/OPERATIONS.md "Overload and pushback"): bound
  // the dispatch queue and the in-flight disk fills so open-loop overload
  // is shed in O(1) with BS_PUSHBACK instead of collapsing p99. 0 disables
  // a bound.
  std::size_t max_queue = 1024;
  std::size_t max_client_queue = 0;
  std::size_t max_inflight = 256;
  std::uint32_t shed_retry_ms = 50;
  // Replicated pair: the other server's UDP port and this side's role.
  // Both daemons must share the library's default private port and secret
  // (they do unless the build customizes BulletConfig), so capabilities
  // verify at either replica.
  std::uint16_t peer_port = 0;
  BulletServer::ReplRole role = BulletServer::ReplRole::kSolo;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--image") {
      const char* v = next();
      if (v == nullptr) return usage();
      images.push_back(v);
    } else if (arg == "--port") {
      const char* v = next();
      if (v == nullptr) return usage();
      udp_port = static_cast<std::uint16_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--cache-mb") {
      const char* v = next();
      if (v == nullptr) return usage();
      cache_mb = std::strtoull(v, nullptr, 10);
    } else if (arg == "--dir-bootstrap") {
      const char* v = next();
      if (v == nullptr) return usage();
      bootstrap_path = v;
    } else if (arg == "--workers") {
      const char* v = next();
      if (v == nullptr) return usage();
      workers = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--io-threads") {
      const char* v = next();
      if (v == nullptr) return usage();
      io_threads = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--max-queue") {
      const char* v = next();
      if (v == nullptr) return usage();
      max_queue = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--max-client-queue") {
      const char* v = next();
      if (v == nullptr) return usage();
      max_client_queue =
          static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--max-inflight") {
      const char* v = next();
      if (v == nullptr) return usage();
      max_inflight = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--shed-retry-ms") {
      const char* v = next();
      if (v == nullptr) return usage();
      shed_retry_ms = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--peer") {
      const char* v = next();
      if (v == nullptr) return usage();
      peer_port = static_cast<std::uint16_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--role") {
      const char* v = next();
      if (v == nullptr) return usage();
      if (std::strcmp(v, "primary") == 0) {
        role = BulletServer::ReplRole::kPrimary;
      } else if (std::strcmp(v, "backup") == 0) {
        role = BulletServer::ReplRole::kBackup;
      } else {
        return usage();
      }
    } else if (arg == "--no-trace") {
      // Disables sampling AND client-forced traces (the overhead baseline).
      obs::set_tracing_enabled(false);
    } else if (arg == "--trace-sample") {
      // Trace 1 in N id-less requests (default obs::kDefaultSampleEvery).
      const char* v = next();
      if (v == nullptr) return usage();
      obs::set_sample_every(
          static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10)));
    } else {
      return usage();
    }
  }
  if (images.empty() || images.size() > 2) return usage();
  if (workers == 0) {
    // Requests execute on the worker pool (the receive thread answers only
    // what rpc::Service::try_handle_now accepts), so it needs a thread.
    std::fprintf(stderr, "bad argument: --workers must be at least 1\n");
    return 2;
  }
  if ((peer_port != 0) != (role != BulletServer::ReplRole::kSolo)) {
    std::fprintf(stderr, "--peer and --role go together\n");
    return usage();
  }
  if (bootstrap_path.empty()) bootstrap_path = images.front() + ".dircap";

  // Open the replica images (they must be pre-formatted via bullet_tool).
  std::vector<std::unique_ptr<FileDisk>> disks;
  std::vector<BlockDevice*> replicas;
  for (const std::string& path : images) {
    auto probe = FileDisk::open(path, 512, 1);
    if (!probe.ok()) {
      std::fprintf(stderr, "open %s: %s\n", path.c_str(),
                   probe.error().to_string().c_str());
      return 1;
    }
    Bytes block0(512);
    if (!probe.value().read(0, block0).ok()) return 1;
    auto desc = DiskDescriptor::decode(
        ByteSpan(block0.data(), DiskDescriptor::kDiskSize));
    if (!desc.ok()) {
      std::fprintf(stderr, "%s: %s (format it with bullet_tool)\n",
                   path.c_str(), desc.error().to_string().c_str());
      return 1;
    }
    const std::uint64_t blocks =
        static_cast<std::uint64_t>(desc.value().control_blocks) +
        desc.value().data_blocks;
    auto disk = FileDisk::open(path, desc.value().block_size, blocks);
    if (!disk.ok()) return 1;
    disks.push_back(std::make_unique<FileDisk>(std::move(disk).value()));
    replicas.push_back(disks.back().get());
  }
  auto mirror = MirroredDisk::create(replicas);
  if (!mirror.ok()) {
    std::fprintf(stderr, "mirror: %s\n", mirror.error().to_string().c_str());
    return 1;
  }
  auto mirror_disk = std::move(mirror).value();

  BulletConfig config;
  config.cache_bytes = cache_mb << 20;
  config.io_threads = io_threads;
  config.max_inflight_fills = max_inflight;
  auto server = BulletServer::start(&mirror_disk, config);
  if (!server.ok()) {
    std::fprintf(stderr, "boot: %s\n", server.error().to_string().c_str());
    return 1;
  }
  const auto& boot = server.value()->boot_report();
  std::fprintf(stderr, "bullet: %llu files, %llu repairs at boot\n",
               static_cast<unsigned long long>(boot.files),
               static_cast<unsigned long long>(boot.repairs()));

  // Replicated pair: connect the peer link and, if the peer is already up,
  // reconcile before taking traffic so a restarted replica returns current.
  std::unique_ptr<rpc::UdpTransport> peer_link;
  if (peer_port != 0) {
    rpc::UdpClientOptions peer_options;
    peer_options.server_udp_port = peer_port;
    auto link = rpc::UdpTransport::connect(peer_options);
    if (!link.ok()) {
      std::fprintf(stderr, "peer: %s\n", link.error().to_string().c_str());
      return 1;
    }
    peer_link = std::move(link).value();
    server.value()->attach_replica(peer_link.get(), role);
    const auto status = server.value()->repl_status();
    if (status.peer_healthy) {
      auto resync = server.value()->resync_with_peer();
      if (resync.ok()) {
        std::fprintf(stderr,
                     "resync: pulled %llu, pushed %llu, erases %llu\n",
                     static_cast<unsigned long long>(resync.value().files_pulled),
                     static_cast<unsigned long long>(resync.value().files_pushed),
                     static_cast<unsigned long long>(
                         resync.value().erases_applied));
      } else {
        std::fprintf(stderr, "resync failed (serving degraded): %s\n",
                     resync.error().to_string().c_str());
      }
    } else {
      std::fprintf(stderr, "peer on port %u not answering; serving solo "
                   "until it resyncs\n", peer_port);
    }
  }

  // Directory server over the local (in-process) path to the Bullet server.
  rpc::LoopbackTransport local;
  (void)local.register_service(server.value().get());
  BulletClient storage(&local, server.value()->super_capability());
  dir::DirConfig dir_config;
  BootstrapFile bootstrap;
  const bool restored = load_bootstrap(bootstrap_path, &bootstrap);
  if (restored) dir_config.restore_from = bootstrap.snapshot;
  auto dir_server = dir::DirServer::start(storage, dir_config);
  if (!dir_server.ok()) {
    std::fprintf(stderr, "dir: %s\n", dir_server.error().to_string().c_str());
    return 1;
  }
  if (!restored) {
    auto root = dir_server.value()->create_dir();
    if (!root.ok()) return 1;
    bootstrap.root = root.value();
  }

  // Network front door.
  rpc::UdpServerOptions udp_options;
  udp_options.udp_port = udp_port;
  udp_options.workers = workers;
  udp_options.max_queue = max_queue;
  udp_options.max_client_queue = max_client_queue;
  udp_options.shed_retry_ms = shed_retry_ms;
  auto udp = rpc::UdpServer::start(udp_options);
  if (!udp.ok()) {
    std::fprintf(stderr, "udp: %s\n", udp.error().to_string().c_str());
    return 1;
  }
  server.value()->attach_io_counters(&udp.value()->io_counters());
  // The directory server is single-threaded; the Bullet server is
  // thread-safe and registered directly.
  rpc::SerializedService dir_service(dir_server.value().get());
  (void)udp.value()->register_service(server.value().get());
  (void)udp.value()->register_service(&dir_service);

  std::printf("udp-port: %u\n", udp.value()->port());
  std::printf("bullet-cap: %s\n",
              server.value()->super_capability().to_string().c_str());
  std::printf("dir-cap: %s\n",
              dir_server.value()->super_capability().to_string().c_str());
  std::printf("root-cap: %s\n", bootstrap.root.to_string().c_str());
  std::fflush(stdout);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (g_stop == 0) {
    struct timespec ts = {0, 100 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }

  // Clean shutdown: persist the directory state and sync the disks. The
  // checkpoint runs while still attached: a backup must write its snapshot
  // file with top-down slot allocation, or two replicas shut down during a
  // partition land their snapshots on the same slot (a resync conflict).
  udp.value()->stop();
  auto snapshot = dir_server.value()->checkpoint();
  if (peer_link != nullptr) server.value()->detach_replica();
  if (snapshot.ok()) {
    bootstrap.snapshot = snapshot.value();
    if (!save_bootstrap(bootstrap_path, bootstrap)) {
      std::fprintf(stderr, "warning: could not save %s\n",
                   bootstrap_path.c_str());
    }
  }
  (void)server.value()->sync();
  std::fprintf(stderr, "shut down cleanly\n");
  return 0;
}
