// bullet_tool — administration of Bullet servers and disk images.
//
// Offline commands operate on one file-backed replica image
// (dumpe2fs/debugfs style):
//
//   bullet_tool format <image> <size-mb> [inode-slots]
//   bullet_tool fsck   <image>
//   bullet_tool ls     <image>
//   bullet_tool stat   <image>
//   bullet_tool put    <image> <local-file> [pfactor]   -> prints capability
//   bullet_tool get    <image> <capability> [out-file]
//   bullet_tool rm     <image> <capability>
//   bullet_tool compact <image>
//
// Live commands talk to a running bullet_server over UDP (the port and
// admin capability are what the daemon prints at startup):
//
//   bullet_tool stats <port> <cap>                     metrics exposition
//   bullet_tool top   <port> <cap> [seconds]           rates over an interval
//   bullet_tool trace <port> <cap> [--slow DUR] [--max N]  span chains
//
// Capabilities are printed and accepted in the textual form
// "port:object:rights:check" (hex). The tool uses the library's default
// server secret, so capabilities minted by `put` keep working across
// invocations; production deployments configure their own secret.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bullet/client.h"
#include "bullet/server.h"
#include "cluster/rebalance.h"
#include "cluster/ring.h"
#include "common/crc.h"
#include "dir/client.h"
#include "disk/file_disk.h"
#include "disk/mirrored_disk.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/failover_transport.h"
#include "rpc/udp_transport.h"

using namespace bullet;

namespace {

constexpr std::uint64_t kBlockSize = 512;

int usage() {
  std::fprintf(
      stderr,
      "usage: bullet_tool <command> <image> [args]\n"
      "  format <image> <size-mb> [inode-slots=4096]  create a new disk image\n"
      "  fsck   <image>                               consistency check\n"
      "  ls     <image>                               list live objects\n"
      "  stat   <image>                               server statistics\n"
      "  put    <image> <file> [pfactor=1]            store a file, print cap\n"
      "  get    <image> <capability> [out]            fetch a file\n"
      "  rm     <image> <capability>                  delete a file\n"
      "  compact <image>                              squeeze out the holes\n"
      "  scrub  <image> <mirror-image> [repair]       compare replicas\n"
      "  resilver <image> <mirror-image>              rebuild a replica copy\n"
      "  stats  <port> <cap>                          live metrics exposition\n"
      "  status <port> <cap>                          replication role + health\n"
      "  resync <port> <cap>                          reconcile with the peer\n"
      "  top    <port> <cap> [seconds=1]              live rates over interval\n"
      "  trace  <port> <cap> [--slow DUR] [--max N]   live span chains\n"
      "         (DUR accepts ns/us/ms/s suffixes, default 0 = everything)\n"
      "  ring   --shards N [--vnodes V] [--sample K | --object O]\n"
      "         print consistent-hash owners (offline, deterministic)\n"
      "  rebalance <dir-port> <dir-cap> <cluster-cap> <id:udpport[,udpport]>...\n"
      "         move the cluster to exactly this shard set (live)\n"
      "  addshard  <dir-port> <dir-cap> <cluster-cap> <id:udpport[,udpport]>...\n"
      "         grow the cluster by these shards (live)\n");
  return 2;
}

// Read the geometry a formatted image records in its descriptor block.
struct Geometry {
  std::uint64_t block_size = 0;
  std::uint64_t blocks = 0;
};

Result<Geometry> probe_geometry(const std::string& path) {
  BULLET_ASSIGN_OR_RETURN(FileDisk probe, FileDisk::open(path, kBlockSize, 1));
  Bytes block0(kBlockSize);
  BULLET_RETURN_IF_ERROR(probe.read(0, block0));
  BULLET_ASSIGN_OR_RETURN(
      const DiskDescriptor desc,
      DiskDescriptor::decode(ByteSpan(block0.data(), DiskDescriptor::kDiskSize)));
  Geometry g;
  g.block_size = desc.block_size;
  g.blocks = static_cast<std::uint64_t>(desc.control_blocks) + desc.data_blocks;
  return g;
}

struct OpenImage {
  // Heap-allocated so the addresses the mirror and server hold stay valid
  // when the OpenImage itself moves.
  std::unique_ptr<FileDisk> disk;
  std::unique_ptr<MirroredDisk> mirror;
  std::unique_ptr<BulletServer> server;
};

// Probe the image size from the descriptor, then boot a server on it.
Result<OpenImage> open_image(const std::string& path) {
  BULLET_ASSIGN_OR_RETURN(const Geometry geometry, probe_geometry(path));
  BULLET_ASSIGN_OR_RETURN(
      FileDisk disk,
      FileDisk::open(path, geometry.block_size, geometry.blocks));
  OpenImage image;
  image.disk = std::make_unique<FileDisk>(std::move(disk));
  auto mirror = MirroredDisk::create({image.disk.get()});
  if (!mirror.ok()) return mirror.error();
  image.mirror = std::make_unique<MirroredDisk>(std::move(mirror).value());
  BULLET_ASSIGN_OR_RETURN(image.server,
                          BulletServer::start(image.mirror.get(),
                                              BulletConfig()));
  return image;
}

Result<Bytes> read_local_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error(ErrorCode::not_found, "cannot open " + path);
  Bytes data((std::istreambuf_iterator<char>(in)),
             std::istreambuf_iterator<char>());
  return data;
}

Status write_local_file(const std::string& path, ByteSpan data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Error(ErrorCode::io_error, "cannot open " + path);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (!out) return Error(ErrorCode::io_error, "short write to " + path);
  return Status::success();
}

int fail(const Error& error) {
  std::fprintf(stderr, "error: %s\n", error.to_string().c_str());
  return 1;
}

// One named value from a STATS2 exposition; 0 when the name is absent.
std::uint64_t metric(const std::string& text, const char* name) {
  return obs::metric_value(text, name).value_or(0);
}

int cmd_format(const std::string& image, int argc, char** argv) {
  if (argc < 1) return usage();
  const long size_mb = std::strtol(argv[0], nullptr, 10);
  if (size_mb <= 0 || size_mb > 4096) {
    std::fprintf(stderr, "error: size-mb must be in (0, 4096]\n");
    return 1;
  }
  const std::uint32_t inode_slots =
      argc >= 2 ? static_cast<std::uint32_t>(std::strtoul(argv[1], nullptr, 10))
                : 4096;
  const std::uint64_t blocks =
      static_cast<std::uint64_t>(size_mb) * (1 << 20) / kBlockSize;
  auto disk = FileDisk::open(image, kBlockSize, blocks);
  if (!disk.ok()) return fail(disk.error());
  const Status st = BulletServer::format(disk.value(), inode_slots);
  if (!st.ok()) return fail(st.error());
  std::printf("formatted %s: %ld MB, %" PRIu64 " blocks of %" PRIu64
              ", %u inode slots\n",
              image.c_str(), size_mb, blocks, kBlockSize, inode_slots);
  return 0;
}

int cmd_fsck(const std::string& image) {
  auto opened = open_image(image);
  if (!opened.ok()) return fail(opened.error());
  const auto& report = opened.value().server->boot_report();
  std::printf("scanned %" PRIu64 " inodes: %" PRIu64 " files, %" PRIu64
              " out-of-bounds cleared, %" PRIu64 " overlaps cleared, %" PRIu64
              " stale cache fields\n",
              report.inodes_scanned, report.files, report.cleared_bad_bounds,
              report.cleared_overlaps, report.cleared_cache_fields);
  return report.repairs() == 0 ? 0 : 1;
}

int cmd_ls(const std::string& image) {
  auto opened = open_image(image);
  if (!opened.ok()) return fail(opened.error());
  const auto objects = opened.value().server->list_objects();
  std::printf("%8s %12s %12s\n", "object", "bytes", "first-block");
  for (const auto& object : objects) {
    std::printf("%8u %12u %12u\n", object.object, object.size_bytes,
                object.first_block);
  }
  std::printf("%zu file(s)\n", objects.size());
  return 0;
}

int cmd_stat(const std::string& image) {
  auto opened = open_image(image);
  if (!opened.ok()) return fail(opened.error());
  const std::string metrics = opened.value().server->metrics_text();
  const auto& layout = opened.value().server->layout();
  std::printf("block size:        %u\n", layout.block_size());
  std::printf("inode slots:       %u\n", layout.inode_slots());
  std::printf("data region:       %" PRIu64 " blocks\n", layout.data_blocks());
  std::printf("live files:        %" PRIu64 "\n",
              metric(metrics, "bullet_files_live"));
  std::printf("free bytes:        %" PRIu64 "\n",
              metric(metrics, "bullet_disk_free_bytes"));
  std::printf("largest hole:      %" PRIu64 " bytes\n",
              metric(metrics, "bullet_disk_largest_hole_bytes"));
  std::printf("holes:             %" PRIu64 "\n",
              metric(metrics, "bullet_disk_holes"));
  return 0;
}

int cmd_put(const std::string& image, int argc, char** argv) {
  if (argc < 1) return usage();
  auto data = read_local_file(argv[0]);
  if (!data.ok()) return fail(data.error());
  const int pfactor =
      argc >= 2 ? static_cast<int>(std::strtol(argv[1], nullptr, 10)) : 1;
  auto opened = open_image(image);
  if (!opened.ok()) return fail(opened.error());
  auto cap = opened.value().server->create(data.value(), pfactor);
  if (!cap.ok()) return fail(cap.error());
  const Status st = opened.value().server->sync();
  if (!st.ok()) return fail(st.error());
  std::printf("%s\n", cap.value().to_string().c_str());
  std::fprintf(stderr, "stored %zu bytes (crc32c %08x)\n",
               data.value().size(), crc32c(data.value()));
  return 0;
}

int cmd_get(const std::string& image, int argc, char** argv) {
  if (argc < 1) return usage();
  const auto cap = Capability::from_string(argv[0]);
  if (!cap.has_value()) {
    std::fprintf(stderr, "error: malformed capability\n");
    return 1;
  }
  auto opened = open_image(image);
  if (!opened.ok()) return fail(opened.error());
  auto data = opened.value().server->read(*cap);
  if (!data.ok()) return fail(data.error());
  if (argc >= 2) {
    const Status st = write_local_file(argv[1], data.value());
    if (!st.ok()) return fail(st.error());
    std::fprintf(stderr, "wrote %zu bytes to %s\n", data.value().size(),
                 argv[1]);
  } else {
    std::fwrite(data.value().data(), 1, data.value().size(), stdout);
  }
  return 0;
}

int cmd_rm(const std::string& image, int argc, char** argv) {
  if (argc < 1) return usage();
  const auto cap = Capability::from_string(argv[0]);
  if (!cap.has_value()) {
    std::fprintf(stderr, "error: malformed capability\n");
    return 1;
  }
  auto opened = open_image(image);
  if (!opened.ok()) return fail(opened.error());
  const Status st = opened.value().server->erase(*cap);
  if (!st.ok()) return fail(st.error());
  const Status synced = opened.value().server->sync();
  if (!synced.ok()) return fail(synced.error());
  std::fprintf(stderr, "deleted\n");
  return 0;
}

int cmd_compact(const std::string& image) {
  auto opened = open_image(image);
  if (!opened.ok()) return fail(opened.error());
  auto moved = opened.value().server->compact_disk();
  if (!moved.ok()) return fail(moved.error());
  const Status st = opened.value().server->sync();
  if (!st.ok()) return fail(st.error());
  std::printf("moved %" PRIu64 " blocks; %" PRIu64 " hole(s) remain\n",
              moved.value(),
              static_cast<std::uint64_t>(
                  opened.value().server->disk_free().hole_count()));
  return 0;
}

// Open `path` and `mirror_path` as a two-replica mirror sharing the
// geometry recorded in `path`'s descriptor (FileDisk::open creates or
// extends `mirror_path` as needed).
struct OpenPair {
  std::unique_ptr<FileDisk> main_disk;
  std::unique_ptr<FileDisk> copy_disk;
  std::unique_ptr<MirroredDisk> mirror;
};

Result<OpenPair> open_pair(const std::string& path,
                           const std::string& mirror_path) {
  BULLET_ASSIGN_OR_RETURN(const Geometry geometry, probe_geometry(path));
  BULLET_ASSIGN_OR_RETURN(
      FileDisk main_disk,
      FileDisk::open(path, geometry.block_size, geometry.blocks));
  BULLET_ASSIGN_OR_RETURN(
      FileDisk copy_disk,
      FileDisk::open(mirror_path, geometry.block_size, geometry.blocks));
  OpenPair pair;
  pair.main_disk = std::make_unique<FileDisk>(std::move(main_disk));
  pair.copy_disk = std::make_unique<FileDisk>(std::move(copy_disk));
  auto mirror =
      MirroredDisk::create({pair.main_disk.get(), pair.copy_disk.get()});
  if (!mirror.ok()) return mirror.error();
  pair.mirror = std::make_unique<MirroredDisk>(std::move(mirror).value());
  return pair;
}

int cmd_scrub(const std::string& image, int argc, char** argv) {
  if (argc < 1) return usage();
  const bool repair = argc >= 2 && std::strcmp(argv[1], "repair") == 0;
  auto pair = open_pair(image, argv[0]);
  if (!pair.ok()) return fail(pair.error());
  auto report = pair.value().mirror->scrub(repair);
  if (!report.ok()) return fail(report.error());
  if (repair) {
    const Status st = pair.value().mirror->flush();
    if (!st.ok()) return fail(st.error());
  }
  std::printf("checked %" PRIu64 " blocks: %" PRIu64 " mismatched, %" PRIu64
              " repaired\n",
              report.value().blocks_checked, report.value().mismatched_blocks,
              report.value().repaired_blocks);
  // Unrepaired divergence is a finding, like fsck's non-zero repair count.
  return report.value().mismatched_blocks == report.value().repaired_blocks
             ? 0
             : 1;
}

int cmd_resilver(const std::string& image, int argc, char** argv) {
  if (argc < 1) return usage();
  auto pair = open_pair(image, argv[0]);
  if (!pair.ok()) return fail(pair.error());
  MirroredDisk& mirror = *pair.value().mirror;
  mirror.mark_failed(1);  // the copy is presumed stale; rebuild it fully
  const Status st = mirror.resilver(1);
  if (!st.ok()) return fail(st.error());
  const Status flushed = mirror.flush();
  if (!flushed.ok()) return fail(flushed.error());
  std::printf("resilvered %s from %s (%" PRIu64 " blocks)\n", argv[0],
              image.c_str(), mirror.num_blocks());
  return 0;
}

// --- live-server commands (UDP) ---------------------------------------------

struct LiveConnection {
  std::unique_ptr<rpc::UdpTransport> transport;
  std::unique_ptr<BulletClient> client;
};

Result<LiveConnection> connect_live(const std::string& port_text,
                                    const std::string& cap_text) {
  const unsigned long port = std::strtoul(port_text.c_str(), nullptr, 10);
  if (port == 0 || port > 0xFFFF) {
    return Error(ErrorCode::bad_argument, "bad port: " + port_text);
  }
  const auto cap = Capability::from_string(cap_text);
  if (!cap) return Error(ErrorCode::bad_argument, "bad capability");
  rpc::UdpClientOptions options;
  options.server_udp_port = static_cast<std::uint16_t>(port);
  BULLET_ASSIGN_OR_RETURN(auto transport, rpc::UdpTransport::connect(options));
  LiveConnection conn;
  conn.client = std::make_unique<BulletClient>(transport.get(), *cap);
  conn.transport = std::move(transport);
  return conn;
}

// "5ms" / "250us" / "1s" / "12345" (plain = ns) -> nanoseconds.
Result<std::uint64_t> parse_duration_ns(const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || value < 0) {
    return Error(ErrorCode::bad_argument, "bad duration: " + text);
  }
  const std::string unit(end);
  double scale = 1.0;
  if (unit == "ns" || unit.empty()) scale = 1.0;
  else if (unit == "us") scale = 1e3;
  else if (unit == "ms") scale = 1e6;
  else if (unit == "s") scale = 1e9;
  else return Error(ErrorCode::bad_argument, "bad duration unit: " + unit);
  return static_cast<std::uint64_t>(value * scale);
}

std::string format_ns(std::uint64_t ns) {
  char buf[32];
  if (ns >= 1000000000ull) {
    std::snprintf(buf, sizeof buf, "%.2fs", ns / 1e9);
  } else if (ns >= 1000000ull) {
    std::snprintf(buf, sizeof buf, "%.2fms", ns / 1e6);
  } else if (ns >= 1000ull) {
    std::snprintf(buf, sizeof buf, "%.2fus", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%" PRIu64 "ns", ns);
  }
  return buf;
}

const char* opcode_name(std::uint16_t opcode) {
  switch (opcode) {
    case wire::kCreate: return "CREATE";
    case wire::kRead: return "READ";
    case wire::kSize: return "SIZE";
    case wire::kDelete: return "DELETE";
    case wire::kCreateFrom: return "CREATE-FROM";
    case wire::kReadRange: return "READ-RANGE";
    case wire::kSync: return "SYNC";
    case wire::kCompactDisk: return "COMPACT";
    case wire::kFsck: return "FSCK";
    case wire::kRestrict: return "RESTRICT";
    case wire::kStats2: return "STATS2";
    case wire::kTraceDump: return "TRACE-DUMP";
    case wire::kReplicate: return "REPLICATE";
    case wire::kReplResync: return "REPL-RESYNC";
    case wire::kShardMap: return "SHARD-MAP";
  }
  return "?";
}

int cmd_live_stats(int argc, char** argv) {
  if (argc < 2) return usage();
  auto conn = connect_live(argv[0], argv[1]);
  if (!conn.ok()) return fail(conn.error());
  auto text = conn.value().client->stats_text();
  if (!text.ok()) return fail(text.error());
  std::fputs(text.value().c_str(), stdout);
  return 0;
}

int cmd_status(int argc, char** argv) {
  if (argc < 2) return usage();
  auto conn = connect_live(argv[0], argv[1]);
  if (!conn.ok()) return fail(conn.error());
  auto text = conn.value().client->stats_text();
  if (!text.ok()) return fail(text.error());
  const std::string& m = text.value();
  const std::uint64_t role_id = metric(m, "bullet_repl_role");
  const bool peer_healthy = metric(m, "bullet_repl_peer_healthy") != 0;
  const char* role = role_id == 1   ? "primary"
                     : role_id == 2 ? "backup"
                                    : "solo";
  std::printf("role:              %s\n", role);
  if (role_id != 0) {
    std::printf("peer:              %s\n",
                peer_healthy ? "healthy" : "down (degraded)");
  }
  std::printf("files live:        %" PRIu64 "\n",
              metric(m, "bullet_files_live"));
  std::printf("pushes:            %" PRIu64 " ok, %" PRIu64 " failed\n",
              metric(m, "bullet_repl_pushes_total"),
              metric(m, "bullet_repl_push_failures_total"));
  std::printf("peer ops applied:  %" PRIu64 "\n",
              metric(m, "bullet_repl_installs_total"));
  std::printf("resyncs:           %" PRIu64 " (%" PRIu64 " files copied)\n",
              metric(m, "bullet_repl_resyncs_total"),
              metric(m, "bullet_repl_resync_files_total"));
  std::printf("dedup hits:        %" PRIu64 "\n",
              metric(m, "bullet_repl_dedup_hits_total"));
  // A degraded pair is a finding, like fsck's non-zero repair count.
  return role_id != 0 && !peer_healthy ? 1 : 0;
}

int cmd_resync(int argc, char** argv) {
  if (argc < 2) return usage();
  auto conn = connect_live(argv[0], argv[1]);
  if (!conn.ok()) return fail(conn.error());
  auto report = conn.value().client->repl_resync();
  if (!report.ok()) return fail(report.error());
  const auto& r = report.value();
  std::printf("pulled %" PRIu64 ", pushed %" PRIu64 ", erases %" PRIu64
              ", duplicates %" PRIu64 ", conflicts %" PRIu64 "\n",
              r.files_pulled, r.files_pushed, r.erases_applied,
              r.duplicates_reconciled, r.conflicts);
  return r.conflicts == 0 ? 0 : 1;
}

int cmd_top(int argc, char** argv) {
  if (argc < 2) return usage();
  auto conn = connect_live(argv[0], argv[1]);
  if (!conn.ok()) return fail(conn.error());
  const double seconds = argc >= 3 ? std::strtod(argv[2], nullptr) : 1.0;
  if (seconds <= 0) return usage();
  auto before = conn.value().client->stats_text();
  if (!before.ok()) return fail(before.error());
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<long>(seconds * 1000)));
  auto after = conn.value().client->stats_text();
  if (!after.ok()) return fail(after.error());

  auto rate = [&](const char* name) {
    const auto a = obs::metric_value(before.value(), name);
    const auto b = obs::metric_value(after.value(), name);
    return !a || !b ? 0.0
                    : (static_cast<double>(*b) - static_cast<double>(*a)) /
                          seconds;
  };
  std::printf("interval: %.1fs\n", seconds);
  std::printf("reads/s:        %10.1f\n", rate("bullet_reads_total"));
  std::printf("creates/s:      %10.1f\n", rate("bullet_creates_total"));
  std::printf("deletes/s:      %10.1f\n", rate("bullet_deletes_total"));
  std::printf("served MB/s:    %10.2f\n",
              rate("bullet_bytes_served_total") / 1e6);
  std::printf("stored MB/s:    %10.2f\n",
              rate("bullet_bytes_stored_total") / 1e6);
  std::printf("cache hits/s:   %10.1f\n", rate("bullet_cache_hits_total"));
  std::printf("cache misses/s: %10.1f\n", rate("bullet_cache_misses_total"));
  std::printf("lock wait/s:    %10s\n",
              format_ns(static_cast<std::uint64_t>(
                            rate("bullet_lock_wait_ns_total")))
                  .c_str());
  std::printf("files live:     %10" PRIu64 "\n",
              metric(after.value(), "bullet_files_live"));
  std::printf("cache free:     %10" PRIu64 "\n",
              metric(after.value(), "bullet_cache_free_bytes"));
  return 0;
}

int cmd_trace(int argc, char** argv) {
  if (argc < 2) return usage();
  std::uint64_t threshold_ns = 0;
  std::uint32_t max_spans = 1024;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--slow" && i + 1 < argc) {
      auto parsed = parse_duration_ns(argv[++i]);
      if (!parsed.ok()) return fail(parsed.error());
      threshold_ns = parsed.value();
    } else if (arg == "--max" && i + 1 < argc) {
      max_spans = static_cast<std::uint32_t>(
          std::strtoul(argv[++i], nullptr, 10));
    } else {
      return usage();
    }
  }
  auto conn = connect_live(argv[0], argv[1]);
  if (!conn.ok()) return fail(conn.error());
  auto spans = conn.value().client->trace_dump(threshold_ns, max_spans);
  if (!spans.ok()) return fail(spans.error());

  // Group into chains by seq (the dump keeps chains contiguous).
  std::size_t begin = 0;
  std::size_t chains = 0;
  const auto& all = spans.value();
  while (begin < all.size()) {
    std::size_t end = begin + 1;
    while (end < all.size() && all[end].seq == all[begin].seq) ++end;
    std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
    for (std::size_t i = begin; i < end; ++i) {
      lo = std::min(lo, all[i].start_ns);
      hi = std::max(hi, all[i].start_ns + all[i].dur_ns);
    }
    std::printf("seq=%" PRIu64 " op=%s id=%" PRIx64 " total=%s\n",
                all[begin].seq, opcode_name(all[begin].opcode),
                all[begin].trace_id, format_ns(hi - lo).c_str());
    for (std::size_t i = begin; i < end; ++i) {
      std::printf("  %-11s +%-10s %s\n",
                  obs::stage_name(static_cast<obs::Stage>(all[i].stage)),
                  format_ns(all[i].start_ns - lo).c_str(),
                  format_ns(all[i].dur_ns).c_str());
    }
    ++chains;
    begin = end;
  }
  std::printf("%zu chain(s), %zu span(s)\n", chains, all.size());
  return 0;
}

// --- cluster ------------------------------------------------------------

// Print ring owners for shard ids 1..N. Placement is a pure function of
// (ids, vnodes, object), so this output is identical on every machine —
// tests diff it against the in-process ring to prove cross-process
// determinism, and operators use it to predict where an object lands.
int cmd_ring(int argc, char** argv) {
  std::uint32_t shards = 0;
  std::uint32_t vnodes = cluster::kDefaultVnodes;
  std::uint64_t sample = 8;
  bool have_object = false;
  std::uint32_t object = 0;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::uint64_t value = std::strtoull(argv[++i], nullptr, 10);
    if (arg == "--shards") shards = static_cast<std::uint32_t>(value);
    else if (arg == "--vnodes") vnodes = static_cast<std::uint32_t>(value);
    else if (arg == "--sample") sample = value;
    else if (arg == "--object") {
      have_object = true;
      object = static_cast<std::uint32_t>(value);
    } else {
      return usage();
    }
  }
  if (shards == 0 || shards > 4096 || vnodes == 0 || vnodes > 4096) {
    return usage();
  }
  std::vector<std::uint32_t> ids;
  for (std::uint32_t i = 1; i <= shards; ++i) ids.push_back(i);
  const cluster::Ring ring(ids, vnodes);
  if (have_object) {
    std::printf("%u %u\n", object, ring.owner_of(object));
    return 0;
  }
  for (std::uint64_t o = 1; o <= sample; ++o) {
    std::printf("%" PRIu64 " %u\n", o,
                ring.owner_of(static_cast<std::uint32_t>(o)));
  }
  return 0;
}

// Shard spec "id:udpport[,udpport...]" -> ShardInfo. In the UDP deployment
// the map's opaque endpoint tokens are the shards' UDP ports.
Result<cluster::ShardInfo> parse_shard_spec(const std::string& text) {
  cluster::ShardInfo info;
  char* end = nullptr;
  const unsigned long id = std::strtoul(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != ':' || id == 0) {
    return Error(ErrorCode::bad_argument, "bad shard spec: " + text);
  }
  info.id = static_cast<std::uint32_t>(id);
  const char* p = end + 1;
  while (*p != '\0') {
    char* stop = nullptr;
    const unsigned long port = std::strtoul(p, &stop, 10);
    if (stop == p || port == 0 || port > 0xFFFF) {
      return Error(ErrorCode::bad_argument, "bad shard spec: " + text);
    }
    info.endpoints.push_back(port);
    p = stop;
    if (*p == ',') ++p;
    else if (*p != '\0') {
      return Error(ErrorCode::bad_argument, "bad shard spec: " + text);
    }
  }
  if (info.endpoints.empty()) {
    return Error(ErrorCode::bad_argument, "shard spec has no ports: " + text);
  }
  return info;
}

// Transports for live cluster commands: one UdpTransport per endpoint
// token, one FailoverTransport per shard (over its replica endpoints).
struct ClusterNet {
  std::map<std::uint64_t, std::unique_ptr<rpc::UdpTransport>> endpoints;
  std::map<std::uint32_t, std::unique_ptr<rpc::FailoverTransport>> shards;

  rpc::Transport* endpoint(std::uint64_t token) {
    const auto it = endpoints.find(token);
    if (it != endpoints.end()) return it->second.get();
    if (token == 0 || token > 0xFFFF) return nullptr;
    rpc::UdpClientOptions options;
    options.server_udp_port = static_cast<std::uint16_t>(token);
    auto transport = rpc::UdpTransport::connect(options);
    if (!transport.ok()) return nullptr;
    return endpoints.emplace(token, std::move(transport).value())
        .first->second.get();
  }

  cluster::RoutingClient::Resolver resolver() {
    return [this](const cluster::ShardInfo& info) -> rpc::Transport* {
      const auto it = shards.find(info.id);
      if (it != shards.end()) return it->second.get();
      std::vector<rpc::Transport*> replicas;
      for (const std::uint64_t token : info.endpoints) {
        rpc::Transport* t = endpoint(token);
        if (t != nullptr) replicas.push_back(t);
      }
      if (replicas.empty()) return nullptr;
      auto failover =
          std::make_unique<rpc::FailoverTransport>(std::move(replicas));
      return shards.emplace(info.id, std::move(failover)).first->second.get();
    };
  }
};

// rebalance: move the cluster to exactly the given shard set; addshard:
// grow the current set by the given shards. With no map installed yet,
// either form bootstraps the target as epoch 1.
int cmd_rebalance(int argc, char** argv, bool add_to_current) {
  if (argc < 4) return usage();
  const unsigned long dir_port = std::strtoul(argv[0], nullptr, 10);
  if (dir_port == 0 || dir_port > 0xFFFF) return usage();
  const auto dir_cap = Capability::from_string(argv[1]);
  const auto cluster_cap = Capability::from_string(argv[2]);
  if (!dir_cap || !cluster_cap) {
    std::fprintf(stderr, "error: bad capability\n");
    return 2;
  }
  std::vector<cluster::ShardInfo> target;
  for (int i = 3; i < argc; ++i) {
    auto info = parse_shard_spec(argv[i]);
    if (!info.ok()) return fail(info.error());
    target.push_back(std::move(info).value());
  }

  rpc::UdpClientOptions options;
  options.server_udp_port = static_cast<std::uint16_t>(dir_port);
  auto dir_transport = rpc::UdpTransport::connect(options);
  if (!dir_transport.ok()) return fail(dir_transport.error());
  dir::DirClient dir(dir_transport.value().get(), *dir_cap);

  ClusterNet net;
  cluster::Rebalancer rebalancer(&dir, *cluster_cap, net.resolver());

  const auto epoch = dir.map_epoch();
  if (!epoch.ok()) return fail(epoch.error());
  if (epoch.value() == 0) {
    cluster::PlacementMap initial;
    initial.epoch = 1;
    initial.shards = target;
    const Status st = rebalancer.bootstrap(std::move(initial));
    if (!st.ok()) return fail(st.error());
    std::printf("bootstrapped epoch 1 with %zu shard(s)\n", target.size());
    return 0;
  }
  if (add_to_current) {
    auto fetched = dir.fetch_map();
    if (!fetched.ok()) return fail(fetched.error());
    auto current =
        cluster::PlacementMap::decode_bytes(ByteSpan(fetched.value().map));
    if (!current.ok()) return fail(current.error());
    std::vector<cluster::ShardInfo> merged = current.value().shards;
    for (cluster::ShardInfo& s : target) merged.push_back(std::move(s));
    target = std::move(merged);
  }
  auto report = rebalancer.run(std::move(target));
  if (!report.ok()) return fail(report.error());
  const cluster::Rebalancer::Report& r = report.value();
  std::printf(
      "planned %zu move(s), copied %zu, reconciled %zu, drained %zu, "
      "conflicts %zu\n",
      r.planned, r.copied, r.reconciled, r.drained, r.conflicts);
  const auto new_epoch = dir.map_epoch();
  if (new_epoch.ok()) {
    std::printf("epoch %" PRIu64 "\n", new_epoch.value());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  const std::string image = argv[2];
  const int rest_argc = argc - 3;
  char** rest_argv = argv + 3;

  if (command == "format") return cmd_format(image, rest_argc, rest_argv);
  if (command == "fsck") return cmd_fsck(image);
  if (command == "ls") return cmd_ls(image);
  if (command == "stat") return cmd_stat(image);
  if (command == "put") return cmd_put(image, rest_argc, rest_argv);
  if (command == "get") return cmd_get(image, rest_argc, rest_argv);
  if (command == "rm") return cmd_rm(image, rest_argc, rest_argv);
  if (command == "compact") return cmd_compact(image);
  if (command == "scrub") return cmd_scrub(image, rest_argc, rest_argv);
  if (command == "resilver") return cmd_resilver(image, rest_argc, rest_argv);
  // Live commands: argv[2] is a UDP port, argv[3] an admin capability.
  if (command == "stats") return cmd_live_stats(argc - 2, argv + 2);
  if (command == "status") return cmd_status(argc - 2, argv + 2);
  if (command == "resync") return cmd_resync(argc - 2, argv + 2);
  if (command == "top") return cmd_top(argc - 2, argv + 2);
  if (command == "trace") return cmd_trace(argc - 2, argv + 2);
  // Cluster commands: `ring` is offline; the rebalance pair talks to the
  // directory server and every shard over UDP.
  if (command == "ring") return cmd_ring(argc - 2, argv + 2);
  if (command == "rebalance") return cmd_rebalance(argc - 2, argv + 2, false);
  if (command == "addshard") return cmd_rebalance(argc - 2, argv + 2, true);
  return usage();
}
