// Ablation: the zero-copy read/create hot path.
//
// Unlike the fig* benches this one measures *host* wall-clock, not simulated
// 1989 time: the thing the zero-copy rework changes is server CPU/memory
// work per request, which the virtual clock deliberately abstracts away
// (reply wire bytes are identical, so modelled network time is unchanged).
//
// Two identical deployments run the full client -> RPC dispatch -> server
// stack over a LoopbackTransport:
//   - "zerocopy": the server as built — cache-hit READ replies borrow the
//     file bytes from the cache arena; CREATE ingests straight into it.
//   - "copying":  a shim emulating the pre-rework data path — every READ
//     reply is flattened into one freshly allocated owned buffer, and every
//     CREATE body is staged through a bounce buffer first.
//
// Emits a JSON document on stdout (checked-in snapshot:
// bench/BENCH_read_hotpath.json) and a human-readable table on stderr.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "bullet/client.h"
#include "bullet/server.h"
#include "disk/mem_disk.h"
#include "disk/mirrored_disk.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "rpc/transport.h"

namespace bullet::bench {
namespace {

constexpr std::uint64_t kBlockSize = 512;
constexpr std::uint64_t kDeviceBlocks = 1 << 15;  // 16 MB per replica
constexpr std::uint64_t kCacheBytes = 4 << 20;    // holds every test file
constexpr std::uint64_t kTargetBytes = 256 << 20; // per size point
constexpr std::uint64_t kMinIters = 64;
constexpr std::uint64_t kMaxIters = 100000;

// Emulates the pre-rework server data path. READ replies are gathered into
// one owned allocation (the copy the server used to make when building the
// reply from the cache); CREATE request bodies are staged through a scratch
// buffer (the bounce buffer the server used to align writes).
class CopyingShim final : public rpc::Service {
 public:
  explicit CopyingShim(rpc::Service* inner) : inner_(inner) {}

  Port public_port() const noexcept override { return inner_->public_port(); }

  rpc::Reply handle(const rpc::Request& request) override {
    if (request.opcode == wire::kCreate) {
      rpc::Request staged;
      staged.target = request.target;
      staged.opcode = request.opcode;
      staged.body = request.body;  // deliberate staging copy
      return flatten(inner_->handle(staged));
    }
    return flatten(inner_->handle(request));
  }

 private:
  static rpc::Reply flatten(rpc::Reply reply) {
    if (reply.segments.empty()) return reply;
    rpc::Reply flat;
    flat.status = reply.status;
    flat.body = std::move(reply).take_payload();  // deliberate gather copy
    return flat;
  }

  rpc::Service* inner_;
};

// A Bullet deployment on two mirrored in-memory disks behind a loopback
// transport, optionally wrapped in the copying shim.
class Rig {
 public:
  explicit Rig(bool copying)
      : raw0_(kBlockSize, kDeviceBlocks), raw1_(kBlockSize, kDeviceBlocks) {
    Status st = BulletServer::format(raw0_, 1024);
    if (!st.ok()) die(st.to_string());
    st = raw1_.restore(raw0_.snapshot());
    if (!st.ok()) die(st.to_string());
    auto mirror = MirroredDisk::create({&raw0_, &raw1_});
    if (!mirror.ok()) die(mirror.error().to_string());
    mirror_ = std::make_unique<MirroredDisk>(std::move(mirror).value());
    BulletConfig config;
    config.cache_bytes = kCacheBytes;
    auto server = BulletServer::start(mirror_.get(), config);
    if (!server.ok()) die(server.error().to_string());
    server_ = std::move(server).value();
    shim_ = std::make_unique<CopyingShim>(server_.get());
    st = transport_.register_service(copying ? static_cast<rpc::Service*>(shim_.get())
                                             : server_.get());
    if (!st.ok()) die(st.to_string());
    client_ = std::make_unique<BulletClient>(&transport_,
                                             server_->super_capability());
  }

  rpc::LoopbackTransport& transport() { return transport_; }
  BulletClient& client() { return *client_; }
  BulletServer& server() { return *server_; }

 private:
  [[noreturn]] static void die(const std::string& message) {
    std::fprintf(stderr, "bench setup failed: %s\n", message.c_str());
    std::abort();
  }

  MemDisk raw0_, raw1_;
  std::unique_ptr<MirroredDisk> mirror_;
  std::unique_ptr<BulletServer> server_;
  std::unique_ptr<CopyingShim> shim_;
  rpc::LoopbackTransport transport_;
  std::unique_ptr<BulletClient> client_;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

std::uint64_t iters_for(std::uint64_t size) {
  return std::clamp(kTargetBytes / std::max<std::uint64_t>(size, 1), kMinIters,
                    kMaxIters);
}

struct ReadResult {
  double mb_per_s = 0;
  obs::HistogramSnapshot latency_ns;  // per-request service time
};

// Cache-hit READ throughput (MB/s of file payload) through the transport.
ReadResult read_mb_per_s(Rig& rig, std::uint64_t size) {
  Rng rng(size + 1);
  const Bytes data = rng.next_bytes(size);
  auto cap = rig.client().create(data, 2);
  if (!cap.ok()) std::abort();

  rpc::Request req;
  req.target = cap.value();
  req.opcode = wire::kRead;

  const std::uint64_t iters = iters_for(size);
  std::uint64_t sink = 0;
  // Warm the cache and the branch predictors.
  for (int i = 0; i < 4; ++i) {
    auto r = rig.transport().call(req);
    if (!r.ok() || r.value().status != ErrorCode::ok) std::abort();
  }
  ReadResult result;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    const std::uint64_t t0 = obs::now_ns();
    auto r = rig.transport().call(req);
    if (!r.ok() || r.value().status != ErrorCode::ok) std::abort();
    sink += r.value().payload_size();
    result.latency_ns.add(obs::now_ns() - t0);
  }
  const double elapsed = seconds_since(start);
  if (sink != iters * (4 + size)) std::abort();  // defeats dead-code elim
  Status st = rig.client().erase(cap.value());
  if (!st.ok()) std::abort();
  result.mb_per_s = static_cast<double>(size) * static_cast<double>(iters) /
                    (1 << 20) / elapsed;
  return result;
}

// CREATE throughput (MB/s ingested) for `size`-byte files.
double create_mb_per_s(Rig& rig, std::uint64_t size) {
  Rng rng(size + 2);
  const Bytes data = rng.next_bytes(size);
  const std::uint64_t iters = std::min<std::uint64_t>(iters_for(size), 4096);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    auto cap = rig.client().create(data, 0);  // async-safe: no flush cost
    if (!cap.ok()) std::abort();
    Status st = rig.client().erase(cap.value());
    if (!st.ok()) std::abort();
  }
  const double elapsed = seconds_since(start);
  return static_cast<double>(size) * static_cast<double>(iters) / (1 << 20) /
         elapsed;
}

}  // namespace
}  // namespace bullet::bench

int main() {
  using namespace bullet::bench;

  JsonWriter json;
  json.begin_object();
  stamp_provenance(json, "read_hotpath");
  json.begin_object("config");
  json.field("cache_bytes", kCacheBytes);
  json.field("block_size", kBlockSize);
  json.field("transport", "loopback");
  json.field("clock", "host-steady");
  json.end_object();

  std::fprintf(stderr, "\nCache-hit READ, zero-copy vs copying (MB/s)\n");
  std::fprintf(stderr, "  %-12s %12s %12s %9s\n", "File Size", "zerocopy",
               "copying", "speedup");

  json.begin_array("read");
  for (const SizeRow& row : kFileSizes) {
    Rig fast(/*copying=*/false);
    Rig slow(/*copying=*/true);
    const ReadResult zc = read_mb_per_s(fast, row.bytes);
    const ReadResult cp = read_mb_per_s(slow, row.bytes);
    json.begin_object();
    json.field("size", row.label);
    json.field("bytes", row.bytes);
    json.field("zerocopy_mb_s", zc.mb_per_s);
    json.field("copying_mb_s", cp.mb_per_s);
    json.field("speedup", zc.mb_per_s / cp.mb_per_s);
    json.field("zerocopy_p50_ns", zc.latency_ns.quantile(0.50));
    json.field("zerocopy_p90_ns", zc.latency_ns.quantile(0.90));
    json.field("zerocopy_p99_ns", zc.latency_ns.quantile(0.99));
    json.field("copying_p50_ns", cp.latency_ns.quantile(0.50));
    json.field("copying_p99_ns", cp.latency_ns.quantile(0.99));
    json.end_object();
    std::fprintf(stderr, "  %-12s %12.1f %12.1f %8.2fx\n", row.label,
                 zc.mb_per_s, cp.mb_per_s, zc.mb_per_s / cp.mb_per_s);
  }
  json.end_array();

  std::fprintf(stderr, "\nCREATE, zero-copy vs copying (MB/s)\n");
  json.begin_array("create");
  for (const SizeRow& row : kFileSizes) {
    if (row.bytes < 4096) continue;  // small creates are all fixed overhead
    Rig fast(/*copying=*/false);
    Rig slow(/*copying=*/true);
    const double zc = create_mb_per_s(fast, row.bytes);
    const double cp = create_mb_per_s(slow, row.bytes);
    json.begin_object();
    json.field("size", row.label);
    json.field("bytes", row.bytes);
    json.field("zerocopy_mb_s", zc);
    json.field("copying_mb_s", cp);
    json.field("speedup", zc / cp);
    json.end_object();
    std::fprintf(stderr, "  %-12s %12.1f %12.1f %8.2fx\n", row.label, zc, cp,
                 zc / cp);
  }
  json.end_array();

  // Server cost counters over a standard workload: create + 8 cache-hit
  // reads of a 64 KB file. bytes_copied must be zero on the hot path.
  {
    Rig rig(/*copying=*/false);
    bullet::Rng rng(7);
    const bullet::Bytes data = rng.next_bytes(64 << 10);
    auto cap = rig.client().create(data, 2);
    if (!cap.ok()) return 1;
    for (int i = 0; i < 8; ++i) {
      if (!rig.client().read(cap.value()).ok()) return 1;
    }
    auto stats = rig.client().stats_text();
    if (!stats.ok()) return 1;
    const std::uint64_t bytes_copied =
        metric(stats.value(), "bullet_bytes_copied_total");
    const std::uint64_t scratch_allocs =
        metric(stats.value(), "bullet_scratch_allocs_total");
    const std::uint64_t evict_scans =
        metric(stats.value(), "bullet_evict_scans_total");
    json.begin_object("counters");
    json.field("bytes_copied", bytes_copied);
    json.field("scratch_allocs", scratch_allocs);
    json.field("evict_scans", evict_scans);
    json.field("cache_hits", metric(stats.value(), "bullet_cache_hits_total"));
    json.end_object();
    std::fprintf(stderr,
                 "\nhot-path counters: bytes_copied=%llu scratch_allocs=%llu "
                 "evict_scans=%llu\n",
                 static_cast<unsigned long long>(bytes_copied),
                 static_cast<unsigned long long>(scratch_allocs),
                 static_cast<unsigned long long>(evict_scans));
  }

  json.end_object();
  std::printf("%s\n", json.str().c_str());
  return 0;
}
