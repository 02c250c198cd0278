// Ablation: concurrent request execution.
//
// Like ablation_zerocopy this measures *host* wall-clock: the thing the
// worker-pool rework changes is how many requests the server can execute
// at once, which the simulated 1989 clock abstracts away entirely.
//
// N client threads hammer one in-process BulletServer with cache-hit 64 KB
// READ requests through the full RPC dispatch path (verify -> pin -> build
// borrowed-payload reply). Two server configurations are compared at each
// thread count:
//
//   - "shared":    the server as built — readers take the shared state
//                  lock and pin the cache entry, so reads from different
//                  clients execute concurrently.
//   - "exclusive": the pre-rework discipline emulated via the legacy
//                  read() entry point, which takes the exclusive lock —
//                  requests serialize no matter how many threads call in.
//
// The single-thread "shared" row is the baseline; speedups are relative to
// it. NOTE: aggregate scaling is bounded by the host's core count, which
// is recorded in the emitted JSON ("host_cpus") — on a 1-CPU container
// every row necessarily lands near 1x and the interesting signal is that
// shared-lock overhead does not *lose* throughput vs the baseline.
//
// Emits JSON on stdout (snapshot: bench/BENCH_concurrency.json) and a
// table on stderr.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string_view>
#include <thread>
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
constexpr std::uint64_t kCacheBytes = 4 << 20;
constexpr std::uint64_t kFileBytes = 64 << 10;
constexpr std::uint64_t kItersPerThread = 4000;
constexpr unsigned kThreadCounts[] = {1, 2, 4, 8};

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "bench failed: %s\n", message.c_str());
  std::abort();
}

// A minimal in-process deployment: mirrored MemDisks, no transport — the
// benchmark drives rpc dispatch (BulletServer::handle) directly from the
// client threads, exactly what a UDP worker does per request.
class Rig {
 public:
  explicit Rig(unsigned io_threads = 0)
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
    config.io_threads = io_threads;
    auto server = BulletServer::start(mirror_.get(), config);
    if (!server.ok()) die(server.error().to_string());
    server_ = std::move(server).value();
  }

  BulletServer& server() { return *server_; }

 private:
  [[noreturn]] static void die(const std::string& message) {
    std::fprintf(stderr, "bench setup failed: %s\n", message.c_str());
    std::abort();
  }

  MemDisk raw0_, raw1_;
  std::unique_ptr<MirroredDisk> mirror_;
  std::unique_ptr<BulletServer> server_;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

struct StormResult {
  double mb_per_s = 0;
  // Per-request service time, merged across the per-thread histograms.
  obs::HistogramSnapshot latency_ns;
};

// Aggregate cache-hit READ throughput (MB/s of payload) with `threads`
// concurrent callers. `exclusive` routes through the legacy serialized
// read() instead of the concurrent pinned path.
StormResult read_storm(Rig& rig, unsigned threads, bool exclusive) {
  Rng rng(threads + (exclusive ? 100 : 0));
  const Bytes data = rng.next_bytes(kFileBytes);
  auto cap = rig.server().create(data, 2);
  if (!cap.ok()) std::abort();

  rpc::Request req;
  req.target = cap.value();
  req.opcode = wire::kRead;

  // Warm the cache so every measured request is a hit.
  for (int i = 0; i < 4; ++i) {
    if (rig.server().handle(req).status != ErrorCode::ok) std::abort();
  }

  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> sink{0};
  std::vector<obs::HistogramSnapshot> latencies(threads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      obs::HistogramSnapshot& lat = latencies[t];
      while (!go.load(std::memory_order_acquire)) {
      }
      std::uint64_t local = 0;
      for (std::uint64_t i = 0; i < kItersPerThread; ++i) {
        const std::uint64_t t0 = obs::now_ns();
        if (exclusive) {
          auto r = rig.server().read(req.target);
          if (!r.ok()) std::abort();
          local += r.value().size();
        } else {
          rpc::Reply reply = rig.server().handle(req);
          if (reply.status != ErrorCode::ok) std::abort();
          local += reply.payload_size() - 4;  // minus the size prefix
        }
        lat.add(obs::now_ns() - t0);
      }
      sink.fetch_add(local, std::memory_order_relaxed);
    });
  }
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& thread : pool) thread.join();
  const double elapsed = seconds_since(start);

  const std::uint64_t expected = kFileBytes * kItersPerThread * threads;
  if (sink.load() != expected) std::abort();  // also defeats dead-code elim
  Status st = rig.server().erase(cap.value());
  if (!st.ok()) std::abort();

  StormResult result;
  result.mb_per_s = static_cast<double>(expected) / (1 << 20) / elapsed;
  for (const obs::HistogramSnapshot& h : latencies) result.latency_ns.merge(h);
  return result;
}

// --- concurrent-compaction scenario (--compaction) -------------------------
//
// What the incremental rework buys: reader tail latency while compaction is
// running. Three phases, same reader storm (cache-hit 64 KB READs through
// handle()) each time:
//
//   - "idle":       no compaction — the baseline tail.
//   - "stepped":    a compactor thread loops compact_step(kCompactStepBlocks);
//                   the exclusive lock is held only per bounded slide step.
//                   A churn pass re-fragments the disk whenever a pass
//                   finishes, so block moves keep happening for the whole
//                   measurement.
//   - "unbounded":  compact_step() with an unbounded block budget — every
//                   call copies an entire file move under one exclusive-lock
//                   hold (the per-file holds of the pre-rework code; the old
//                   monolithic pass additionally held the lock across the
//                   whole scan, so this is a lower bound on the old stalls).
//
// Emits JSON on stdout (snapshot: bench/BENCH_async.json) including the
// p99(compacting)/p99(idle) ratio the roadmap holds under 2x for the
// stepped mode, plus the async-queue counters showing reads never executed
// a disk op inline on the caller.
constexpr std::uint64_t kChurnFiles = 48;
constexpr std::uint64_t kCompactIters = 6000;
constexpr unsigned kCompactReaders = 2;

enum class CompactMode { kIdle, kStepped, kUnbounded };

// Erase every other churn file and recreate it at a slightly different
// size. First-fit cannot slot the replacement exactly back into the hole it
// left, so the data region stays fragmented and the next compaction pass
// has real moves to do (both disjoint and overlapping slides).
void refragment(BulletServer& server, std::vector<Capability>& files,
                Rng& rng) {
  for (std::size_t i = 0; i < files.size(); i += 2) {
    Status st = server.erase(files[i]);
    if (!st.ok()) die(st.to_string());
    const std::uint64_t bytes = rng.next_range(40 << 10, 64 << 10);
    auto cap = server.create(rng.next_bytes(bytes), 2);
    if (!cap.ok()) die(cap.error().to_string());
    files[i] = cap.value();
  }
}

struct CompactRow {
  obs::HistogramSnapshot latency_ns;
  double mb_per_s = 0;
  std::uint64_t compactor_calls = 0;  // compact_step() invocations
  std::uint64_t passes = 0;           // full passes completed (done == true)
};

CompactRow compaction_storm(Rig& rig, std::vector<Capability>& churn,
                            const rpc::Request& req, CompactMode mode) {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sink{0};
  std::vector<obs::HistogramSnapshot> latencies(kCompactReaders);
  std::vector<std::thread> readers;
  for (unsigned t = 0; t < kCompactReaders; ++t) {
    readers.emplace_back([&, t] {
      obs::HistogramSnapshot& lat = latencies[t];
      while (!go.load(std::memory_order_acquire)) {
      }
      std::uint64_t local = 0;
      for (std::uint64_t i = 0; i < kCompactIters; ++i) {
        const std::uint64_t t0 = obs::now_ns();
        rpc::Reply reply = rig.server().handle(req);
        if (reply.status != ErrorCode::ok) std::abort();
        local += reply.payload_size() - 4;
        lat.add(obs::now_ns() - t0);
      }
      sink.fetch_add(local, std::memory_order_relaxed);
    });
  }

  CompactRow row;
  std::thread compactor;
  if (mode != CompactMode::kIdle) {
    compactor = std::thread([&] {
      Rng churn_rng(0xC0);
      const std::uint64_t budget =
          mode == CompactMode::kStepped
              ? BulletServer::kCompactStepBlocks
              : std::numeric_limits<std::uint64_t>::max();
      while (!stop.load(std::memory_order_acquire)) {
        auto progress = rig.server().compact_step(budget);
        if (!progress.ok()) die(progress.error().to_string());
        ++row.compactor_calls;
        if (progress.value().done) {
          ++row.passes;
          refragment(rig.server(), churn, churn_rng);
        }
      }
    });
  }

  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& thread : readers) thread.join();
  const double elapsed = seconds_since(start);
  stop.store(true, std::memory_order_release);
  if (compactor.joinable()) compactor.join();

  const std::uint64_t expected = kFileBytes * kCompactIters * kCompactReaders;
  if (sink.load() != expected) std::abort();
  row.mb_per_s = static_cast<double>(expected) / (1 << 20) / elapsed;
  for (const obs::HistogramSnapshot& h : latencies) row.latency_ns.merge(h);
  return row;
}

void emit_compact_row(JsonWriter& json, const char* key,
                      const CompactRow& row) {
  json.begin_object(key);
  json.field("mb_s", row.mb_per_s);
  json.field("p50_ns", row.latency_ns.quantile(0.50));
  json.field("p90_ns", row.latency_ns.quantile(0.90));
  json.field("p99_ns", row.latency_ns.quantile(0.99));
  json.field("compactor_calls", row.compactor_calls);
  json.field("compaction_passes", row.passes);
  json.end_object();
}

int compaction_main() {
  Rig rig(/*io_threads=*/2);
  Rng rng(0xA51);

  // The read target every reader hammers; warmed so all reads are hits and
  // the only disk activity during the storm is the compactor's.
  const Bytes data = rng.next_bytes(kFileBytes);
  auto target = rig.server().create(data, 2);
  if (!target.ok()) die(target.error().to_string());
  rpc::Request req;
  req.target = target.value();
  req.opcode = wire::kRead;
  if (rig.server().handle(req).status != ErrorCode::ok) std::abort();

  // Lay down the churn files and fragment once up front.
  std::vector<Capability> churn;
  for (std::uint64_t i = 0; i < kChurnFiles; ++i) {
    auto cap = rig.server().create(rng.next_bytes(rng.next_range(40 << 10,
                                                                 64 << 10)),
                                   2);
    if (!cap.ok()) die(cap.error().to_string());
    churn.push_back(cap.value());
  }
  refragment(rig.server(), churn, rng);

  const CompactRow idle =
      compaction_storm(rig, churn, req, CompactMode::kIdle);
  const CompactRow stepped =
      compaction_storm(rig, churn, req, CompactMode::kStepped);
  // Read the stepped lock-hold high-water mark before the unbounded phase
  // pushes the (monotonic) maximum into the milliseconds.
  const std::uint64_t stepped_hold_ns_max =
      metric(rig.server(), "bullet_compact_lock_hold_ns_max");
  const CompactRow unbounded =
      compaction_storm(rig, churn, req, CompactMode::kUnbounded);

  const double p99_idle = idle.latency_ns.quantile(0.99);
  const double ratio_stepped = stepped.latency_ns.quantile(0.99) / p99_idle;
  const double ratio_unbounded =
      unbounded.latency_ns.quantile(0.99) / p99_idle;

  const std::string stats = rig.server().metrics_text();
  const auto io = rig.server().io_queue().stats();

  JsonWriter json;
  json.begin_object();
  stamp_provenance(json, "async_compaction");
  json.begin_object("config");
  json.field("cache_bytes", kCacheBytes);
  json.field("file_bytes", kFileBytes);
  json.field("iters_per_reader", kCompactIters);
  json.field("readers", static_cast<std::uint64_t>(kCompactReaders));
  json.field("io_threads", 2);
  json.field("step_blocks", BulletServer::kCompactStepBlocks);
  json.field("dispatch", "in-process handle()");
  json.field("clock", "host-steady");
  json.field("host_cpus",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.end_object();
  emit_compact_row(json, "idle", idle);
  emit_compact_row(json, "compact_stepped", stepped);
  emit_compact_row(json, "compact_unbounded", unbounded);
  json.field("p99_ratio_stepped_vs_idle", ratio_stepped);
  json.field("p99_ratio_unbounded_vs_idle", ratio_unbounded);
  json.field("stepped_p99_within_2x_idle", ratio_stepped <= 2.0 ? 1 : 0);
  json.begin_object("counters");
  json.field("compact_steps", metric(stats, "bullet_compact_steps_total"));
  json.field("compact_lock_hold_ns_max_stepped", stepped_hold_ns_max);
  json.field("compact_lock_hold_ns_max_overall",
             metric(stats, "bullet_compact_lock_hold_ns_max"));
  json.field("disk_submitted", io.submitted);
  json.field("disk_completed", io.completed);
  json.field("disk_inline_completions", io.inline_completions);
  json.field("disk_queue_depth_max", io.queue_depth_max);
  json.field("lock_wait_ns", metric(stats, "bullet_lock_wait_ns_total"));
  json.end_object();
  json.end_object();

  std::fprintf(stderr,
               "\nCache-hit 64 KB READ p50/p99 (us), %u readers, "
               "compaction alongside\n",
               kCompactReaders);
  std::fprintf(stderr, "  %-12s %10.1f %10.1f\n", "idle",
               idle.latency_ns.quantile(0.50) / 1e3, p99_idle / 1e3);
  std::fprintf(stderr, "  %-12s %10.1f %10.1f  (%.2fx idle p99)\n", "stepped",
               stepped.latency_ns.quantile(0.50) / 1e3,
               stepped.latency_ns.quantile(0.99) / 1e3, ratio_stepped);
  std::fprintf(stderr, "  %-12s %10.1f %10.1f  (%.2fx idle p99)\n",
               "unbounded", unbounded.latency_ns.quantile(0.50) / 1e3,
               unbounded.latency_ns.quantile(0.99) / 1e3, ratio_unbounded);

  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace
}  // namespace bullet::bench

int main(int argc, char** argv) {
  using namespace bullet::bench;
  if (argc > 1 && std::string_view(argv[1]) == "--compaction") {
    return compaction_main();
  }

  const unsigned host_cpus = std::thread::hardware_concurrency();

  JsonWriter json;
  json.begin_object();
  stamp_provenance(json, "concurrency");
  json.begin_object("config");
  json.field("cache_bytes", kCacheBytes);
  json.field("file_bytes", kFileBytes);
  json.field("iters_per_thread", kItersPerThread);
  json.field("dispatch", "in-process handle()");
  json.field("clock", "host-steady");
  json.field("host_cpus", static_cast<std::uint64_t>(host_cpus));
  json.end_object();

  std::fprintf(stderr,
               "\nCache-hit 64 KB READ, aggregate MB/s by client threads "
               "(host has %u cpu(s))\n",
               host_cpus);
  std::fprintf(stderr, "  %-8s %14s %14s %9s %27s\n", "threads", "shared-lock",
               "exclusive", "scaling", "shared p50/p90/p99 (us)");

  // Single-thread shared-lock run first: the baseline every other row is
  // normalized against.
  Rig rig;
  const StormResult baseline = read_storm(rig, 1, /*exclusive=*/false);

  json.begin_array("read_scaling");
  for (unsigned threads : kThreadCounts) {
    const StormResult shared =
        threads == 1 ? baseline : read_storm(rig, threads, /*exclusive=*/false);
    const StormResult serial = read_storm(rig, threads, /*exclusive=*/true);
    json.begin_object();
    json.field("threads", static_cast<std::uint64_t>(threads));
    json.field("shared_mb_s", shared.mb_per_s);
    json.field("exclusive_mb_s", serial.mb_per_s);
    json.field("speedup_vs_1thread", shared.mb_per_s / baseline.mb_per_s);
    json.field("shared_p50_ns", shared.latency_ns.quantile(0.50));
    json.field("shared_p90_ns", shared.latency_ns.quantile(0.90));
    json.field("shared_p99_ns", shared.latency_ns.quantile(0.99));
    json.field("exclusive_p50_ns", serial.latency_ns.quantile(0.50));
    json.field("exclusive_p99_ns", serial.latency_ns.quantile(0.99));
    json.end_object();
    std::fprintf(stderr, "  %-8u %14.1f %14.1f %8.2fx %8.1f/%6.1f/%6.1f\n",
                 threads, shared.mb_per_s, serial.mb_per_s,
                 shared.mb_per_s / baseline.mb_per_s,
                 shared.latency_ns.quantile(0.50) / 1e3,
                 shared.latency_ns.quantile(0.90) / 1e3,
                 shared.latency_ns.quantile(0.99) / 1e3);
  }
  json.end_array();

  // Lock-contention counters after the storm: lock_wait_ns is the time
  // readers spent blocked (mostly behind the occasional exclusive op);
  // pinned_evict_defers stays 0 here because the cache never fills.
  const std::string stats = rig.server().metrics_text();
  json.begin_object("counters");
  json.field("lock_wait_ns", metric(stats, "bullet_lock_wait_ns_total"));
  json.field("pinned_evict_defers",
             metric(stats, "bullet_pinned_evict_defers_total"));
  json.field("cache_hits", metric(stats, "bullet_cache_hits_total"));
  json.field("bytes_copied", metric(stats, "bullet_bytes_copied_total"));
  json.end_object();

  json.end_object();
  std::printf("%s\n", json.str().c_str());
  return 0;
}
