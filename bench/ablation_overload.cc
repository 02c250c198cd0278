// Overload ablation: does the admission-control plane buy graceful
// degradation?
//
// An open-loop, trace-driven load generator drives a real deployment (UDP
// worker pool in front of a BulletServer with the async disk pipeline):
// zipfian file popularity, Poisson arrivals, offered load swept across
// multiples of the measured closed-loop capacity. Open-loop is the point —
// a closed-loop client slows down when the server does, hiding collapse;
// Poisson arrivals keep coming at 2x-4x capacity exactly like the crowd of
// independent Amoeba workstations the paper's server faced.
//
// The service is paced: each dispatched request costs a fixed service time
// (--service-us, default 400us) on its worker before the real BulletServer
// handles it. On the small CI hosts this bench runs on, the generator and
// the server share the same cores; without pacing the server saturates the
// host CPU first and no sender pool can offer 2x its capacity — the bench
// silently degrades to closed loop and the overload plane never engages.
// Pacing bounds capacity by the worker pool (workers / service_us), the way
// a disk arm bounded the paper's server, leaving the host CPU free to
// actually inject overload. Set --service-us 0 to disable.
//
// What graceful degradation means here, and what the JSON records:
//   * goodput plateaus near capacity instead of collapsing as offered load
//     rises past 1x (served-over-capacity ratios per phase);
//   * served-request p99 stays bounded — the dispatch queue bound caps how
//     long an *accepted* request can wait, so the requests the server does
//     accept still finish fast;
//   * shed requests fail fast with BS_PUSHBACK (bounded shed latency)
//     instead of timing out;
//   * nothing acked is lost: every create the server acknowledged under
//     overload is readable afterwards (acked_lost must be 0).
//
// Latency basis: served/shed latencies are measured from the moment the
// sender issues the call (what the server controls). Sender lateness against
// the Poisson schedule is reported separately as injection lag — under
// overload a finite sender pool falls behind its schedule, and folding that
// backlog into service latency would charge the server for the generator's
// queue.
//
// Emits JSON on stdout (snapshot: bench/BENCH_overload.json) and a table on
// stderr. Flags:
//   --smoke          short phases, 1x/2x only (CI)
//   --check          exit 1 unless goodput at 2x >= 50% of closed-loop
//                    capacity and the shed counters actually engaged
//   --seed N         workload RNG seed (default 0xB5D)
//   --zipf S         zipfian skew (default 0.99)
//   --service-us N   paced per-request service time (default 400, 0 = off)
//   --senders N      open-loop sender pool size (default 64 smoke, 160 full)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bullet/client.h"
#include "bullet/server.h"
#include "disk/mem_disk.h"
#include "disk/mirrored_disk.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "rpc/udp_transport.h"

namespace bullet::bench {
namespace {

constexpr std::uint64_t kBlockSize = 512;
constexpr std::uint64_t kDeviceBlocks = 1 << 17;  // 64 MB per replica
constexpr std::uint32_t kInodeSlots = 8192;
constexpr std::uint64_t kCacheBytes = 16ull << 20;
constexpr std::size_t kFiles = 256;          // zipfian working set
constexpr std::uint64_t kFileBytes = 2048;   // cache-resident once warm
constexpr unsigned kServerWorkers = 2;
constexpr unsigned kIoThreads = 2;
constexpr std::size_t kMaxQueue = 16;        // dispatch bound: ~queue/rate wait
constexpr std::uint32_t kShedRetryMs = 5;
constexpr std::size_t kMaxInflightFills = 64;
constexpr unsigned kClosedThreads = 8;       // capacity probe
constexpr std::uint32_t kReadBudgetMs = 40;  // per-call deadline budget
constexpr std::uint32_t kCreateBudgetMs = 250;
constexpr int kCreateEvery = 32;             // 1 create per 32 arrivals

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "bench failed: %s\n", message.c_str());
  std::abort();
}

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t ns_between(Clock::time_point from, Clock::time_point to) {
  const auto delta =
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
  return delta > 0 ? static_cast<std::uint64_t>(delta) : 0;
}

// Fixed per-request service time in front of the real server: holds the
// dispatching worker for `service_us` before delegating, so capacity is
// bounded by the worker pool instead of the host CPU (see file comment).
// Admission, pushback, and deadline drops all happen upstream in the
// transport, so sheds never pay the pacing cost — exactly like real sheds
// never touching the disk.
class PacedService final : public rpc::Service {
 public:
  PacedService(rpc::Service* inner, unsigned service_us)
      : inner_(inner), service_us_(service_us) {}

  Port public_port() const noexcept override { return inner_->public_port(); }

  rpc::Reply handle(const rpc::Request& request) override {
    pace();
    return inner_->handle(request);
  }

  void handle_async(const rpc::Request& request,
                    rpc::Responder respond) override {
    pace();
    inner_->handle_async(request, std::move(respond));
  }

 private:
  void pace() const {
    if (service_us_ > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(service_us_));
    }
  }

  rpc::Service* inner_;
  unsigned service_us_;
};

// The deployment under test: mirrored MemDisks, BulletServer with the async
// pipeline and the fill bound, UDP worker pool with a bounded dispatch
// queue. Everything crosses the real socket.
class Rig {
 public:
  explicit Rig(unsigned service_us)
      : raw0_(kBlockSize, kDeviceBlocks), raw1_(kBlockSize, kDeviceBlocks) {
    Status st = BulletServer::format(raw0_, kInodeSlots);
    if (!st.ok()) die(st.to_string());
    st = raw1_.restore(raw0_.snapshot());
    if (!st.ok()) die(st.to_string());
    auto mirror = MirroredDisk::create({&raw0_, &raw1_});
    if (!mirror.ok()) die(mirror.error().to_string());
    mirror_ = std::make_unique<MirroredDisk>(std::move(mirror).value());
    BulletConfig config;
    config.cache_bytes = kCacheBytes;
    config.io_threads = kIoThreads;
    config.max_inflight_fills = kMaxInflightFills;
    auto server = BulletServer::start(mirror_.get(), config);
    if (!server.ok()) die(server.error().to_string());
    server_ = std::move(server).value();
    paced_ = std::make_unique<PacedService>(server_.get(), service_us);

    rpc::UdpServerOptions udp_options;
    udp_options.workers = kServerWorkers;
    udp_options.max_queue = kMaxQueue;
    udp_options.shed_retry_ms = kShedRetryMs;
    auto udp = rpc::UdpServer::start(udp_options);
    if (!udp.ok()) die(udp.error().to_string());
    udp_ = std::move(udp).value();
    server_->attach_io_counters(&udp_->io_counters());
    st = udp_->register_service(paced_.get());
    if (!st.ok()) die(st.to_string());
  }

  BulletServer& server() { return *server_; }
  std::uint16_t port() const { return udp_->port(); }

  std::unique_ptr<rpc::UdpTransport> connect(bool open_loop) {
    rpc::UdpClientOptions options;
    options.server_udp_port = udp_->port();
    options.timeout_ms = 50;
    options.max_timeout_ms = 200;
    // Open-loop senders bound each call by the deadline budget, not by
    // attempts; the closed-loop probe and verifier retry generously.
    options.max_attempts = open_loop ? 6 : 10;
    auto transport = rpc::UdpTransport::connect(options);
    if (!transport.ok()) die(transport.error().to_string());
    return std::move(transport).value();
  }

 private:
  MemDisk raw0_, raw1_;
  std::unique_ptr<MirroredDisk> mirror_;
  std::unique_ptr<BulletServer> server_;
  std::unique_ptr<PacedService> paced_;
  std::unique_ptr<rpc::UdpServer> udp_;
};

// Zipfian popularity over kFiles ranks: precomputed CDF, sampled by binary
// search on a uniform draw.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t sample(double u) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// --- capacity probe (closed loop) ------------------------------------------

double measure_capacity(Rig& rig, const std::vector<Capability>& files,
                        const Zipf& zipf, double seconds,
                        std::uint64_t seed) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ok{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kClosedThreads; ++t) {
    pool.emplace_back([&, t] {
      auto transport = rig.connect(/*open_loop=*/false);
      BulletClient client(transport.get(),
                          rig.server().super_capability());
      Rng rng(seed + t);
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const Capability& cap = files[zipf.sample(rng.next_double())];
        if (client.read(cap).ok()) ++local;
      }
      ok.fetch_add(local, std::memory_order_relaxed);
    });
  }
  const auto start = Clock::now();
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(seconds * 1000)));
  stop.store(true, std::memory_order_relaxed);
  for (auto& thread : pool) thread.join();
  return static_cast<double>(ok.load()) / seconds_since(start);
}

// --- open-loop phase --------------------------------------------------------

struct PhaseResult {
  double multiple = 0;
  double target_ops_s = 0;
  double achieved_offered_s = 0;  // what the senders actually injected
  double goodput_ops_s = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t ok = 0;
  std::uint64_t pushback_failed = 0;   // terminal retry_later
  std::uint64_t deadline_failed = 0;
  std::uint64_t other_failed = 0;
  std::uint64_t acked_creates = 0;
  std::uint64_t acked_lost = 0;        // acked create not readable afterwards
  obs::HistogramSnapshot served_ns;    // latency from call issue
  obs::HistogramSnapshot shed_ns;      // time to a terminal shed failure
  obs::HistogramSnapshot lag_ns;       // scheduled arrival -> actual issue
  // Server-counter deltas across the phase.
  std::uint64_t shed_pushback = 0;
  std::uint64_t deadline_expired = 0;
  std::uint64_t inflight_sheds = 0;
};

PhaseResult run_phase(Rig& rig, const std::vector<Capability>& files,
                      const Zipf& zipf, double multiple, double capacity_ops_s,
                      double seconds, unsigned senders, std::uint64_t seed) {
  PhaseResult result;
  result.multiple = multiple;
  result.target_ops_s = capacity_ops_s * multiple;

  // Precompute the Poisson arrival schedule (seconds from phase start) and
  // deal it round-robin to the senders.
  std::vector<std::vector<double>> arrivals(senders);
  {
    Rng rng(seed ^ 0xA221BA1);
    double t = 0;
    std::size_t i = 0;
    while (true) {
      t += -std::log(1.0 - rng.next_double()) / result.target_ops_s;
      if (t >= seconds) break;
      arrivals[i % senders].push_back(t);
      ++i;
    }
    result.scheduled = i;
  }

  const std::string before = rig.server().metrics_text();

  struct SenderStats {
    std::uint64_t ok = 0, pushback = 0, deadline = 0, other = 0;
    std::uint64_t acked_creates = 0;
    obs::HistogramSnapshot served_ns, shed_ns, lag_ns;
    std::vector<Capability> acked;
  };
  std::vector<SenderStats> per_sender(senders);
  std::atomic<std::uint64_t> sent{0};

  const auto start = Clock::now();
  std::vector<std::thread> pool;
  for (unsigned s = 0; s < senders; ++s) {
    pool.emplace_back([&, s] {
      auto transport = rig.connect(/*open_loop=*/true);
      BulletClient client(transport.get(), rig.server().super_capability());
      client.set_deadline_budget_ms(kReadBudgetMs);
      Rng rng(seed + 31 * s + 1);
      SenderStats& mine = per_sender[s];
      int op = static_cast<int>(s);  // desynchronize the create slots
      for (const double at : arrivals[s]) {
        const auto when =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(at));
        // Open loop: sleep until the scheduled arrival; if we are behind,
        // inject immediately and account the backlog as injection lag.
        std::this_thread::sleep_until(when);
        const auto issue = Clock::now();
        mine.lag_ns.add(ns_between(when, issue));
        sent.fetch_add(1, std::memory_order_relaxed);
        const bool is_create = (++op % kCreateEvery) == 0;
        Status outcome = Status::success();
        if (is_create) {
          client.set_deadline_budget_ms(kCreateBudgetMs);
          auto cap = client.create(rng.next_bytes(1024), 1);
          client.set_deadline_budget_ms(kReadBudgetMs);
          if (cap.ok()) {
            ++mine.acked_creates;
            mine.acked.push_back(cap.value());
          } else {
            outcome = cap.error();
          }
        } else {
          const Capability& cap = files[zipf.sample(rng.next_double())];
          auto data = client.read(cap);
          if (!data.ok()) outcome = data.error();
        }
        const std::uint64_t lat_ns = ns_between(issue, Clock::now());
        if (outcome.ok()) {
          ++mine.ok;
          mine.served_ns.add(lat_ns);
        } else if (outcome.code() == ErrorCode::retry_later) {
          ++mine.pushback;
          mine.shed_ns.add(lat_ns);
        } else if (outcome.code() == ErrorCode::deadline_expired) {
          ++mine.deadline;
          mine.shed_ns.add(lat_ns);
        } else {
          ++mine.other;
        }
      }
    });
  }
  for (auto& thread : pool) thread.join();
  const double elapsed = seconds_since(start);

  // Every create the server acknowledged must be durable and readable —
  // overload may refuse work, never lose acked work.
  {
    auto transport = rig.connect(/*open_loop=*/false);
    BulletClient reader(transport.get(), rig.server().super_capability());
    for (const SenderStats& s : per_sender) {
      for (const Capability& cap : s.acked) {
        if (!reader.read(cap).ok()) ++result.acked_lost;
      }
    }
  }

  for (const SenderStats& s : per_sender) {
    result.ok += s.ok;
    result.pushback_failed += s.pushback;
    result.deadline_failed += s.deadline;
    result.other_failed += s.other;
    result.acked_creates += s.acked_creates;
    result.served_ns.merge(s.served_ns);
    result.shed_ns.merge(s.shed_ns);
    result.lag_ns.merge(s.lag_ns);
  }
  result.achieved_offered_s = static_cast<double>(sent.load()) / elapsed;
  result.goodput_ops_s = static_cast<double>(result.ok) / elapsed;

  const std::string after = rig.server().metrics_text();
  const auto delta = [&](const char* name) {
    return metric(after, name) - metric(before, name);
  };
  result.shed_pushback = delta("bullet_shed_pushback_total");
  result.deadline_expired = delta("bullet_deadline_expired_total");
  result.inflight_sheds = delta("bullet_inflight_sheds_total");
  return result;
}

void emit_phase(JsonWriter& json, const PhaseResult& r) {
  json.begin_object();
  json.field("load_multiple", r.multiple);
  json.field("target_ops_s", r.target_ops_s);
  json.field("achieved_offered_s", r.achieved_offered_s);
  json.field("goodput_ops_s", r.goodput_ops_s);
  json.field("scheduled", r.scheduled);
  json.field("ok", r.ok);
  json.field("pushback_failed", r.pushback_failed);
  json.field("deadline_failed", r.deadline_failed);
  json.field("other_failed", r.other_failed);
  json.field("acked_creates", r.acked_creates);
  json.field("acked_lost", r.acked_lost);
  json.field("served_p50_ns", r.served_ns.quantile(0.50));
  json.field("served_p99_ns", r.served_ns.quantile(0.99));
  json.field("shed_p99_ns", r.shed_ns.quantile(0.99));
  json.field("injection_lag_p99_ns", r.lag_ns.quantile(0.99));
  json.begin_object("server_deltas");
  json.field("shed_pushback", r.shed_pushback);
  json.field("deadline_expired", r.deadline_expired);
  json.field("inflight_sheds", r.inflight_sheds);
  json.end_object();
  json.end_object();
}

int run(bool smoke, bool check, std::uint64_t seed, double zipf_s,
        unsigned service_us, unsigned senders) {
  const double capacity_seconds = smoke ? 0.5 : 1.5;
  const double phase_seconds = smoke ? 1.2 : 3.0;
  const std::vector<double> multiples =
      smoke ? std::vector<double>{1.0, 2.0}
            : std::vector<double>{0.5, 1.0, 2.0, 4.0};

  Rig rig(service_us);
  Zipf zipf(kFiles, zipf_s);

  // Working set: kFiles small files, created warm (in cache) through the
  // local API so the load phases start from a hot server.
  std::vector<Capability> files;
  {
    Rng rng(seed);
    for (std::size_t i = 0; i < kFiles; ++i) {
      auto cap = rig.server().create(rng.next_bytes(kFileBytes), 1);
      if (!cap.ok()) die(cap.error().to_string());
      files.push_back(cap.value());
    }
  }

  const double capacity =
      measure_capacity(rig, files, zipf, capacity_seconds, seed);
  std::fprintf(stderr,
               "\nOpen-loop zipfian overload (s=%.2f, %zu files, service "
               "%u us, read budget %u ms, queue bound %zu, %u senders)\n"
               "closed-loop capacity: %.0f ops/s\n\n",
               zipf_s, kFiles, service_us, kReadBudgetMs, kMaxQueue, senders,
               capacity);
  std::fprintf(stderr, "  %-6s %12s %12s %10s %10s %10s %12s %12s\n", "load",
               "offered/s", "goodput/s", "p50(us)", "p99(us)", "lag99(ms)",
               "pushbacks", "acked_lost");

  std::vector<PhaseResult> phases;
  for (const double multiple : multiples) {
    PhaseResult r = run_phase(rig, files, zipf, multiple, capacity,
                              phase_seconds, senders,
                              seed + phases.size() + 1);
    std::fprintf(stderr, "  %-6.1f %12.0f %12.0f %10.1f %10.1f %10.1f "
                         "%12" PRIu64 " %12" PRIu64 "\n",
                 r.multiple, r.achieved_offered_s, r.goodput_ops_s,
                 r.served_ns.quantile(0.50) / 1e3,
                 r.served_ns.quantile(0.99) / 1e3,
                 r.lag_ns.quantile(0.99) / 1e6,
                 r.shed_pushback + r.pushback_failed, r.acked_lost);
    phases.push_back(std::move(r));
  }

  auto phase_at = [&](double m) -> const PhaseResult* {
    for (const PhaseResult& r : phases) {
      if (r.multiple == m) return &r;
    }
    return nullptr;
  };
  const PhaseResult* at1 = phase_at(1.0);
  const PhaseResult* at2 = phase_at(2.0);
  const double goodput_2x_over_capacity =
      at2 != nullptr ? at2->goodput_ops_s / capacity : 0;
  double peak_goodput = 0;
  for (const PhaseResult& r : phases) {
    peak_goodput = std::max(peak_goodput, r.goodput_ops_s);
  }
  const double p99_2x_over_1x =
      (at1 != nullptr && at2 != nullptr && at1->served_ns.quantile(0.99) > 0)
          ? at2->served_ns.quantile(0.99) / at1->served_ns.quantile(0.99)
          : 0;
  std::uint64_t acked_lost_total = 0;
  for (const PhaseResult& r : phases) acked_lost_total += r.acked_lost;

  const std::string stats = rig.server().metrics_text();
  JsonWriter json;
  json.begin_object();
  stamp_provenance(json, "overload");
  json.begin_object("config");
  json.field("files", static_cast<std::uint64_t>(kFiles));
  json.field("file_bytes", kFileBytes);
  json.field("zipf_s", zipf_s);
  json.field("seed", seed);
  json.field("workers", static_cast<std::uint64_t>(kServerWorkers));
  json.field("io_threads", static_cast<std::uint64_t>(kIoThreads));
  json.field("service_us", static_cast<std::uint64_t>(service_us));
  json.field("max_queue", static_cast<std::uint64_t>(kMaxQueue));
  json.field("shed_retry_ms", static_cast<std::uint64_t>(kShedRetryMs));
  json.field("max_inflight_fills",
             static_cast<std::uint64_t>(kMaxInflightFills));
  json.field("read_budget_ms", static_cast<std::uint64_t>(kReadBudgetMs));
  json.field("create_budget_ms",
             static_cast<std::uint64_t>(kCreateBudgetMs));
  json.field("senders", static_cast<std::uint64_t>(senders));
  json.field("phase_seconds", phase_seconds);
  json.field("smoke", smoke ? 1 : 0);
  json.field("dispatch", "udp worker pool");
  json.field("latency_basis", "from-call-issue; schedule backlog reported "
                              "as injection_lag");
  json.field("clock", "host-steady");
  json.field("host_cpus",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.end_object();
  json.field("capacity_ops_s", capacity);
  json.begin_array("phases");
  for (const PhaseResult& r : phases) emit_phase(json, r);
  json.end_array();
  json.field("goodput_2x_over_capacity", goodput_2x_over_capacity);
  json.field("goodput_2x_over_peak",
             peak_goodput > 0 && at2 != nullptr
                 ? at2->goodput_ops_s / peak_goodput
                 : 0);
  json.field("served_p99_2x_over_1x", p99_2x_over_1x);
  json.field("acked_lost_total", acked_lost_total);
  json.begin_object("counters");
  json.field("shed_pushback", metric(stats, "bullet_shed_pushback_total"));
  json.field("deadline_expired",
             metric(stats, "bullet_deadline_expired_total"));
  json.field("rx_queue_depth_max", metric(stats, "bullet_rx_queue_depth_max"));
  json.field("inflight_sheds", metric(stats, "bullet_inflight_sheds_total"));
  json.end_object();
  json.end_object();
  std::printf("%s\n", json.str().c_str());

  if (acked_lost_total != 0) {
    std::fprintf(stderr, "FAIL: %" PRIu64 " acked creates were lost\n",
                 acked_lost_total);
    return 1;
  }
  if (check) {
    if (at2 == nullptr || goodput_2x_over_capacity < 0.5) {
      std::fprintf(stderr,
                   "FAIL: goodput at 2x overload is %.0f%% of capacity "
                   "(need >= 50%%)\n",
                   goodput_2x_over_capacity * 100);
      return 1;
    }
    const std::uint64_t engaged =
        at2->shed_pushback + at2->deadline_expired;
    if (engaged == 0) {
      std::fprintf(stderr,
                   "FAIL: 2x phase never engaged the overload plane (no "
                   "sheds, no deadline drops) — the bench is not actually "
                   "overloading the server\n");
      return 1;
    }
    std::fprintf(stderr,
                 "check passed: goodput at 2x = %.0f%% of capacity, served "
                 "p99 at 2x = %.2fx of p99 at 1x, %" PRIu64
                 " sheds at 2x\n",
                 goodput_2x_over_capacity * 100, p99_2x_over_1x, engaged);
  }
  return 0;
}

}  // namespace
}  // namespace bullet::bench

int main(int argc, char** argv) {
  bool smoke = false;
  bool check = false;
  std::uint64_t seed = 0xB5D;
  double zipf_s = 0.99;
  unsigned service_us = 400;
  unsigned senders = 0;  // 0 = pick by mode below
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--zipf" && i + 1 < argc) {
      zipf_s = std::strtod(argv[++i], nullptr);
    } else if (arg == "--service-us" && i + 1 < argc) {
      service_us = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 0));
    } else if (arg == "--senders" && i + 1 < argc) {
      senders = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 0));
    } else {
      std::fprintf(stderr,
                   "usage: ablation_overload [--smoke] [--check] [--seed N] "
                   "[--zipf S] [--service-us N] [--senders N]\n");
      return 2;
    }
  }
  if (senders == 0) senders = smoke ? 64 : 160;
  return bullet::bench::run(smoke, check, seed, zipf_s, service_us, senders);
}
