// perfbench: the repository benchmark (see README.md in this directory).
//
//   perfbench --workload hot-read|cold-large-read|replicated-churn
//             --seed N --seconds S --trace 0|1 --rate OPS_PER_S
//             --work-dir DIR [--spans FILE]
//
// Boots the daemon's stack in-process (rig.h), sets it up kSetups times and
// keeps the last, then drives it from at most two client threads, each
// with its own UdpTransport:
//
//   --trace 0  a closed loop (throughput) and an unloaded loop (latency: one
//              client, one request outstanding) for S/2 each, alternated
//              in kRounds rounds;
//   --trace 1  the stack is built with the timing decorators of probes.h;
//              closed loop S/4 with recording off, closed loop S/4 and a
//              Poisson open loop at --rate for S/2 with recording on;
//              per-layer metrics come from the recorded window, and the two
//              closed loops give the tracing overhead. The open loop's
//              latencies (from each request's due time) and generator lag
//              go to the detail output.
//
// Every READ's bytes are compared with the file's seeded content after its
// clock stops; after the load every live file must read back byte-identical
// (on both replicas of a pair) and every deleted one must be gone. Prints
// one JSON object on stdout: the result (correct, attempted, failed,
// metrics) plus a "detail" object with the configuration and everything
// else measured.
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bullet/client.h"
#include "common/rng.h"
#include "probes.h"
#include "rig.h"

namespace perfbench {
namespace {

using namespace bullet;
using Clock = std::chrono::steady_clock;

constexpr int kSetups = 5;
// Each measured phase is cut into this many equal windows and reports the
// median of the per-window figures. On a shared host a stall of a few
// milliseconds puts the arrivals behind it past one window's p99; the
// median ignores it unless it recurs in half the windows.
constexpr int kWindows = 20;
// The plain run alternates its closed and unloaded loops in this many
// rounds, so each metric's windows spread over the whole run: a host stall
// of a few seconds lands in a few windows of each, not in most of one.
constexpr int kRounds = 10;
// The open loop's first tenth is a lead-in, not measured: the switch from
// the closed loop (thread start, empty queues) shows as a latency spike.
constexpr double kLeadInShare = 0.1;
// Two requests outstanding at most: with the server threads serving them,
// no more threads are runnable than a 4-vCPU host has, so a vCPU the
// hypervisor takes away stalls a spare core rather than a request.
constexpr unsigned kMaxClients = 2;

// --- workloads ---------------------------------------------------------------

enum class Shape { kHotRead, kColdLargeRead, kChurn };

struct Workload {
  const char* name;
  Shape shape;
  bool pair;
  unsigned images_per_server;
  std::uint64_t image_mb;
  std::uint32_t inode_slots;
  std::uint64_t cache_mb;
  // Open-loop validity: the generator may issue a request at most this late
  // at p99 before the run is flagged as measuring the generator.
  double max_gen_lag_p99_us;
};

constexpr Workload kWorkloads[] = {
    // 1024 x 4 KB files, zipf 0.99: fits the cache, so reads never touch disk.
    {"hot-read", Shape::kHotRead, false, 2, 32, 4096, 64, 1000},
    // ~64 MB of 64 KB / 256 KB / 1 MB files through a 16 MB cache, uniform.
    {"cold-large-read", Shape::kColdLargeRead, false, 2, 96, 4096, 16, 20000},
    // Pair; 50% READ, 25% CREATE (1 B - 64 KB log-uniform), 25% DELETE over
    // ~2048 live files.
    {"replicated-churn", Shape::kChurn, true, 1, 64, 8192, 64, 2000},
};

constexpr std::size_t kHotFiles = 1024;
constexpr std::size_t kHotFileBytes = 4096;
constexpr double kHotZipf = 0.99;
constexpr std::uint64_t kColdTotalBytes = 64ull << 20;
constexpr std::size_t kColdSizes[] = {64 << 10, 256 << 10, 1 << 20};
constexpr std::size_t kChurnFiles = 2048;
constexpr std::size_t kChurnMaxBytes = 64 << 10;
constexpr int kPfactor = 1;

// --- small helpers -------------------------------------------------------------

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// The seeded content of one file: a pure function of its key and size, so
// the oracle can hold it and compare every read against it.
std::shared_ptr<const Bytes> make_content(std::uint64_t key, std::size_t size) {
  auto out = std::make_shared<Bytes>(size);
  std::uint64_t state = key;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    const std::uint64_t v = splitmix(state);
    std::memcpy(out->data() + i, &v, 8);
  }
  if (i < size) {
    const std::uint64_t v = splitmix(state);
    std::memcpy(out->data() + i, &v, size - i);
  }
  return out;
}

// A churn file size: log-uniform over [1, kChurnMaxBytes].
std::size_t log_uniform_size(Rng& rng) {
  const double u = rng.next_double();
  const auto size = static_cast<std::size_t>(
      std::exp(u * std::log(static_cast<double>(kChurnMaxBytes) + 1)));
  return std::clamp<std::size_t>(size, 1, kChurnMaxBytes);
}

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
    return std::min(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// Nearest-rank quantile. 0 when empty.
double quantile(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// The median over windows of each window's quantile `q`.
double windowed_quantile(const std::vector<std::uint64_t>& samples,
                         const std::vector<std::uint8_t>& window, double q) {
  std::vector<std::vector<std::uint64_t>> by_window(kWindows);
  for (std::size_t i = 0; i < samples.size(); ++i) by_window[window[i]].push_back(samples[i]);
  std::vector<double> per_window;
  for (auto& w : by_window) {
    if (!w.empty()) per_window.push_back(quantile(w, q));
  }
  return median(per_window);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

// Insertion-ordered JSON object of numbers, strings and nested objects.
class JsonObject {
 public:
  void num(const std::string& key, double v) { add(key, json_number(v)); }
  void str(const std::string& key, const std::string& v) { add(key, json_string(v)); }
  void raw(const std::string& key, const std::string& v) { add(key, v); }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void add(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += json_string(key) + ": " + value;
  }
  std::string body_;
};

// --- files and clients ---------------------------------------------------------

struct FileRec {
  Capability cap;
  std::shared_ptr<const Bytes> content;
};

enum OpKind : std::uint16_t { kRead = 0, kCreate = 1, kDelete = 2, kOpKinds = 3 };
const char* const kOpNames[kOpKinds] = {"read", "create", "delete"};

struct PhaseTally {
  std::uint64_t attempted[kOpKinds] = {};
  std::uint64_t failed[kOpKinds] = {};
  std::uint64_t wrong_bytes = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t created_bytes = 0;
  // Open loop only: latency of each successful op and the window of its
  // due time, and the generator's lateness for every arrival.
  std::vector<std::uint64_t> latency_ns[kOpKinds];
  std::vector<std::uint8_t> latency_window[kOpKinds];
  std::vector<std::uint64_t> lag_ns;

  std::uint64_t ops() const { return attempted[kRead] + attempted[kCreate] + attempted[kDelete]; }
  std::uint64_t failures() const {
    return failed[kRead] + failed[kCreate] + failed[kDelete] + wrong_bytes;
  }
  void merge(const PhaseTally& other) {
    for (int k = 0; k < kOpKinds; ++k) {
      attempted[k] += other.attempted[k];
      failed[k] += other.failed[k];
      latency_ns[k].insert(latency_ns[k].end(), other.latency_ns[k].begin(),
                           other.latency_ns[k].end());
      latency_window[k].insert(latency_window[k].end(), other.latency_window[k].begin(),
                               other.latency_window[k].end());
    }
    wrong_bytes += other.wrong_bytes;
    read_bytes += other.read_bytes;
    created_bytes += other.created_bytes;
    lag_ns.insert(lag_ns.end(), other.lag_ns.begin(), other.lag_ns.end());
  }
};

struct Planned {
  OpKind kind = kRead;
  std::size_t index = 0;                 // into the shared files or live set
  std::shared_ptr<const Bytes> content;  // create payload
};

struct Shared {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  bool traced = false;
  bool pinned = false;  // client thread i on CPU i, servers on the CPUs after
  std::vector<FileRec> files;  // read-only during the load (solo shapes)
  std::vector<std::size_t> zipf_order;
  std::unique_ptr<Zipf> zipf;
};

// One client thread's connection and, for the churn shape, its own slice of
// the live files (no other thread reads or deletes them).
struct Worker {
  unsigned index = 0;
  std::unique_ptr<rpc::UdpTransport> udp;
  std::unique_ptr<TimedTransport> timed;
  std::unique_ptr<BulletClient> client;
  Rng rng;
  std::vector<FileRec> live;
  std::vector<Capability> deleted;
  bool create_next = true;
  std::uint64_t creates = 0;
  std::uint64_t next_trace = 0;
};

Planned plan(const Shared& shared, Worker& w) {
  Planned p;
  switch (shared.workload->shape) {
    case Shape::kHotRead:
      p.index = shared.zipf_order[shared.zipf->sample(w.rng.next_double())];
      return p;
    case Shape::kColdLargeRead:
      p.index = w.rng.next_below(shared.files.size());
      return p;
    case Shape::kChurn:
      break;
  }
  // Mutations alternate create/delete per thread so each slice stays at its
  // starting size; the choice between read and mutation is a fair coin.
  if (w.rng.next_double() < 0.5 && !w.live.empty()) {
    p.index = w.rng.next_below(w.live.size());
    return p;
  }
  if (w.create_next || w.live.empty()) {
    p.kind = kCreate;
    const std::uint64_t key = (shared.seed << 24) ^
                              (static_cast<std::uint64_t>(w.index + 1) << 56) ^
                              (0x100000000ull + w.creates++);
    p.content = make_content(key, log_uniform_size(w.rng));
  } else {
    p.kind = kDelete;
    p.index = w.rng.next_below(w.live.size());
  }
  w.create_next = !w.create_next;
  return p;
}

struct Outcome {
  bool ok = false;
  bool wrong_bytes = false;
  std::uint64_t bytes = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

// Issue one planned op. The clock stops (end_ns) before the bytes are
// checked or any bookkeeping runs.
Outcome execute(const Shared& shared, Worker& w, Planned& p) {
  Outcome out;
  const std::uint64_t start = out.start_ns = now_ns();
  // Requests carry a trace id only while recording: an id makes the server
  // trace the request, a cost the untraced closed loop must not pay.
  const bool traced = shared.traced && recording();
  if (shared.traced) w.client->set_trace_id(traced ? ++w.next_trace : 0);
  switch (p.kind) {
    case kRead: {
      const FileRec& rec = shared.workload->shape == Shape::kChurn
                               ? w.live[p.index]
                               : shared.files[p.index];
      auto data = w.client->read(rec.cap);
      out.end_ns = now_ns();
      out.ok = data.ok();
      if (out.ok) {
        out.bytes = data.value().size();
        out.wrong_bytes = data.value() != *rec.content;
      }
      break;
    }
    case kCreate: {
      auto cap = w.client->create(*p.content, kPfactor);
      out.end_ns = now_ns();
      out.ok = cap.ok();
      if (out.ok) {
        out.bytes = p.content->size();
        w.live.push_back({cap.value(), std::move(p.content)});
      }
      break;
    }
    case kDelete: {
      const Status st = w.client->erase(w.live[p.index].cap);
      out.end_ns = now_ns();
      out.ok = st.ok();
      // A failed delete leaves the file's state unknown: stop tracking it.
      if (out.ok) w.deleted.push_back(w.live[p.index].cap);
      w.live[p.index] = std::move(w.live.back());
      w.live.pop_back();
      break;
    }
    default:
      break;
  }
  if (traced) {
    Span span;
    span.trace_id = w.next_trace;
    span.start_ns = start;
    span.dur_ns = static_cast<std::uint32_t>(std::min<std::uint64_t>(out.end_ns - start, 0xFFFFFFFFu));
    span.kind = SpanKind::kOp;
    span.aux = p.kind;
    record(span);
  }
  return out;
}

void tally(PhaseTally& t, OpKind kind, const Outcome& o) {
  ++t.attempted[kind];
  if (!o.ok) ++t.failed[kind];
  if (o.wrong_bytes) ++t.wrong_bytes;
  if (o.ok && kind == kRead) t.read_bytes += o.bytes;
  if (o.ok && kind == kCreate) t.created_bytes += o.bytes;
}

// Restrict the calling thread to CPUs [first, first + count).
void pin_to(unsigned first, unsigned count) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned c = first; c < first + count; ++c) CPU_SET(c, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

// Run `body(worker)` on one thread per worker and join them all.
void on_each(std::vector<Worker>& workers, const std::function<void(Worker&)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(workers.size());
  for (Worker& w : workers) threads.emplace_back([&body, &w] { body(w); });
  for (std::thread& t : threads) t.join();
}

// --- setup ---------------------------------------------------------------------

struct Env {
  std::unique_ptr<Rig> rig;
  Shared shared;
  std::vector<Worker> workers;
};

std::vector<std::size_t> file_sizes(const Workload& wl, std::uint64_t seed) {
  std::vector<std::size_t> sizes;
  Rng rng(seed ^ 0x5EED5EEDull);
  switch (wl.shape) {
    case Shape::kHotRead:
      sizes.assign(kHotFiles, kHotFileBytes);
      break;
    case Shape::kColdLargeRead: {
      // Equal counts of each size, so every seed reads the same size mix
      // (the latency quantiles sit inside one size's mode); the seed only
      // decides which file gets which size.
      std::uint64_t total = 0;
      while (total < kColdTotalBytes) {
        for (const std::size_t size : kColdSizes) {
          sizes.push_back(size);
          total += size;
        }
      }
      for (std::size_t i = sizes.size() - 1; i > 0; --i) {
        std::swap(sizes[i], sizes[rng.next_below(i + 1)]);
      }
      break;
    }
    case Shape::kChurn:
      for (std::size_t i = 0; i < kChurnFiles; ++i) sizes.push_back(log_uniform_size(rng));
      break;
  }
  return sizes;
}

// Format, boot, preload the working set over UDP with the load's own client
// connections, and read every file back once (the warm-up, checked).
Env set_up(const Workload& wl, const RigConfig& config, std::uint64_t seed,
           unsigned clients, bool pinned, unsigned host_cpus) {
  Env env;
  // Server threads inherit the CPUs of the thread that starts them.
  if (pinned) pin_to(clients, host_cpus - clients);
  env.rig = Rig::boot(config);
  if (pinned) pin_to(0, clients);
  env.shared.pinned = pinned;
  env.shared.workload = &wl;
  env.shared.seed = seed;
  env.shared.traced = config.traced;

  env.workers.resize(clients);
  for (unsigned i = 0; i < clients; ++i) {
    Worker& w = env.workers[i];
    w.index = i;
    w.rng = Rng(seed * 1000003 + i);
    w.udp = env.rig->connect(0);
    rpc::Transport* transport = w.udp.get();
    if (config.traced) {
      w.timed = std::make_unique<TimedTransport>(transport, SpanKind::kCall);
      transport = w.timed.get();
    }
    w.client = std::make_unique<BulletClient>(transport, env.rig->server(0).super_capability());
    if (wl.pair) w.client->enable_message_ids(static_cast<std::uint64_t>(i + 1) << 48);
    w.next_trace = static_cast<std::uint64_t>(i + 1) << 40;
  }

  const std::vector<std::size_t> sizes = file_sizes(wl, seed);
  std::vector<FileRec> files(sizes.size());
  std::atomic<std::uint64_t> errors{0};
  on_each(env.workers, [&](Worker& w) {
    for (std::size_t i = w.index; i < sizes.size(); i += clients) {
      auto content = make_content((seed << 24) ^ i, sizes[i]);
      auto cap = w.client->create(*content, kPfactor);
      if (!cap.ok()) {
        ++errors;
        continue;
      }
      files[i] = {cap.value(), std::move(content)};
    }
  });
  if (errors.load() != 0) throw std::runtime_error("preload create failed");
  on_each(env.workers, [&](Worker& w) {
    for (std::size_t i = w.index; i < files.size(); i += clients) {
      auto data = w.client->read(files[i].cap);
      if (!data.ok() || data.value() != *files[i].content) ++errors;
    }
  });
  if (errors.load() != 0) throw std::runtime_error("warm-up read mismatch");

  if (wl.shape == Shape::kChurn) {
    for (std::size_t i = 0; i < files.size(); ++i) {
      env.workers[i % clients].live.push_back(std::move(files[i]));
    }
  } else {
    env.shared.files = std::move(files);
  }
  if (wl.shape == Shape::kHotRead) {
    // Popularity rank -> file, shuffled so hot files are spread on disk.
    env.shared.zipf = std::make_unique<Zipf>(kHotFiles, kHotZipf);
    env.shared.zipf_order.resize(kHotFiles);
    for (std::size_t i = 0; i < kHotFiles; ++i) env.shared.zipf_order[i] = i;
    Rng rng(seed ^ 0x21FFull);
    for (std::size_t i = kHotFiles - 1; i > 0; --i) {
      std::swap(env.shared.zipf_order[i], env.shared.zipf_order[rng.next_below(i + 1)]);
    }
  }
  return env;
}

// --- load phases ---------------------------------------------------------------

struct ClosedResult {
  PhaseTally tally;
  double seconds = 0;
  std::vector<double> window_ops_per_s;  // successful ops
  std::vector<double> window_mb_per_s;   // READ payload, 10^6 bytes

  void merge(const ClosedResult& other) {
    tally.merge(other.tally);
    seconds += other.seconds;
    window_ops_per_s.insert(window_ops_per_s.end(), other.window_ops_per_s.begin(),
                            other.window_ops_per_s.end());
    window_mb_per_s.insert(window_mb_per_s.end(), other.window_mb_per_s.begin(),
                           other.window_mb_per_s.end());
  }
};

ClosedResult closed_loop(Env& env, double seconds, int windows = kWindows) {
  struct alignas(64) Progress {
    std::atomic<std::uint64_t> ops{0};
    std::atomic<std::uint64_t> bytes{0};
  };
  const std::size_t n = env.workers.size();
  std::unique_ptr<Progress[]> progress(new Progress[n]);
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<PhaseTally> tallies(n);
  std::vector<std::thread> threads;
  for (Worker& w : env.workers) {
    threads.emplace_back([&, wp = &w] {
      if (env.shared.pinned) pin_to(wp->index, 1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      PhaseTally& t = tallies[wp->index];
      Progress& mine = progress[wp->index];
      while (!stop.load(std::memory_order_relaxed)) {
        Planned p = plan(env.shared, *wp);
        const Outcome o = execute(env.shared, *wp, p);
        tally(t, p.kind, o);
        if (o.ok) {
          mine.ops.fetch_add(1, std::memory_order_relaxed);
          if (p.kind == kRead) mine.bytes.fetch_add(o.bytes, std::memory_order_relaxed);
        }
      }
    });
  }
  ClosedResult r;
  auto totals = [&] {
    std::pair<std::uint64_t, std::uint64_t> sum{0, 0};
    for (std::size_t i = 0; i < n; ++i) {
      sum.first += progress[i].ops.load(std::memory_order_relaxed);
      sum.second += progress[i].bytes.load(std::memory_order_relaxed);
    }
    return sum;
  };
  const Clock::time_point start = Clock::now();
  go.store(true, std::memory_order_release);
  Clock::time_point mark = start;
  auto last = totals();
  for (int w = 1; w <= windows; ++w) {
    std::this_thread::sleep_until(start + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double>(seconds * w / windows)));
    const auto now = totals();
    const Clock::time_point at = Clock::now();
    const double dt = std::chrono::duration<double>(at - mark).count();
    r.window_ops_per_s.push_back(static_cast<double>(now.first - last.first) / dt);
    r.window_mb_per_s.push_back(static_cast<double>(now.second - last.second) / 1e6 / dt);
    last = now;
    mark = at;
  }
  stop.store(true);
  r.seconds = std::chrono::duration<double>(mark - start).count();
  for (std::thread& t : threads) t.join();
  for (const PhaseTally& t : tallies) r.tally.merge(t);
  return r;
}

// One client with one request outstanding, the others idle: the delay of a
// READ (and of the churn shape's creates and deletes) with no queueing
// behind other requests, as the paper measures it. Each op's latency lands
// in the one of `windows` windows, numbered from `first_window`, that it
// finished in.
void unloaded_loop(Env& env, double seconds, int first_window, int windows, PhaseTally& t) {
  Worker& w = env.workers.front();
  const std::uint64_t start = now_ns();
  const auto length_ns = static_cast<std::uint64_t>(seconds * 1e9);
  while (now_ns() - start < length_ns) {
    Planned p = plan(env.shared, w);
    const Outcome o = execute(env.shared, w, p);
    tally(t, p.kind, o);
    if (o.ok) {
      t.latency_ns[p.kind].push_back(o.end_ns - o.start_ns);
      t.latency_window[p.kind].push_back(static_cast<std::uint8_t>(
          first_window + std::min<std::uint64_t>(windows - 1, (o.end_ns - start) * windows / length_ns)));
    }
  }
}

struct OpenResult {
  PhaseTally tally;
  std::uint64_t scheduled = 0;
  double seconds = 0;          // schedule length, lead-in included
  double issue_seconds = 0;    // first due -> last issue
};

// Poisson arrivals at `rate`, precomputed from the seed; each arrival goes to
// whichever client thread is free, and is timed from its due time.
OpenResult open_loop(Env& env, double rate, double seconds, std::uint64_t seed) {
  std::vector<double> due_s;
  Rng rng(seed ^ 0xA221BA1ull);
  const double lead_in = seconds * kLeadInShare;
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.next_double()) / rate;
    if (t >= seconds + lead_in) break;
    due_s.push_back(t);
  }
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> last_issue_ns{0};
  std::vector<PhaseTally> tallies(env.workers.size());
  const std::uint64_t start_ns = now_ns() + 5'000'000;
  on_each(env.workers, [&](Worker& w) {
    PhaseTally& t = tallies[w.index];
    t.lag_ns.reserve(due_s.size() / env.workers.size() + 16);
    for (int k = 0; k < kOpKinds; ++k) {
      t.latency_ns[k].reserve(due_s.size() / env.workers.size() + 16);
      t.latency_window[k].reserve(due_s.size() / env.workers.size() + 16);
    }
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= due_s.size()) break;
      Planned p = plan(env.shared, w);
      const std::uint64_t due_ns = start_ns + static_cast<std::uint64_t>(due_s[i] * 1e9);
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::duration_cast<Clock::duration>(std::chrono::nanoseconds(due_ns))));
      const std::uint64_t issue_ns = now_ns();
      const Outcome o = execute(env.shared, w, p);
      tally(t, p.kind, o);
      if (due_s[i] < lead_in) continue;
      t.lag_ns.push_back(issue_ns > due_ns ? issue_ns - due_ns : 0);
      if (o.ok) {
        t.latency_ns[p.kind].push_back(o.end_ns > due_ns ? o.end_ns - due_ns : 0);
        t.latency_window[p.kind].push_back(static_cast<std::uint8_t>(
            std::min<double>(kWindows - 1, (due_s[i] - lead_in) * kWindows / seconds)));
      }
      std::uint64_t prev = last_issue_ns.load(std::memory_order_relaxed);
      while (prev < issue_ns &&
             !last_issue_ns.compare_exchange_weak(prev, issue_ns, std::memory_order_relaxed)) {
      }
    }
  });
  OpenResult r;
  r.scheduled = due_s.size();
  r.seconds = seconds + lead_in;
  if (!due_s.empty()) {
    r.issue_seconds = static_cast<double>(last_issue_ns.load() - start_ns) / 1e9 - due_s.front();
  }
  for (const PhaseTally& t : tallies) r.tally.merge(t);
  return r;
}

// After the load: every live file reads back byte-identical from every
// server, and every acked delete is gone everywhere.
struct OracleResult {
  std::uint64_t checked = 0;
  std::uint64_t lost_creates = 0;   // live file unreadable or wrong bytes
  std::uint64_t readable_deletes = 0;
};

OracleResult final_check(Env& env) {
  std::vector<OracleResult> per(env.workers.size());
  on_each(env.workers, [&](Worker& w) {
    OracleResult& r = per[w.index];
    for (std::size_t s = 0; s < env.rig->servers(); ++s) {
      auto udp = env.rig->connect(s);
      BulletClient client(udp.get(), env.rig->server(0).super_capability());
      const std::vector<FileRec>& live =
          env.shared.workload->shape == Shape::kChurn ? w.live : env.shared.files;
      const std::size_t stride = env.shared.workload->shape == Shape::kChurn ? 1 : env.workers.size();
      for (std::size_t i = env.shared.workload->shape == Shape::kChurn ? 0 : w.index;
           i < live.size(); i += stride) {
        ++r.checked;
        auto data = client.read(live[i].cap);
        if (!data.ok() || data.value() != *live[i].content) ++r.lost_creates;
      }
      for (const Capability& cap : w.deleted) {
        ++r.checked;
        auto data = client.read(cap);
        // A reused inode slot answers bad_capability (the random differs).
        if (data.ok() || (data.code() != ErrorCode::no_such_object &&
                          data.code() != ErrorCode::bad_capability)) {
          ++r.readable_deletes;
        }
      }
    }
  });
  OracleResult total;
  for (const OracleResult& r : per) {
    total.checked += r.checked;
    total.lost_creates += r.lost_creates;
    total.readable_deletes += r.readable_deletes;
  }
  return total;
}

// --- per-layer analysis (traced run) -------------------------------------------

struct ServerSnapshot {
  std::vector<Counters> counters;
  std::vector<AsyncDiskQueue::Stats> diskq;
  std::vector<std::uint64_t> duplicates;
  std::uint64_t retransmits = 0;
  std::uint64_t pushbacks = 0;
};

ServerSnapshot snapshot(Env& env) {
  ServerSnapshot s;
  for (std::size_t i = 0; i < env.rig->servers(); ++i) {
    s.counters.push_back(env.rig->counters(i));
    s.diskq.push_back(env.rig->server(i).io_queue().stats());
    s.duplicates.push_back(env.rig->duplicates_suppressed(i));
  }
  for (const Worker& w : env.workers) {
    s.retransmits += w.udp->retransmissions();
    s.pushbacks += w.udp->pushbacks();
  }
  return s;
}

// The STATS2 names the per-layer metrics read; a name the server no longer
// exports reads as 0 and is listed in the detail output.
const char* const kCounterNames[] = {
    "bullet_reads_total", "bullet_creates_total", "bullet_deletes_total",
    "bullet_cache_hits_total", "bullet_cache_misses_total",
    "bullet_cache_evictions_total", "bullet_evict_scans_total",
    "bullet_pinned_evict_defers_total", "bullet_rx_batches_total",
    "bullet_worker_wakeups_total", "bullet_rx_queue_depth_max",
    "bullet_shed_pushback_total", "bullet_shed_dropped_total",
    "bullet_deadline_expired_total", "bullet_lock_wait_ns_total",
    "bullet_bytes_copied_total", "bullet_scratch_allocs_total",
    "bullet_inflight_sheds_total", "bullet_disk_holes",
    "bullet_disk_largest_hole_bytes", "bullet_disk_free_bytes",
    "bullet_compact_steps_total", "bullet_repl_pushes_total",
    "bullet_repl_push_failures_total",
};

std::uint64_t counter(const Counters& c, const char* name) {
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

// Sum over servers of a counter's growth across the window.
double delta(const ServerSnapshot& a, const ServerSnapshot& b, const char* name) {
  double sum = 0;
  for (std::size_t i = 0; i < a.counters.size(); ++i) {
    sum += static_cast<double>(counter(b.counters[i], name)) -
           static_cast<double>(counter(a.counters[i], name));
  }
  return sum;
}

struct SpanStats {
  std::vector<std::uint64_t> dur[8];  // by SpanKind
  std::vector<std::uint64_t> service_by_op[kOpKinds];
  std::vector<std::uint64_t> client_self;
  std::vector<std::uint64_t> net;
  std::uint64_t calls = 0;
  std::uint64_t fragments = 0;
  std::uint64_t dev_busy_ns = 0;
  std::uint64_t dev_written = 0;
};

SpanStats analyse(const std::vector<Span>& spans) {
  SpanStats s;
  struct Joined {
    std::uint64_t op = 0, calls = 0, service = 0;
    int n_calls = 0, n_service = 0;
    bool has_op = false;
  };
  std::vector<std::pair<std::uint64_t, const Span*>> by_trace;
  for (const Span& span : spans) {
    s.dur[static_cast<int>(span.kind)].push_back(span.dur_ns);
    switch (span.kind) {
      case SpanKind::kCall:
        ++s.calls;
        s.fragments += span.aux;
        break;
      case SpanKind::kService:
        if (span.aux == wire::kRead) s.service_by_op[kRead].push_back(span.dur_ns);
        if (span.aux == wire::kCreate) s.service_by_op[kCreate].push_back(span.dur_ns);
        if (span.aux == wire::kDelete) s.service_by_op[kDelete].push_back(span.dur_ns);
        break;
      case SpanKind::kDevRead:
      case SpanKind::kDevFlush:
        s.dev_busy_ns += span.dur_ns;
        break;
      case SpanKind::kDevWrite:
        s.dev_busy_ns += span.dur_ns;
        s.dev_written += span.bytes;
        break;
      default:
        break;
    }
    if (span.trace_id != 0) by_trace.emplace_back(span.trace_id, &span);
  }
  std::sort(by_trace.begin(), by_trace.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < by_trace.size();) {
    Joined j;
    std::size_t k = i;
    for (; k < by_trace.size() && by_trace[k].first == by_trace[i].first; ++k) {
      const Span& span = *by_trace[k].second;
      if (span.kind == SpanKind::kOp) {
        j.op = span.dur_ns;
        j.has_op = true;
      } else if (span.kind == SpanKind::kCall) {
        j.calls += span.dur_ns;
        ++j.n_calls;
      } else if (span.kind == SpanKind::kService) {
        j.service += span.dur_ns;
        ++j.n_service;
      }
    }
    i = k;
    if (j.has_op && j.n_calls > 0) {
      s.client_self.push_back(j.op > j.calls ? j.op - j.calls : 0);
    }
    if (j.n_calls == 1 && j.n_service == 1) {
      s.net.push_back(j.calls > j.service ? j.calls - j.service : 0);
    }
  }
  return s;
}

// Keep whole request chains for a strided sample of trace ids, plus the same
// share of the id-less (disk, peer-push) spans, and write them as CSV.
void write_spans(const std::string& path, const std::vector<Span>& spans) {
  constexpr std::size_t kKeep = 100000;
  const std::uint64_t stride = std::max<std::uint64_t>(1, (spans.size() + kKeep - 1) / kKeep);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return;
  out << "span,trace_id,start_ns,dur_ns,bytes,aux\n";
  std::uint64_t untraced = 0;
  for (const Span& span : spans) {
    const bool keep = span.trace_id != 0 ? span.trace_id % stride == 0 : untraced++ % stride == 0;
    if (!keep) continue;
    out << span_name(span.kind) << ',' << span.trace_id << ',' << span.start_ns << ','
        << span.dur_ns << ',' << span.bytes << ',' << span.aux << '\n';
  }
}

// --- the run -------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double rate = 0;
  std::string work_dir;
  std::string spans_path;
};

double us(double ns) { return ns / 1e3; }

int run(const Args& args) {
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wl = &w;
  }
  if (wl == nullptr) throw std::runtime_error("unknown workload " + args.workload);
  if (!(args.rate > 0)) throw std::runtime_error("--rate must be positive");

  // Sleep-until wakeups within a few microseconds of the due time, so the
  // open loop's lateness is the system's and not the timer's slack.
  (void)prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  const unsigned host_cpus = std::max(1u, std::thread::hardware_concurrency());
  const unsigned clients = std::min(kMaxClients, host_cpus);
  // Fixed placement: with four CPUs or more, the clients and the servers
  // get CPUs of their own, so runs differ less in where threads wake.
  const bool pinned = host_cpus >= 2 * clients;
  RigConfig config;
  config.pair = wl->pair;
  config.images_per_server = wl->images_per_server;
  config.image_mb = wl->image_mb;
  config.inode_slots = wl->inode_slots;
  config.cache_mb = wl->cache_mb;
  config.traced = args.trace;
  config.image_dir = args.work_dir;
  // The servers of a workload together run at most `host_cpus` (and at most
  // four) worker + I/O threads.
  const unsigned per_server = std::max(2u, std::min(4u, host_cpus) / (wl->pair ? 2u : 1u));
  config.workers = std::max(1u, per_server / 2);
  config.io_threads = std::max(1u, per_server - config.workers);

  std::vector<std::uint64_t> setup_ns;
  Env env;
  for (int i = 0; i < kSetups; ++i) {
    env = Env{};  // tear the previous stack down before timing the next
    const std::uint64_t t0 = now_ns();
    env = set_up(*wl, config, args.seed, clients, pinned, host_cpus);
    setup_ns.push_back(now_ns() - t0);
  }
  const double setup_s = quantile(setup_ns, 0.5) / 1e9;

  const double S = args.seconds;
  JsonObject metrics;
  JsonObject detail;
  PhaseTally measured;
  ClosedResult closed;
  ClosedResult closed_plain;
  OpenResult open;
  PhaseTally unloaded;
  ServerSnapshot before, after;
  std::vector<Span> spans;
  std::uint64_t window_ns = 0;

  if (!args.trace) {
    constexpr int kPerRound = kWindows / kRounds;
    for (int r = 0; r < kRounds; ++r) {
      closed.merge(closed_loop(env, S / 2 / kRounds, kPerRound));
      unloaded_loop(env, S / 2 / kRounds, r * kPerRound, kPerRound, unloaded);
    }
  } else {
    closed_plain = closed_loop(env, S / 4);
    env.rig->quiesce();
    before = snapshot(env);
    const std::uint64_t t0 = now_ns();
    set_recording(true);
    closed = closed_loop(env, S / 4);
    open = open_loop(env, args.rate, S / 2, args.seed);
    set_recording(false);
    env.rig->quiesce();
    window_ns = now_ns() - t0;
    after = snapshot(env);
    spans = take_spans();
  }

  const OracleResult oracle = final_check(env);

  // --- end-to-end figures (both runs compute them; the plain run reports) --
  const double ops_per_s = median(closed.window_ops_per_s);
  const double read_mb_per_s = median(closed.window_mb_per_s);
  // Latencies come from the run's latency phase: the unloaded loop in the
  // plain run, the open loop (from due time) in the traced run.
  PhaseTally& ot = args.trace ? open.tally : unloaded;
  const std::size_t read_samples = ot.latency_ns[kRead].size();
  const std::size_t create_samples = ot.latency_ns[kCreate].size();
  const std::size_t delete_samples = ot.latency_ns[kDelete].size();
  auto lat_us = [&](OpKind k, double q) {
    return us(windowed_quantile(ot.latency_ns[k], ot.latency_window[k], q));
  };
  const double read_p50 = lat_us(kRead, 0.50);
  const double read_p90 = lat_us(kRead, 0.90);
  const double read_p99 = lat_us(kRead, 0.99);
  const double create_p50 = lat_us(kCreate, 0.50);
  const double create_p99 = lat_us(kCreate, 0.99);
  const double delete_p50 = lat_us(kDelete, 0.50);
  const double read_p99_whole_phase = us(quantile(ot.latency_ns[kRead], 0.99));
  const double lag_p50 = us(quantile(ot.lag_ns, 0.50));
  const double lag_p99 = us(quantile(ot.lag_ns, 0.99));
  const bool open_loop_valid = lag_p99 <= wl->max_gen_lag_p99_us &&
                               open.issue_seconds <= open.seconds * 1.05;

  const double traced_ops = static_cast<double>(closed.tally.ops() + open.tally.ops());
  const double traced_created_bytes =
      static_cast<double>(closed.tally.created_bytes + open.tally.created_bytes);
  const double plain_ops_per_s = median(closed_plain.window_ops_per_s);
  measured.merge(closed_plain.tally);
  measured.merge(closed.tally);
  measured.merge(open.tally);
  measured.merge(unloaded);
  const std::uint64_t attempted = measured.ops();
  const std::uint64_t failed = measured.failures() + oracle.lost_creates + oracle.readable_deletes;
  const bool correct = measured.wrong_bytes == 0 && oracle.lost_creates == 0 &&
                       oracle.readable_deletes == 0 && attempted > 0;

  auto put = [&](const std::string& name, double v, const char* unit) {
    metrics.raw(name, "{\"value\": " + json_number(v) + ", \"unit\": " + json_string(unit) + "}");
  };
  if (!args.trace) {
    // The gated tail is p90: on a shared host, hypervisor stalls of a few
    // milliseconds reach p99 in most windows (p99 is in the detail output).
    put("read_p50_us", read_p50, "us");
    put("read_p90_us", read_p90, "us");
    put("ops_per_s", ops_per_s, "ops/s");
    put("read_mb_per_s", read_mb_per_s, "MB/s");
    put("setup_s", setup_s, "s");
  } else {
    const SpanStats st = analyse(spans);
    if (!args.spans_path.empty()) write_spans(args.spans_path, spans);
    // Denominator for every per-op ratio: client ops issued in the window.
    const double ops = traced_ops;
    auto pct_us = [&](std::vector<std::uint64_t> v, double q) { return us(quantile(v, q)); };
    const auto& d = st.dur;
    const double calls = static_cast<double>(st.calls);
    put("client.self_us_p50", pct_us(st.client_self, 0.5), "us");
    put("rpc.call_us_p50", pct_us(d[static_cast<int>(SpanKind::kCall)], 0.5), "us");
    put("rpc.call_us_p99", pct_us(d[static_cast<int>(SpanKind::kCall)], 0.99), "us");
    put("rpc.net_us_p50", pct_us(st.net, 0.5), "us");
    put("rpc.calls_per_op", ratio(calls, ops), "1/op");
    put("rpc.fragments_per_op", ratio(static_cast<double>(st.fragments), ops), "1/op");
    put("rpc.retransmits_per_1k_calls",
        ratio(1000.0 * static_cast<double>(after.retransmits - before.retransmits), calls), "1/1000");
    put("rpc.pushbacks_per_1k_calls",
        ratio(1000.0 * static_cast<double>(after.pushbacks - before.pushbacks), calls), "1/1000");
    put("udp.rx_batches_per_op", ratio(delta(before, after, "bullet_rx_batches_total"), ops), "1/op");
    put("udp.worker_wakeups_per_op", ratio(delta(before, after, "bullet_worker_wakeups_total"), ops), "1/op");
    double rx_depth = 0;
    double dq_depth = 0;
    double inline_completions = 0;
    double diskq_ops = 0;
    double dups = 0;
    for (std::size_t i = 0; i < after.counters.size(); ++i) {
      rx_depth = std::max(rx_depth, static_cast<double>(counter(after.counters[i], "bullet_rx_queue_depth_max")));
      dq_depth = std::max(dq_depth, static_cast<double>(after.diskq[i].queue_depth_max));
      inline_completions += static_cast<double>(after.diskq[i].inline_completions);
      diskq_ops += static_cast<double>(after.diskq[i].completed - before.diskq[i].completed);
      dups += static_cast<double>(after.duplicates[i] - before.duplicates[i]);
    }
    put("udp.rx_queue_depth_max", rx_depth, "count");
    put("udp.sheds",
        delta(before, after, "bullet_shed_pushback_total") + delta(before, after, "bullet_shed_dropped_total") +
            delta(before, after, "bullet_deadline_expired_total"),
        "count");
    put("udp.duplicates_suppressed", dups, "count");
    put("service.read_us_p50", pct_us(st.service_by_op[kRead], 0.5), "us");
    put("service.read_us_p99", pct_us(st.service_by_op[kRead], 0.99), "us");
    put("service.create_us_p50", pct_us(st.service_by_op[kCreate], 0.5), "us");
    put("service.create_us_p99", pct_us(st.service_by_op[kCreate], 0.99), "us");
    put("service.delete_us_p50", pct_us(st.service_by_op[kDelete], 0.5), "us");
    put("lock.wait_us_per_op", ratio(delta(before, after, "bullet_lock_wait_ns_total") / 1e3, ops), "us/op");
    put("copy.bytes_per_op", ratio(delta(before, after, "bullet_bytes_copied_total"), ops), "B/op");
    put("copy.allocs_per_op", ratio(delta(before, after, "bullet_scratch_allocs_total"), ops), "1/op");
    put("server.inflight_sheds", delta(before, after, "bullet_inflight_sheds_total"), "count");
    const double hits = delta(before, after, "bullet_cache_hits_total");
    const double misses = delta(before, after, "bullet_cache_misses_total");
    const double evictions = delta(before, after, "bullet_cache_evictions_total");
    put("cache.hit_ratio", ratio(hits, hits + misses), "ratio");
    put("cache.evictions_per_read", ratio(evictions, delta(before, after, "bullet_reads_total")), "1/read");
    put("cache.evict_scans_per_eviction", ratio(delta(before, after, "bullet_evict_scans_total"), evictions),
        "1/eviction");
    put("cache.pinned_evict_defers", delta(before, after, "bullet_pinned_evict_defers_total"), "count");
    const Counters& primary = after.counters[0];
    put("alloc.holes", static_cast<double>(counter(primary, "bullet_disk_holes")), "count");
    put("alloc.largest_hole_frac",
        ratio(static_cast<double>(counter(primary, "bullet_disk_largest_hole_bytes")),
              static_cast<double>(counter(primary, "bullet_disk_free_bytes"))),
        "ratio");
    put("alloc.compact_steps", delta(before, after, "bullet_compact_steps_total"), "count");
    put("repl.push_us_p50", pct_us(d[static_cast<int>(SpanKind::kPush)], 0.5), "us");
    put("repl.push_us_p99", pct_us(d[static_cast<int>(SpanKind::kPush)], 0.99), "us");
    const double primary_mutations =
        static_cast<double>(counter(after.counters[0], "bullet_creates_total") -
                            counter(before.counters[0], "bullet_creates_total") +
                            counter(after.counters[0], "bullet_deletes_total") -
                            counter(before.counters[0], "bullet_deletes_total"));
    put("repl.pushes_per_mutation",
        ratio(static_cast<double>(counter(after.counters[0], "bullet_repl_pushes_total") -
                                  counter(before.counters[0], "bullet_repl_pushes_total")),
              primary_mutations),
        "1/mutation");
    put("repl.push_failures", delta(before, after, "bullet_repl_push_failures_total"), "count");
    put("diskq.ops_per_op", ratio(diskq_ops, ops), "1/op");
    put("diskq.depth_max", dq_depth, "count");
    put("diskq.inline_completions", inline_completions, "count");
    const double dev_reads = static_cast<double>(d[static_cast<int>(SpanKind::kDevRead)].size());
    const double dev_writes = static_cast<double>(d[static_cast<int>(SpanKind::kDevWrite)].size());
    put("dev.reads_per_op", ratio(dev_reads, ops), "1/op");
    put("dev.writes_per_op", ratio(dev_writes, ops), "1/op");
    put("dev.read_us_p50", pct_us(d[static_cast<int>(SpanKind::kDevRead)], 0.5), "us");
    put("dev.write_us_p50", pct_us(d[static_cast<int>(SpanKind::kDevWrite)], 0.5), "us");
    put("dev.busy_frac",
        ratio(static_cast<double>(st.dev_busy_ns), static_cast<double>(window_ns) * env.rig->devices()),
        "ratio");
    put("dev.bytes_written_per_user_byte",
        ratio(static_cast<double>(st.dev_written),
              traced_created_bytes),
        "ratio");
    put("dev.flushes", static_cast<double>(d[static_cast<int>(SpanKind::kDevFlush)].size()), "count");
    put("gen_lag_p99_us", lag_p99, "us");
    put("trace.overhead_frac", 1.0 - ratio(ops_per_s, plain_ops_per_s), "ratio");

    std::string missing;
    for (const char* name : kCounterNames) {
      if (after.counters[0].count(name) == 0) missing += std::string(missing.empty() ? "" : ",") + name;
    }
    detail.str("missing_counters", missing);
    detail.num("traced_window_s", static_cast<double>(window_ns) / 1e9);
    detail.num("traced_ops", ops);
    detail.num("spans", static_cast<double>(spans.size()));
    detail.num("cache_lookups", hits + misses);
    detail.num("plain_closed_ops_per_s", plain_ops_per_s);
  }

  JsonObject cfg;
  cfg.str("workload", wl->name);
  cfg.num("seed", static_cast<double>(args.seed));
  cfg.num("seconds", S);
  cfg.num("trace", args.trace ? 1 : 0);
  cfg.num("host_cpus", host_cpus);
  cfg.num("clients", clients);
  cfg.num("open_loop_rate_per_s", args.rate);
  cfg.num("servers", wl->pair ? 2 : 1);
  cfg.num("images_per_server", wl->images_per_server);
  cfg.num("image_mb", static_cast<double>(wl->image_mb));
  cfg.num("inode_slots", wl->inode_slots);
  cfg.num("cache_mb", static_cast<double>(wl->cache_mb));
  cfg.num("udp_workers_per_server", config.workers);
  cfg.num("io_threads_per_server", config.io_threads);
  cfg.num("pfactor", kPfactor);
  cfg.str("obs_sampling", "daemon default (1 in 8)");
  cfg.str("flush_policy",
          "daemon default: no fdatasync per create; FileDisk::flush (fdatasync) only on sync(); "
          "device reads are served by the OS page cache");
  cfg.num("setups", kSetups);
  cfg.num("max_gen_lag_p99_us", wl->max_gen_lag_p99_us);
  switch (wl->shape) {
    case Shape::kHotRead:
      cfg.str("files", std::to_string(kHotFiles) + " x " + std::to_string(kHotFileBytes) + " B, zipf " +
                           json_number(kHotZipf) + ", 100% READ");
      break;
    case Shape::kColdLargeRead:
      cfg.str("files", std::to_string(env.shared.files.size()) +
                           " files, equal counts of 64 KiB, 256 KiB and 1 MiB, >= 64 MiB total, "
                           "uniform 100% READ");
      break;
    case Shape::kChurn:
      cfg.str("files", std::to_string(kChurnFiles) +
                           " live files, 1 B - 64 KiB log-uniform; 50% READ, 25% CREATE, 25% DELETE; "
                           "message ids on");
      break;
  }
  detail.raw("config", cfg.text());

  std::string setups = "[";
  for (std::size_t i = 0; i < setup_ns.size(); ++i) {
    setups += (i ? ", " : "") + json_number(static_cast<double>(setup_ns[i]) / 1e9);
  }
  detail.raw("setup_runs_s", setups + "]");
  detail.num("closed_seconds", closed.seconds);
  detail.num("closed_ops_per_s", ops_per_s);
  detail.num("closed_read_mb_per_s", read_mb_per_s);
  detail.num("closed_ops_per_s_whole_phase",
             ratio(static_cast<double>(closed.tally.ops() - closed.tally.failures()), closed.seconds));
  detail.num("windows_per_phase", kWindows);
  detail.str("latency_phase", args.trace ? "open loop, timed from due time"
                                         : "unloaded: one client, one request outstanding");
  auto list = [](const std::vector<double>& values) {
    std::string out = "[";
    for (const double v : values) out += (out.size() > 1 ? ", " : "") + json_number(v);
    return out + "]";
  };
  detail.raw("closed_window_ops_per_s", list(closed.window_ops_per_s));
  {
    std::vector<std::vector<std::uint64_t>> by_window(kWindows);
    for (std::size_t i = 0; i < ot.latency_ns[kRead].size(); ++i) {
      by_window[ot.latency_window[kRead][i]].push_back(ot.latency_ns[kRead][i]);
    }
    std::vector<double> p50s, p99s;
    for (const auto& w : by_window) {
      p50s.push_back(us(quantile(w, 0.5)));
      p99s.push_back(us(quantile(w, 0.99)));
    }
    detail.raw("window_read_p50_us", list(p50s));
    detail.raw("window_read_p99_us", list(p99s));
  }
  detail.num("read_samples", static_cast<double>(read_samples));
  detail.num("read_p50_us", read_p50);
  detail.num("read_p90_us", read_p90);
  detail.num("read_p99_us", read_p99);
  detail.num("read_p99_us_whole_phase", read_p99_whole_phase);
  detail.num("create_samples", static_cast<double>(create_samples));
  detail.num("create_p50_us", create_p50);
  detail.num("create_p99_us", create_p99);
  detail.num("delete_samples", static_cast<double>(delete_samples));
  detail.num("delete_p50_us", delete_p50);
  if (args.trace) {
    detail.num("open_lead_in_s", open.seconds - open.seconds / (1 + kLeadInShare));
    detail.num("open_scheduled", static_cast<double>(open.scheduled));
    detail.num("open_issue_seconds", open.issue_seconds);
    detail.num("gen_lag_p50_us", lag_p50);
    detail.num("gen_lag_p99_us", lag_p99);
    detail.num("open_loop_valid", open_loop_valid ? 1 : 0);
  }
  detail.num("failed_frac", ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  detail.num("wrong_bytes", static_cast<double>(measured.wrong_bytes));
  std::uint64_t retransmits = 0;
  for (const Worker& w : env.workers) retransmits += w.udp->retransmissions();
  detail.num("client_retransmits", static_cast<double>(retransmits));
  detail.num("oracle_checked", static_cast<double>(oracle.checked));
  detail.num("oracle_lost_creates", static_cast<double>(oracle.lost_creates));
  detail.num("oracle_readable_deletes", static_cast<double>(oracle.readable_deletes));
  for (int k = 0; k < kOpKinds; ++k) {
    detail.num(std::string("attempted_") + kOpNames[k], static_cast<double>(measured.attempted[k]));
    detail.num(std::string("failed_") + kOpNames[k], static_cast<double>(measured.failed[k]));
  }

  JsonObject result;
  result.raw("correct", correct ? "true" : "false");
  result.num("attempted", static_cast<double>(attempted));
  result.num("failed", static_cast<double>(failed));
  result.raw("metrics", metrics.text());
  result.raw("detail", detail.text());
  std::printf("%s\n", result.text().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
      return 2;
    }
    ++i;
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--rate") {
      args.rate = std::strtod(value, nullptr);
    } else if (arg == "--work-dir") {
      args.work_dir = value;
    } else if (arg == "--spans") {
      args.spans_path = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (args.workload.empty() || args.work_dir.empty() || !(args.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--rate OPS_PER_S --work-dir DIR [--spans FILE]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
