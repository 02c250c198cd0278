// Shared fixtures for the reproduction benchmarks.
//
// Both deployments run on the simulated 1989 testbed (sim/testbed.h): a
// 16.7 MHz-class server, 10 Mbit/s Ethernet, 800 MB winchester disks.
// Delays are virtual time measured across the full client -> RPC -> server
// -> disk stack; data really moves through the real code paths.
#pragma once

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bullet/client.h"
#include "bullet/server.h"
#include "common/rng.h"
#include "disk/mem_disk.h"
#include "disk/mirrored_disk.h"
#include "disk/sim_disk.h"
#include "nfsbase/client.h"
#include "nfsbase/server.h"
#include "obs/metrics.h"
#include "rpc/transport.h"
#include "sim/testbed.h"

namespace bullet::bench {

// The paper's six file sizes: "1 byte ... 1 Mbyte".
struct SizeRow {
  const char* label;
  std::uint64_t bytes;
};
inline constexpr SizeRow kFileSizes[] = {
    {"1 byte", 1},          {"16 bytes", 16},      {"512 bytes", 512},
    {"4 Kbytes", 4 << 10},  {"64 Kbytes", 64 << 10},
    {"1 Mbyte", 1 << 20},
};

// The backing stores are far smaller than 800 MB to keep host memory sane;
// the *seek-distance scaling* still uses the full 800 MB geometry via
// DiskParams::total_blocks, so positioning costs match the real drive.
inline constexpr std::uint64_t kBulletDeviceBlocks = 1 << 15;  // 16 MB @ 512
inline constexpr std::uint64_t kNfsDeviceBlocks = 1 << 12;     // 32 MB @ 8 KB

// A Bullet deployment on two mirrored simulated disks.
class BulletRig {
 public:
  BulletRig()
      : raw0_(sim::Testbed1989::kSectorSize, kBulletDeviceBlocks),
        raw1_(sim::Testbed1989::kSectorSize, kBulletDeviceBlocks),
        sim0_(&raw0_, sim::Testbed1989::disk(), &clock_),
        sim1_(&raw1_, sim::Testbed1989::disk(), &clock_),
        transport_(sim::Testbed1989::net(), &clock_) {
    Status st = BulletServer::format(raw0_, 4096);
    if (!st.ok()) die(st.to_string());
    st = raw1_.restore(raw0_.snapshot());
    if (!st.ok()) die(st.to_string());
    auto mirror = MirroredDisk::create({&sim0_, &sim1_});
    if (!mirror.ok()) die(mirror.error().to_string());
    mirror_ = std::make_unique<MirroredDisk>(std::move(mirror).value());
    boot();
  }

  // (Re)boot the server; clears the RAM cache (cold server).
  void boot() {
    server_.reset();
    BulletConfig config;
    config.clock = &clock_;
    config.cache_bytes = sim::Testbed1989::kServerRamBytes / 2;  // 8 MB cache
    auto server = BulletServer::start(mirror_.get(), config);
    if (!server.ok()) die(server.error().to_string());
    server_ = std::move(server).value();
    transport_ = rpc::SimTransport(sim::Testbed1989::net(), &clock_);
    const Status st = transport_.register_service(
        server_.get(), sim::Testbed1989::bullet_costs());
    if (!st.ok()) die(st.to_string());
    client_ = std::make_unique<BulletClient>(&transport_,
                                             server_->super_capability());
  }

  sim::Clock& clock() { return clock_; }
  BulletClient& client() { return *client_; }
  BulletServer& server() { return *server_; }

 private:
  [[noreturn]] static void die(const std::string& message) {
    std::fprintf(stderr, "bench setup failed: %s\n", message.c_str());
    std::abort();
  }

  sim::Clock clock_;
  MemDisk raw0_, raw1_;
  SimDisk sim0_, sim1_;
  std::unique_ptr<MirroredDisk> mirror_;
  std::unique_ptr<BulletServer> server_;
  rpc::SimTransport transport_;
  std::unique_ptr<BulletClient> client_;
};

// The SUN NFS stand-in on one simulated disk.
class NfsRig {
 public:
  explicit NfsRig(nfsbase::NfsConfig config = nfsbase::NfsConfig(),
                  sim::ProtocolCosts costs = sim::Testbed1989::nfs_costs(),
                  sim::NetParams net = sim::Testbed1989::net())
      : raw_(sim::Testbed1989::kNfsBlockSize, kNfsDeviceBlocks),
        sim_(&raw_, sim::Testbed1989::nfs_disk(), &clock_),
        transport_(net, &clock_) {
    Status st = nfsbase::NfsServer::format(raw_, 512);
    if (!st.ok()) die(st.to_string());
    auto server = nfsbase::NfsServer::start(&sim_, config);
    if (!server.ok()) die(server.error().to_string());
    server_ = std::move(server).value();
    st = transport_.register_service(server_.get(), costs);
    if (!st.ok()) die(st.to_string());
    client_ = std::make_unique<nfsbase::NfsClient>(
        &transport_, server_->super_capability());
  }

  sim::Clock& clock() { return clock_; }
  nfsbase::NfsClient& client() { return *client_; }
  nfsbase::NfsServer& server() { return *server_; }

 private:
  [[noreturn]] static void die(const std::string& message) {
    std::fprintf(stderr, "bench setup failed: %s\n", message.c_str());
    std::abort();
  }

  sim::Clock clock_;
  MemDisk raw_;
  SimDisk sim_;
  std::unique_ptr<nfsbase::NfsServer> server_;
  rpc::SimTransport transport_;
  std::unique_ptr<nfsbase::NfsClient> client_;
};

// --- JSON emission ----------------------------------------------------------

// Minimal JSON document builder for benches that emit machine-readable
// results (compared against checked-in baselines such as
// bench/BENCH_read_hotpath.json). Covers exactly what the benches need:
// nested objects, arrays, and string / integer / double fields. Keys and
// string values must not require escaping.
class JsonWriter {
 public:
  JsonWriter() { out_.reserve(1024); }

  JsonWriter& begin_object(const char* key = nullptr) {
    open(key, '{');
    return *this;
  }
  JsonWriter& end_object() {
    close('}');
    return *this;
  }
  JsonWriter& begin_array(const char* key = nullptr) {
    open(key, '[');
    return *this;
  }
  JsonWriter& end_array() {
    close(']');
    return *this;
  }

  JsonWriter& field(const char* key, const char* value) {
    prefix(key);
    out_ += '"';
    out_ += value;
    out_ += '"';
    return *this;
  }
  JsonWriter& field(const char* key, double value) {
    prefix(key);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", value);
    out_ += buf;
    return *this;
  }
  JsonWriter& field(const char* key, std::uint64_t value) {
    prefix(key);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRIu64, value);
    out_ += buf;
    return *this;
  }
  JsonWriter& field(const char* key, int value) {
    return field(key, static_cast<std::uint64_t>(value));
  }

  const std::string& str() const noexcept { return out_; }

 private:
  void prefix(const char* key) {
    if (need_comma_) out_ += ',';
    if (key) {
      out_ += '"';
      out_ += key;
      out_ += "\":";
    }
    need_comma_ = true;
  }
  void open(const char* key, char bracket) {
    prefix(key);
    out_ += bracket;
    need_comma_ = false;
  }
  void close(char bracket) {
    out_ += bracket;
    need_comma_ = true;
  }

  std::string out_;
  bool need_comma_ = false;
};

// Every checked-in BENCH_*.json snapshot needs enough provenance to be
// interpreted later: which bench produced it, the commit that built the
// binary (stamped by the build; "unknown" outside a git checkout), and how
// parallel the host was. Call this first inside the top-level object.
#ifndef BULLET_GIT_SHA
#define BULLET_GIT_SHA "unknown"
#endif
inline JsonWriter& stamp_provenance(JsonWriter& json, const char* bench_name) {
  return json.field("bench", bench_name)
      .field("git_sha", BULLET_GIT_SHA)
      .field("host_cpus",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
}

// One value from a STATS2 exposition, by its metric name. Aborts on an
// absent name: a misspelt metric must never print as 0.
inline std::uint64_t metric(std::string_view text, std::string_view name) {
  const auto value = obs::metric_value(text, name);
  if (!value) {
    std::fprintf(stderr, "no metric named %.*s\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }
  return *value;
}
inline std::uint64_t metric(const BulletServer& server, std::string_view name) {
  return metric(server.metrics_text(), name);
}

// --- table printing ---------------------------------------------------------

inline void print_header(const char* title, const char* col1,
                         const char* col2) {
  std::printf("\n%s\n", title);
  std::printf("  %-12s %14s %14s\n", "File Size", col1, col2);
  std::printf("  %-12s %14s %14s\n", "---------", "------", "------");
}

inline void print_row(const char* label, double a, double b) {
  std::printf("  %-12s %14.1f %14.1f\n", label, a, b);
}

inline double bandwidth_kb_per_s(std::uint64_t bytes, sim::Duration delay) {
  if (delay <= 0) return 0.0;
  return static_cast<double>(bytes) / 1024.0 / sim::to_seconds(delay);
}

}  // namespace bullet::bench
