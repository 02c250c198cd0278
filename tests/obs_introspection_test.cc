// The live introspection plane end to end, as an operator uses it:
// bullet_server runs as a separate process, a workload goes over UDP via
// bullet_client, then `bullet_tool stats|top|trace` interrogates the
// daemon. Asserts the exposition text parses line by line, carries every
// registered metric, and the trace dump prints complete span chains.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tests/test_util.h"

#ifndef BULLET_TOOL_PATH
#error "BULLET_TOOL_PATH must be defined by the build"
#endif
#ifndef BULLET_SERVER_PATH
#error "BULLET_SERVER_PATH must be defined by the build"
#endif
#ifndef BULLET_CLIENT_PATH
#error "BULLET_CLIENT_PATH must be defined by the build"
#endif

namespace bullet {
namespace {

// Every metric bullet_server registers, by exposition name. The list is
// part of the tool contract (docs/PROTOCOL.md): dashboards key on these.
const char* const kCounterMetrics[] = {
    "bullet_creates_total",
    "bullet_reads_total",
    "bullet_deletes_total",
    "bullet_cache_hits_total",
    "bullet_cache_misses_total",
    "bullet_cache_evictions_total",
    "bullet_bytes_stored_total",
    "bullet_bytes_served_total",
    "bullet_files_live",
    "bullet_disk_free_bytes",
    "bullet_disk_largest_hole_bytes",
    "bullet_disk_holes",
    "bullet_cache_free_bytes",
    "bullet_healthy_replicas",
    "bullet_bytes_copied_total",
    "bullet_scratch_allocs_total",
    "bullet_evict_scans_total",
    "bullet_io_errors_total",
    "bullet_read_repairs_total",
    "bullet_failovers_total",
    "bullet_bg_write_failures_total",
    "bullet_rx_batches_total",
    "bullet_worker_wakeups_total",
    "bullet_lock_wait_ns_total",
    "bullet_pinned_evict_defers_total",
    "bullet_disk_inflight",
    "bullet_disk_queue_depth_max",
    "bullet_compact_steps_total",
    "bullet_compact_lock_hold_ns_max",
    "bullet_cache_capacity_bytes",
    "bullet_cache_used_bytes",
    "bullet_cache_entries",
    "bullet_cache_compactions_total",
    "bullet_cache_deferred_frees_total",
    "bullet_shed_pushback_total",
    "bullet_deadline_expired_total",
    "bullet_rx_queue_depth_max",
    "bullet_inflight_sheds_total",
    "bullet_repl_role",
    "bullet_repl_peer_healthy",
    "bullet_repl_pushes_total",
    "bullet_repl_push_failures_total",
    "bullet_repl_installs_total",
    "bullet_repl_resyncs_total",
    "bullet_repl_resync_files_total",
    "bullet_repl_dedup_hits_total",
};

const char* const kHistogramMetrics[] = {
    "bullet_read_latency_ns",   "bullet_create_latency_ns",
    "bullet_delete_latency_ns", "bullet_disk_read_latency_ns",
    "bullet_disk_write_latency_ns",
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string banner_field(const std::string& banner, const std::string& key) {
  const auto at = banner.find(key + ": ");
  if (at == std::string::npos) return "";
  const auto start = at + key.size() + 2;
  const auto end = banner.find('\n', start);
  return banner.substr(start, end - start);
}

// "name value" or "name{quantile=\"0.x\"} value", value an unsigned int.
bool parse_exposition_line(const std::string& line, std::string* name,
                           unsigned long long* value) {
  std::size_t i = 0;
  while (i < line.size() &&
         (std::isalnum(static_cast<unsigned char>(line[i])) != 0 ||
          line[i] == '_')) {
    ++i;
  }
  if (i == 0) return false;
  *name = line.substr(0, i);
  if (i < line.size() && line[i] == '{') {
    const std::size_t close = line.find('}', i);
    if (close == std::string::npos) return false;
    i = close + 1;
  }
  if (i >= line.size() || line[i] != ' ') return false;
  ++i;
  char* end = nullptr;
  *value = std::strtoull(line.c_str() + i, &end, 10);
  return end != line.c_str() + i && *end == '\0';
}

class ObsIntrospectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    image_ = testing::unique_temp_path(".img");
    banner_ = testing::unique_temp_path("-banner.txt");
    std::remove(image_.c_str());
    std::remove((image_ + ".dircap").c_str());
  }

  void TearDown() override {
    stop_daemon();
    std::remove(image_.c_str());
    std::remove((image_ + ".dircap").c_str());
    std::remove(banner_.c_str());
  }

  int run(const std::string& command, std::string* out = nullptr) {
    const std::string capture = testing::unique_temp_path("-cmd.out");
    const int code =
        std::system((command + " > " + capture + " 2>/dev/null").c_str());
    if (out != nullptr) *out = slurp(capture);
    std::remove(capture.c_str());
    return WEXITSTATUS(code);
  }

  void start_daemon() {
    port_ = static_cast<int>(20000 + ((getpid() + 7919) % 20000));
    pid_ = fork();
    ASSERT_GE(pid_, 0);
    if (pid_ == 0) {
      FILE* out = std::freopen(banner_.c_str(), "w", stdout);
      (void)out;
      FILE* err = std::freopen("/dev/null", "w", stderr);
      (void)err;
      // --trace-sample 1 traces every request so the tiny workload below
      // is guaranteed to leave chains in the sink.
      execl(BULLET_SERVER_PATH, BULLET_SERVER_PATH, "--image", image_.c_str(),
            "--port", std::to_string(port_).c_str(), "--trace-sample", "1",
            nullptr);
      _exit(127);
    }
    for (int i = 0; i < 100; ++i) {
      if (slurp(banner_).find("root-cap: ") != std::string::npos) return;
      usleep(50 * 1000);
    }
    FAIL() << "daemon did not print its banner";
  }

  void stop_daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      int status = 0;
      waitpid(pid_, &status, 0);
      pid_ = -1;
    }
  }

  std::string tool(const std::string& args) {
    return std::string(BULLET_TOOL_PATH) + " " + args;
  }

  std::string image_;
  std::string banner_;
  int port_ = 0;
  pid_t pid_ = -1;
};

TEST_F(ObsIntrospectionTest, StatsTopAndTraceAgainstLiveDaemon) {
  ASSERT_EQ(0,
            run(tool("format " + image_ + " 8 512")));
  start_daemon();
  const std::string banner = slurp(banner_);
  const std::string bullet_cap = banner_field(banner, "bullet-cap");
  ASSERT_FALSE(bullet_cap.empty());

  // Workload over UDP: one create (put) and one read (get).
  const std::string local = testing::unique_temp_path("-payload.bin");
  {
    std::ofstream out(local, std::ios::binary);
    const Bytes data = testing::payload(20000, 3);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
  }
  const std::string client = std::string(BULLET_CLIENT_PATH) + " --port " +
                             std::to_string(port_) + " --cap " + bullet_cap;
  std::string cap_text;
  ASSERT_EQ(0, run(client + " put " + local, &cap_text));
  while (!cap_text.empty() && cap_text.back() == '\n') cap_text.pop_back();
  const std::string fetched = testing::unique_temp_path("-fetched.bin");
  ASSERT_EQ(0, run(client + " get " + cap_text + " " + fetched));
  std::remove(local.c_str());
  std::remove(fetched.c_str());

  const std::string live = std::to_string(port_) + " " + bullet_cap;

  // --- bullet_tool stats: full exposition text, line-parseable. ---
  std::string stats;
  ASSERT_EQ(0, run(tool("stats " + live), &stats));
  std::istringstream lines(stats);
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::string name;
    unsigned long long value = 0;
    EXPECT_TRUE(parse_exposition_line(line, &name, &value))
        << "unparseable line: " << line;
    ++parsed;
  }
  EXPECT_GE(parsed, 53u);  // 35 counters + 5 histograms x 6 lines
  for (const char* name : kCounterMetrics) {
    EXPECT_NE(std::string::npos, stats.find(std::string(name) + " "))
        << "missing metric " << name;
  }
  for (const char* name : kHistogramMetrics) {
    EXPECT_NE(std::string::npos,
              stats.find(std::string(name) + "{quantile=\"0.5\"} "))
        << "missing histogram " << name;
    EXPECT_NE(std::string::npos,
              stats.find(std::string(name) + "{quantile=\"0.99\"} "))
        << "missing histogram " << name;
    EXPECT_NE(std::string::npos, stats.find(std::string(name) + "_count "))
        << "missing histogram " << name;
  }
  // The workload is visible in the counters and the read histogram.
  {
    std::string name;
    unsigned long long creates = 0, reads = 0, read_count = 0;
    std::istringstream again(stats);
    while (std::getline(again, line)) {
      unsigned long long value = 0;
      if (!parse_exposition_line(line, &name, &value)) continue;
      if (line.rfind("bullet_creates_total ", 0) == 0) creates = value;
      if (line.rfind("bullet_reads_total ", 0) == 0) reads = value;
      if (line.rfind("bullet_read_latency_ns_count ", 0) == 0) {
        read_count = value;
      }
    }
    EXPECT_GE(creates, 1u);
    EXPECT_GE(reads, 1u);
    EXPECT_GE(read_count, 1u);
  }

  // --- bullet_tool top: rate view over a short interval. ---
  std::string top;
  ASSERT_EQ(0, run(tool("top " + live + " 0.2"), &top));
  EXPECT_NE(std::string::npos, top.find("reads/s:"));
  EXPECT_NE(std::string::npos, top.find("files live:"));

  // --- bullet_tool trace: at least one complete chain from the workload. ---
  std::string trace;
  ASSERT_EQ(0, run(tool("trace " + live + " --slow 0 --max 512"), &trace));
  EXPECT_NE(std::string::npos, trace.find("seq=")) << trace;
  EXPECT_NE(std::string::npos, trace.find("op=READ")) << trace;
  for (const char* stage : {"rx", "queue", "handle", "encode", "tx"}) {
    EXPECT_NE(std::string::npos, trace.find(stage)) << trace;
  }
  EXPECT_EQ(std::string::npos, trace.find("0 chain(s)")) << trace;

  // The dump drained the sink; with no new traffic a rerun is empty.
  std::string trace2;
  ASSERT_EQ(0, run(tool("trace " + live + " --slow 1s"), &trace2));
  EXPECT_NE(std::string::npos, trace2.find("0 chain(s), 0 span(s)")) << trace2;
}

}  // namespace
}  // namespace bullet
