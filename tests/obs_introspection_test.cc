// The live introspection plane end to end, as an operator uses it:
// bullet_server runs as a separate process, a workload goes over UDP via
// bullet_client, then `bullet_tool stats|top|trace` interrogates the
// daemon. Asserts the exposition text parses line by line, names exactly
// the metrics docs/PROTOCOL.md documents, and the trace dump prints
// complete span chains.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "obs/metrics.h"
#include "tests/test_util.h"

#ifndef BULLET_PROTOCOL_DOC_PATH
#error "BULLET_PROTOCOL_DOC_PATH must be defined by the build"
#endif
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

// The metric names the STATS2 table in docs/PROTOCOL.md documents, as they
// appear in an exposition: a counter or gauge row by its name, a histogram
// row by its `_count` line.
std::set<std::string> documented_metrics(const std::string& doc) {
  std::set<std::string> names;
  const std::size_t section = doc.find("### STATS2: metric exposition");
  if (section == std::string::npos) return names;
  const std::size_t end = doc.find("\n### ", section + 1);
  std::istringstream lines(doc.substr(section, end - section));
  std::string line;
  while (std::getline(lines, line)) {
    // | `name` | kind | meaning |
    if (line.rfind("| `", 0) != 0) continue;
    const std::size_t close = line.find('`', 3);
    const std::size_t kind_at = line.find("| ", close);
    if (close == std::string::npos || kind_at == std::string::npos) continue;
    const std::string name = line.substr(3, close - 3);
    const bool histogram = line.compare(kind_at + 2, 9, "histogram") == 0;
    names.insert(histogram ? name + "_count" : name);
  }
  return names;
}

// The metric names an exposition carries, on the same terms: every
// unlabelled sample except a histogram's `_sum` and `_max` lines.
std::set<std::string> exposed_metrics(const std::string& exposition) {
  std::set<std::string> unlabelled;
  std::set<std::string> histograms;
  std::istringstream lines(exposition);
  std::string line;
  while (std::getline(lines, line)) {
    const std::string key = line.substr(0, line.find(' '));
    const std::size_t brace = key.find('{');
    if (brace != std::string::npos) {
      histograms.insert(key.substr(0, brace));
    } else {
      unlabelled.insert(key);
    }
  }
  for (const std::string& h : histograms) {
    unlabelled.erase(h + "_sum");
    unlabelled.erase(h + "_max");
  }
  return unlabelled;
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
    EXPECT_TRUE(obs::metric_value(stats, line.substr(0, line.find(' '))))
        << "unparseable line: " << line;
    ++parsed;
  }
  EXPECT_GE(parsed, 80u);  // 50 counters + 5 histograms x 6 lines
  // The documented table and the live exposition name the same metrics:
  // a counter without a row, or a row without a counter, fails here.
  const std::set<std::string> documented =
      documented_metrics(slurp(BULLET_PROTOCOL_DOC_PATH));
  const std::set<std::string> exposed = exposed_metrics(stats);
  for (const std::string& name : documented) {
    EXPECT_EQ(1u, exposed.count(name)) << "documented, not exposed: " << name;
  }
  for (const std::string& name : exposed) {
    EXPECT_EQ(1u, documented.count(name)) << "exposed, not documented: " << name;
  }
  // The workload is visible in the counters and the read histogram.
  EXPECT_GE(testing::metric(stats, "bullet_creates_total"), 1u);
  EXPECT_GE(testing::metric(stats, "bullet_reads_total"), 1u);
  EXPECT_GE(testing::metric(stats, "bullet_read_latency_ns_count"), 1u);

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
  for (const char* stage : {"rx", "queue", "handle", "tx"}) {
    EXPECT_NE(std::string::npos, trace.find(stage)) << trace;
  }
  // No chain has an encode span: the server keeps no copy of a reply.
  EXPECT_EQ(std::string::npos, trace.find("encode")) << trace;
  EXPECT_EQ(std::string::npos, trace.find("0 chain(s)")) << trace;

  // The dump drained the sink; with no new traffic a rerun is empty.
  std::string trace2;
  ASSERT_EQ(0, run(tool("trace " + live + " --slow 1s"), &trace2));
  EXPECT_NE(std::string::npos, trace2.find("0 chain(s), 0 span(s)")) << trace2;
}

}  // namespace
}  // namespace bullet
