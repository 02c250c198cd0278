// End-to-end test of the deployable binaries: bullet_tool formats an
// image, the bullet_server daemon serves it over UDP, bullet_client talks
// to it from another process, and directory state survives a daemon
// restart. This is the full operator story from docs/OPERATIONS.md, run as
// a regression test.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

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

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Extract "key: value" from the daemon's banner.
std::string banner_field(const std::string& banner, const std::string& key) {
  const auto at = banner.find(key + ": ");
  if (at == std::string::npos) return "";
  const auto start = at + key.size() + 2;
  const auto end = banner.find('\n', start);
  return banner.substr(start, end - start);
}

class DaemonTest : public ::testing::Test {
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

  // Start the daemon (kernel-assigned... we must pick a port; use a fixed
  // high port varied by pid to avoid collisions between test runs).
  void start_daemon() {
    port_ = static_cast<int>(20000 + (getpid() % 20000));
    // A restart must not find the previous daemon's banner.
    std::remove(banner_.c_str());
    pid_ = fork();
    ASSERT_GE(pid_, 0);
    if (pid_ == 0) {
      // Child: exec the daemon with stdout redirected to the banner file.
      FILE* out = std::freopen(banner_.c_str(), "w", stdout);
      (void)out;
      FILE* err = std::freopen("/dev/null", "w", stderr);
      (void)err;
      execl(BULLET_SERVER_PATH, BULLET_SERVER_PATH, "--image", image_.c_str(),
            "--port", std::to_string(port_).c_str(), nullptr);
      _exit(127);  // exec failed
    }
    // Parent: wait for the banner to appear.
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

  std::string client(const std::string& args) {
    return std::string(BULLET_CLIENT_PATH) + " --port " +
           std::to_string(port_) + " " + args;
  }

  std::string image_;
  std::string banner_;
  int port_ = 0;
  pid_t pid_ = -1;
};

// Requests execute on the worker pool, so the daemon refuses to run
// without a worker, before it touches the image.
TEST_F(DaemonTest, ZeroWorkersIsRejected) {
  const int code = run(std::string(BULLET_SERVER_PATH) + " --image " +
                       image_ + " --workers 0");
  EXPECT_EQ(2, code);
  std::ifstream image(image_);
  EXPECT_FALSE(image.good());
}

TEST_F(DaemonTest, FullOperatorWorkflowWithRestart) {
  // Provision.
  ASSERT_EQ(0, run(std::string(BULLET_TOOL_PATH) + " format " + image_ +
                   " 8 512"));
  start_daemon();
  const std::string banner = slurp(banner_);
  const std::string bullet_cap = banner_field(banner, "bullet-cap");
  const std::string dir_cap = banner_field(banner, "dir-cap");
  const std::string root_cap = banner_field(banner, "root-cap");
  ASSERT_FALSE(bullet_cap.empty());
  ASSERT_FALSE(root_cap.empty());

  // put a file over the network, name it, read it back by path.
  const std::string local = testing::unique_temp_path("-payload.bin");
  {
    std::ofstream out(local, std::ios::binary);
    const Bytes data = testing::payload(30000, 9);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
  }
  std::string cap_text;
  ASSERT_EQ(0, run(client("--cap " + bullet_cap + " put " + local),
                   &cap_text));
  std::remove(local.c_str());
  while (!cap_text.empty() && cap_text.back() == '\n') cap_text.pop_back();
  ASSERT_TRUE(Capability::from_string(cap_text).has_value()) << cap_text;

  // Binding under a nonexistent intermediate directory is refused...
  EXPECT_NE(0, run(client("--dir " + dir_cap + " --root " + root_cap +
                          " name data/blob " + cap_text)));
  // ... and a flat binding succeeds.
  ASSERT_EQ(0, run(client("--dir " + dir_cap + " --root " + root_cap +
                          " name blob " + cap_text)));
  std::string fetched;
  ASSERT_EQ(0, run(client("--dir " + dir_cap + " --root " + root_cap +
                          " cat blob"),
                   &fetched));
  EXPECT_EQ(crc32c(testing::payload(30000, 9)), crc32c(as_span(fetched)));

  // stats over the network.
  std::string stats;
  ASSERT_EQ(0, run(client("--cap " + bullet_cap + " stats"), &stats));
  EXPECT_NE(std::string::npos, stats.find("files: "));

  // Clean restart: names and bytes survive.
  stop_daemon();
  start_daemon();
  const std::string banner2 = slurp(banner_);
  EXPECT_EQ(root_cap, banner_field(banner2, "root-cap"));
  std::string fetched2;
  ASSERT_EQ(0, run(client("--dir " + dir_cap + " --root " + root_cap +
                          " cat blob"),
                   &fetched2));
  EXPECT_EQ(fetched.size(), fetched2.size());

  // Offline fsck of the image after a clean shutdown must be clean.
  stop_daemon();
  std::string fsck;
  EXPECT_EQ(0, run(std::string(BULLET_TOOL_PATH) + " fsck " + image_, &fsck));
  EXPECT_NE(std::string::npos, fsck.find("0 overlaps cleared"));
}

}  // namespace
}  // namespace bullet
