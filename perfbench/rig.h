// The stack under test, assembled the way tools/bullet_server_main.cc
// assembles the daemon: FileDisk images under a MirroredDisk, a BulletServer
// with the async disk pipeline, and a UdpServer worker pool on loopback in
// front of it; a replicated pair adds the primary<->backup peer links that
// `bullet_server --peer/--role` builds. Clients connect with their own
// UdpTransport. The directory server the daemon also hosts is left out: no
// benchmark request reaches it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bullet/server.h"
#include "disk/file_disk.h"
#include "disk/mirrored_disk.h"
#include "probes.h"
#include "rpc/udp_transport.h"

namespace perfbench {

struct RigConfig {
  bool pair = false;             // primary/backup pair instead of one server
  unsigned images_per_server = 1;
  std::uint64_t image_mb = 64;
  std::uint32_t inode_slots = 4096;
  std::uint64_t cache_mb = 64;
  unsigned workers = 2;          // UdpServer dispatch threads, per server
  unsigned io_threads = 2;       // AsyncDiskQueue threads, per server
  bool traced = false;           // insert the timing decorators
  std::string image_dir;
};

// Server counters read by their STATS2 (metrics_text) names.
using Counters = std::map<std::string, std::uint64_t>;
Counters parse_metrics(const std::string& text);

class Rig {
 public:
  // Formats fresh images, boots the server(s) and connects the pair.
  static std::unique_ptr<Rig> boot(const RigConfig& config);
  ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  // 0 = primary (the server clients talk to), 1 = backup.
  std::size_t servers() const { return nodes_.size(); }
  bullet::BulletServer& server(std::size_t i) { return *nodes_[i]->server; }
  std::uint16_t port(std::size_t i) const { return nodes_[i]->udp->port(); }
  std::uint64_t duplicates_suppressed(std::size_t i) const {
    return nodes_[i]->udp->duplicates_suppressed();
  }
  Counters counters(std::size_t i) const {
    return parse_metrics(nodes_[i]->server->metrics_text());
  }
  unsigned devices() const;

  // A fresh client connection to server `i` with the daemon client's
  // default retransmit settings.
  std::unique_ptr<bullet::rpc::UdpTransport> connect(std::size_t i) const;

  // Wait until every queued disk operation and its completion has run.
  void quiesce();

 private:
  struct Node {
    std::vector<std::string> paths;
    std::vector<std::unique_ptr<bullet::FileDisk>> disks;
    std::vector<std::unique_ptr<TimedDevice>> timed_disks;
    std::unique_ptr<bullet::MirroredDisk> mirror;
    std::unique_ptr<bullet::BulletServer> server;
    std::unique_ptr<TimedService> timed_service;
    std::unique_ptr<bullet::rpc::UdpServer> udp;
    std::unique_ptr<bullet::rpc::UdpTransport> peer_udp;
    std::unique_ptr<SerialTransport> peer_serial;
    std::unique_ptr<TimedTransport> peer_timed;  // traced: wraps peer_serial
  };

  Rig() = default;
  void shutdown();

  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace perfbench
