#include "rig.h"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace perfbench {

using namespace bullet;

namespace {

// bullet_tool format's geometry and bullet_server's defaults.
constexpr std::uint64_t kBlockSize = 512;
constexpr std::size_t kMaxInflightFills = 256;
constexpr std::size_t kMaxQueue = 1024;
constexpr std::uint32_t kShedRetryMs = 50;

[[noreturn]] void fail(const std::string& what, const Error& error) {
  throw std::runtime_error(what + ": " + error.to_string());
}

}  // namespace

Counters parse_metrics(const std::string& text) {
  Counters out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const auto space = line.rfind(' ');
    if (space == std::string::npos || line.find('{') != std::string::npos) {
      continue;  // labelled samples (histogram quantiles) are not read here
    }
    out[line.substr(0, space)] = std::strtoull(line.c_str() + space + 1, nullptr, 10);
  }
  return out;
}

std::unique_ptr<Rig> Rig::boot(const RigConfig& config) {
  std::unique_ptr<Rig> rig(new Rig());
  const std::size_t count = config.pair ? 2 : 1;
  std::uint16_t device_index = 0;
  for (std::size_t i = 0; i < count; ++i) {
    auto node = std::make_unique<Node>();
    std::vector<BlockDevice*> replicas;
    for (unsigned j = 0; j < config.images_per_server; ++j) {
      const std::string path = config.image_dir + "/server" + std::to_string(i) +
                               "-image" + std::to_string(j) + ".img";
      std::remove(path.c_str());
      node->paths.push_back(path);
      auto disk = FileDisk::open(path, kBlockSize, config.image_mb * (1 << 20) / kBlockSize);
      if (!disk.ok()) fail("open " + path, disk.error());
      node->disks.push_back(std::make_unique<FileDisk>(std::move(disk).value()));
      const Status st = BulletServer::format(*node->disks.back(), config.inode_slots);
      if (!st.ok()) fail("format " + path, st.error());
      BlockDevice* device = node->disks.back().get();
      if (config.traced) {
        node->timed_disks.push_back(std::make_unique<TimedDevice>(device, device_index));
        device = node->timed_disks.back().get();
      }
      ++device_index;
      replicas.push_back(device);
    }
    auto mirror = MirroredDisk::create(replicas);
    if (!mirror.ok()) fail("mirror", mirror.error());
    node->mirror = std::make_unique<MirroredDisk>(std::move(mirror).value());

    BulletConfig server_config;
    server_config.cache_bytes = config.cache_mb << 20;
    server_config.io_threads = config.io_threads;
    server_config.max_inflight_fills = kMaxInflightFills;
    auto server = BulletServer::start(node->mirror.get(), server_config);
    if (!server.ok()) fail("boot", server.error());
    node->server = std::move(server).value();

    rpc::UdpServerOptions udp_options;
    udp_options.workers = config.workers;
    udp_options.max_queue = kMaxQueue;
    udp_options.shed_retry_ms = kShedRetryMs;
    auto udp = rpc::UdpServer::start(udp_options);
    if (!udp.ok()) fail("udp", udp.error());
    node->udp = std::move(udp).value();
    node->server->attach_io_counters(&node->udp->io_counters());
    rpc::Service* service = node->server.get();
    if (config.traced) {
      node->timed_service = std::make_unique<TimedService>(service);
      service = node->timed_service.get();
    }
    const Status registered = node->udp->register_service(service);
    if (!registered.ok()) fail("register", registered.error());
    rig->nodes_.push_back(std::move(node));
  }

  if (config.pair) {
    // Both front doors are up, so each side finds its peer healthy and
    // reconciles (a no-op on fresh images) as the daemon does at boot.
    const BulletServer::ReplRole roles[2] = {BulletServer::ReplRole::kPrimary,
                                             BulletServer::ReplRole::kBackup};
    for (std::size_t i = 0; i < 2; ++i) {
      Node& node = *rig->nodes_[i];
      rpc::UdpClientOptions peer_options;
      peer_options.server_udp_port = rig->nodes_[1 - i]->udp->port();
      auto link = rpc::UdpTransport::connect(peer_options);
      if (!link.ok()) fail("peer", link.error());
      node.peer_udp = std::move(link).value();
      node.peer_serial = std::make_unique<SerialTransport>(node.peer_udp.get());
      rpc::Transport* peer = node.peer_serial.get();
      if (config.traced) {
        node.peer_timed = std::make_unique<TimedTransport>(peer, SpanKind::kPush);
        peer = node.peer_timed.get();
      }
      node.server->attach_replica(peer, roles[i]);
    }
    for (auto& node : rig->nodes_) {
      if (!node->server->repl_status().peer_healthy) {
        throw std::runtime_error("replica peer did not answer at boot");
      }
      auto resync = node->server->resync_with_peer();
      if (!resync.ok()) fail("resync", resync.error());
    }
  }
  return rig;
}

Rig::~Rig() { shutdown(); }

void Rig::shutdown() {
  for (auto& node : nodes_) node->udp->stop();
  for (auto& node : nodes_) {
    if (node->peer_serial != nullptr) node->server->detach_replica();
    node->server->io_queue().drain();
    node->server->attach_io_counters(nullptr);
  }
  for (auto& node : nodes_) {
    node->server.reset();
    node->udp.reset();
    node->mirror.reset();
    node->timed_disks.clear();
    node->disks.clear();
    for (const std::string& path : node->paths) std::remove(path.c_str());
  }
  nodes_.clear();
}

unsigned Rig::devices() const {
  unsigned n = 0;
  for (const auto& node : nodes_) n += static_cast<unsigned>(node->disks.size());
  return n;
}

std::unique_ptr<rpc::UdpTransport> Rig::connect(std::size_t i) const {
  rpc::UdpClientOptions options;
  options.server_udp_port = nodes_[i]->udp->port();
  auto transport = rpc::UdpTransport::connect(options);
  if (!transport.ok()) fail("connect", transport.error());
  return std::move(transport).value();
}

void Rig::quiesce() {
  for (auto& node : nodes_) node->server->io_queue().drain();
}

}  // namespace perfbench
