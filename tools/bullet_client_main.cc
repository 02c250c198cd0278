// bullet_client — talk to a running bullet_server over the network.
//
//   bullet_client --port N --cap BULLET-CAP put <local-file> [pfactor]
//   bullet_client --port N get <capability> [out-file]
//   bullet_client --port N rm  <capability>
//   bullet_client --port N --cap BULLET-CAP stats
//
//   # with the directory server (caps printed by bullet_server):
//   bullet_client --port N --dir DIR-CAP --root ROOT-CAP ls   [path]
//   bullet_client --port N --dir DIR-CAP --root ROOT-CAP name <path> <cap>
//   bullet_client --port N --dir DIR-CAP --root ROOT-CAP cat  <path>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bullet/client.h"
#include "dir/client.h"
#include "obs/metrics.h"
#include "rpc/udp_transport.h"

using namespace bullet;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: bullet_client --port N [--cap CAP] [--dir CAP --root CAP] "
      "<command> [args]\n"
      "  put <file> [pfactor]    store a file (needs --cap)\n"
      "  get <capability> [out]  fetch a file\n"
      "  rm  <capability>        delete a file\n"
      "  stats                   server statistics (needs --cap)\n"
      "  ls [path]               list a directory (needs --dir/--root)\n"
      "  name <path> <cap>       bind a name (needs --dir/--root)\n"
      "  cat <path>              resolve + fetch (needs --dir/--root)\n");
  return 2;
}

int fail(const Error& error) {
  std::fprintf(stderr, "error: %s\n", error.to_string().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t port = 0;
  Capability bullet_cap, dir_cap, root_cap;
  std::vector<std::string> rest;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_cap = [&](Capability* out) -> bool {
      if (i + 1 >= argc) return false;
      const auto cap = Capability::from_string(argv[++i]);
      if (!cap) return false;
      *out = *cap;
      return true;
    };
    if (arg == "--port" && i + 1 < argc) {
      port = static_cast<std::uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--cap") {
      if (!next_cap(&bullet_cap)) return usage();
    } else if (arg == "--dir") {
      if (!next_cap(&dir_cap)) return usage();
    } else if (arg == "--root") {
      if (!next_cap(&root_cap)) return usage();
    } else {
      rest.push_back(arg);
    }
  }
  if (port == 0 || rest.empty()) return usage();

  rpc::UdpClientOptions options;
  options.server_udp_port = port;
  auto transport = rpc::UdpTransport::connect(options);
  if (!transport.ok()) return fail(transport.error());
  BulletClient files(transport.value().get(), bullet_cap);
  dir::DirClient names(transport.value().get(), dir_cap);

  const std::string& command = rest[0];
  if (command == "put") {
    if (rest.size() < 2 || bullet_cap.is_null()) return usage();
    std::ifstream in(rest[1], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", rest[1].c_str());
      return 1;
    }
    Bytes data((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
    const int pfactor =
        rest.size() >= 3 ? std::atoi(rest[2].c_str()) : 1;
    auto cap = files.create(data, pfactor);
    if (!cap.ok()) return fail(cap.error());
    std::printf("%s\n", cap.value().to_string().c_str());
    return 0;
  }
  if (command == "get") {
    if (rest.size() < 2) return usage();
    const auto cap = Capability::from_string(rest[1]);
    if (!cap) return usage();
    auto data = files.read_whole(*cap);
    if (!data.ok()) return fail(data.error());
    if (rest.size() >= 3) {
      std::ofstream out(rest[2], std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(data.value().data()),
                static_cast<std::streamsize>(data.value().size()));
      if (!out) return 1;
    } else {
      std::fwrite(data.value().data(), 1, data.value().size(), stdout);
    }
    return 0;
  }
  if (command == "rm") {
    if (rest.size() < 2) return usage();
    const auto cap = Capability::from_string(rest[1]);
    if (!cap) return usage();
    const Status st = files.erase(*cap);
    if (!st.ok()) return fail(st.error());
    return 0;
  }
  if (command == "stats") {
    if (bullet_cap.is_null()) return usage();
    auto text = files.stats_text();
    if (!text.ok()) return fail(text.error());
    const auto metric = [&text](const char* name) {
      return static_cast<unsigned long long>(
          obs::metric_value(text.value(), name).value_or(0));
    };
    std::printf("files: %llu  creates: %llu  reads: %llu  deletes: %llu\n"
                "free: %llu bytes in %llu hole(s)  replicas healthy: %llu\n",
                metric("bullet_files_live"), metric("bullet_creates_total"),
                metric("bullet_reads_total"), metric("bullet_deletes_total"),
                metric("bullet_disk_free_bytes"), metric("bullet_disk_holes"),
                metric("bullet_healthy_replicas"));
    return 0;
  }
  if (command == "ls") {
    if (root_cap.is_null()) return usage();
    auto dir = rest.size() >= 2 ? names.resolve(root_cap, rest[1])
                                : Result<Capability>(root_cap);
    if (!dir.ok()) return fail(dir.error());
    auto entries = names.list(dir.value());
    if (!entries.ok()) return fail(entries.error());
    for (const auto& entry : entries.value()) {
      std::printf("%-30s %s\n", entry.name.c_str(),
                  entry.target.to_string().c_str());
    }
    return 0;
  }
  if (command == "name") {
    if (rest.size() < 3 || root_cap.is_null()) return usage();
    const auto target = Capability::from_string(rest[2]);
    if (!target) return usage();
    // Split path into parent + leaf.
    const auto parts = dir::split_path(rest[1]);
    if (parts.empty()) return usage();
    Capability parent = root_cap;
    for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
      auto next = names.lookup(parent, parts[i]);
      if (!next.ok()) return fail(next.error());
      parent = next.value();
    }
    const Status st = names.enter(parent, parts.back(), *target);
    if (!st.ok()) return fail(st.error());
    return 0;
  }
  if (command == "cat") {
    if (rest.size() < 2 || root_cap.is_null()) return usage();
    auto cap = names.resolve(root_cap, rest[1]);
    if (!cap.ok()) return fail(cap.error());
    auto data = files.read_whole(cap.value());
    if (!data.ok()) return fail(data.error());
    std::fwrite(data.value().data(), 1, data.value().size(), stdout);
    return 0;
  }
  return usage();
}
