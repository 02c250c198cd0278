// A bare UDP endpoint on 127.0.0.1 for tests that put hand-made datagrams
// on the wire: a UdpTransport would number, retransmit and reassemble for
// them, which is exactly what these tests need to control.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "rpc/udp_transport.h"

namespace bullet::testing {

class RawUdpEndpoint {
 public:
  explicit RawUdpEndpoint(std::uint16_t server_port) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    sockaddr_in self{};
    self.sin_family = AF_INET;
    self.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    (void)::bind(fd_, reinterpret_cast<const sockaddr*>(&self), sizeof self);
    const int buffer_bytes = 4 << 20;
    (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &buffer_bytes,
                       sizeof buffer_bytes);
    server_.sin_family = AF_INET;
    server_.sin_port = htons(server_port);
    server_.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  }
  ~RawUdpEndpoint() { ::close(fd_); }
  RawUdpEndpoint(const RawUdpEndpoint&) = delete;
  RawUdpEndpoint& operator=(const RawUdpEndpoint&) = delete;

  void send(ByteSpan datagram) {
    (void)::sendto(fd_, datagram.data(), datagram.size(), 0,
                   reinterpret_cast<const sockaddr*>(&server_), sizeof server_);
  }

  // Send `message` as message `id`, fragmented the way the transport does.
  void send_message(std::uint64_t id, ByteSpan message) {
    const std::size_t count = std::max<std::size_t>(
        1, (message.size() + rpc::kFragmentPayload - 1) / rpc::kFragmentPayload);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t offset = i * rpc::kFragmentPayload;
      rpc::Fragment f;
      f.message_id = id;
      f.index = static_cast<std::uint16_t>(i);
      f.count = static_cast<std::uint16_t>(count);
      f.payload = message.subspan(
          offset, std::min(rpc::kFragmentPayload, message.size() - offset));
      send(f.encode());
    }
  }

  // The reassembled message `id` from the server, or nullopt once
  // `timeout_ms` pass without a datagram.
  std::optional<Bytes> receive(std::uint64_t id, int timeout_ms) {
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    rpc::Reassembler message;
    message.reset(id);
    std::vector<std::uint8_t> buffer(rpc::kFragmentPayload +
                                     rpc::kFragmentHeader);
    for (;;) {
      const ssize_t n = ::recv(fd_, buffer.data(), buffer.size(), 0);
      if (n < 0) return std::nullopt;
      const auto f =
          rpc::Fragment::parse(ByteSpan(buffer.data(), static_cast<std::size_t>(n)));
      if (f.ok() && message.add(f.value())) return message.take();
    }
  }

 private:
  int fd_ = -1;
  sockaddr_in server_{};
};

}  // namespace bullet::testing
