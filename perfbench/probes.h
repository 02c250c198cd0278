// Timing decorators for the traced run.
//
// The traced run wraps each layer's public interface in one of these, so the
// per-layer numbers come from the benchmark's own files and the program
// under test carries no benchmark instrumentation:
//
//   TimedTransport  around rpc::Transport (each client connection, and the
//                   primary's peer link to its backup);
//   TimedService    around rpc::Service (the BulletServer the UdpServer
//                   dispatches to);
//   TimedDevice     around BlockDevice (each FileDisk under the mirror).
//
// Every decorator appends fixed-size Span records to a buffer owned by the
// recording thread, only while recording is switched on, and the run merges
// them once every thread is quiescent. Spans of one request share its trace
// id (set with BulletClient::set_trace_id); disk and peer-push spans run on
// server threads that cannot see the id and carry 0.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "disk/block_device.h"
#include "rpc/transport.h"

namespace perfbench {

std::uint64_t now_ns();

enum class SpanKind : std::uint16_t {
  kOp = 0,         // client op as the load loop sees it; aux = OpKind
  kCall = 1,       // rpc::Transport::call on a client; aux = fragments
  kService = 2,    // rpc::Service dispatch to reply; aux = opcode
  kPush = 3,       // rpc::Transport::call on the peer link
  kDevRead = 4,    // BlockDevice::read; aux = device index
  kDevWrite = 5,   // BlockDevice::write; aux = device index
  kDevFlush = 6,   // BlockDevice::flush; aux = device index
};

const char* span_name(SpanKind kind);

struct Span {
  std::uint64_t trace_id = 0;
  std::uint64_t start_ns = 0;
  std::uint32_t dur_ns = 0;
  std::uint32_t bytes = 0;
  SpanKind kind = SpanKind::kOp;
  std::uint16_t aux = 0;
};

// Recording switch, read on every decorated call.
void set_recording(bool on);
bool recording();

// Append to the calling thread's buffer (only call while recording).
void record(const Span& span);

// Every span recorded so far, in no particular order; clears the buffers.
// Call only while no thread records.
std::vector<Span> take_spans();

class TimedTransport final : public bullet::rpc::Transport {
 public:
  TimedTransport(bullet::rpc::Transport* inner, SpanKind kind)
      : inner_(inner), kind_(kind) {}
  bullet::Result<bullet::rpc::Reply> call(
      const bullet::rpc::Request& request) override;

 private:
  bullet::rpc::Transport* inner_;
  SpanKind kind_;
};

class TimedService final : public bullet::rpc::Service {
 public:
  explicit TimedService(bullet::rpc::Service* inner) : inner_(inner) {}
  bullet::Port public_port() const noexcept override {
    return inner_->public_port();
  }
  bullet::rpc::Reply handle(const bullet::rpc::Request& request) override;
  void handle_async(const bullet::rpc::Request& request,
                    bullet::rpc::Responder respond) override;

 private:
  bullet::rpc::Service* inner_;
};

class TimedDevice final : public bullet::BlockDevice {
 public:
  TimedDevice(bullet::BlockDevice* inner, std::uint16_t index)
      : inner_(inner), index_(index) {}
  std::uint64_t block_size() const noexcept override {
    return inner_->block_size();
  }
  std::uint64_t num_blocks() const noexcept override {
    return inner_->num_blocks();
  }
  bullet::Status read(std::uint64_t first_block,
                      bullet::MutableByteSpan out) override;
  bullet::Status write(std::uint64_t first_block,
                       bullet::ByteSpan data) override;
  bullet::Status flush() override;

 private:
  bullet::BlockDevice* inner_;
  std::uint16_t index_;
};

// One caller at a time through `inner`. UdpTransport::call is not safe to
// call concurrently (one socket, one message-id counter), yet a BulletServer
// pushes to its peer from both its UDP workers (delete) and its disk
// completion threads (create). The pair's peer links go through this.
class SerialTransport final : public bullet::rpc::Transport {
 public:
  explicit SerialTransport(bullet::rpc::Transport* inner) : inner_(inner) {}
  bullet::Result<bullet::rpc::Reply> call(
      const bullet::rpc::Request& request) override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_->call(request);
  }

 private:
  bullet::rpc::Transport* inner_;
  std::mutex mu_;
};

}  // namespace perfbench
