#include "probes.h"

#include <chrono>
#include <memory>
#include <utility>

#include "rpc/udp_transport.h"

namespace perfbench {

using namespace bullet;

namespace {

std::atomic<bool> g_recording{false};

// Buffers outlive the threads that fill them (server threads end before the
// merge), so the registry owns them and threads keep a raw pointer.
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<std::vector<Span>>> g_buffers;

std::vector<Span>& thread_buffer() {
  thread_local std::vector<Span>* mine = nullptr;
  if (mine == nullptr) {
    auto owned = std::make_unique<std::vector<Span>>();
    owned->reserve(1 << 14);
    mine = owned.get();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::move(owned));
  }
  return *mine;
}

std::uint32_t clamp32(std::uint64_t v) {
  return v > 0xFFFFFFFFull ? 0xFFFFFFFFu : static_cast<std::uint32_t>(v);
}

// UDP datagrams a message of `wire_bytes` is split into (at least one).
std::uint32_t fragments_for(std::uint64_t wire_bytes) {
  const std::uint64_t n = (wire_bytes + rpc::kFragmentPayload - 1) / rpc::kFragmentPayload;
  return clamp32(n == 0 ? 1 : n);
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOp: return "op";
    case SpanKind::kCall: return "rpc.call";
    case SpanKind::kService: return "service";
    case SpanKind::kPush: return "repl.push";
    case SpanKind::kDevRead: return "dev.read";
    case SpanKind::kDevWrite: return "dev.write";
    case SpanKind::kDevFlush: return "dev.flush";
  }
  return "?";
}

void set_recording(bool on) { g_recording.store(on, std::memory_order_release); }

bool recording() { return g_recording.load(std::memory_order_relaxed); }

void record(const Span& span) { thread_buffer().push_back(span); }

std::vector<Span> take_spans() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::size_t total = 0;
  for (const auto& buffer : g_buffers) total += buffer->size();
  std::vector<Span> all;
  all.reserve(total);
  for (const auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->begin(), buffer->end());
    buffer->clear();
  }
  return all;
}

Result<rpc::Reply> TimedTransport::call(const rpc::Request& request) {
  if (!recording()) return inner_->call(request);
  const std::uint64_t start = now_ns();
  Result<rpc::Reply> reply = inner_->call(request);
  const std::uint64_t end = now_ns();
  std::uint32_t fragments = fragments_for(request.wire_size());
  if (reply.ok()) fragments += fragments_for(reply.value().wire_size());
  Span span;
  span.trace_id = request.trace_id;
  span.start_ns = start;
  span.dur_ns = clamp32(end - start);
  span.bytes = reply.ok() ? clamp32(reply.value().payload_size()) : 0;
  span.kind = kind_;
  span.aux = static_cast<std::uint16_t>(fragments > 0xFFFF ? 0xFFFF : fragments);
  record(span);
  return reply;
}

rpc::Reply TimedService::handle(const rpc::Request& request) {
  if (!recording() || request.trace_id == 0) return inner_->handle(request);
  const std::uint64_t start = now_ns();
  rpc::Reply reply = inner_->handle(request);
  Span span;
  span.trace_id = request.trace_id;
  span.start_ns = start;
  span.dur_ns = clamp32(now_ns() - start);
  span.kind = SpanKind::kService;
  span.aux = request.opcode;
  record(span);
  return reply;
}

void TimedService::handle_async(const rpc::Request& request,
                                rpc::Responder respond) {
  if (!recording() || request.trace_id == 0) {
    inner_->handle_async(request, std::move(respond));
    return;
  }
  // The reply may be delivered later from a disk-completion thread; the
  // span ends there, when the service hands the reply back.
  const std::uint64_t start = now_ns();
  const std::uint64_t trace_id = request.trace_id;
  const std::uint16_t opcode = request.opcode;
  inner_->handle_async(
      request, [respond = std::move(respond), start, trace_id,
                opcode](rpc::Reply&& reply) {
        Span span;
        span.trace_id = trace_id;
        span.start_ns = start;
        span.dur_ns = clamp32(now_ns() - start);
        span.kind = SpanKind::kService;
        span.aux = opcode;
        if (recording()) record(span);
        respond(std::move(reply));
      });
}

namespace {

template <typename Fn>
Status timed_device_op(SpanKind kind, std::uint16_t index, std::size_t bytes,
                       Fn&& op) {
  if (!recording()) return op();
  const std::uint64_t start = now_ns();
  Status st = op();
  Span span;
  span.start_ns = start;
  span.dur_ns = clamp32(now_ns() - start);
  span.bytes = clamp32(bytes);
  span.kind = kind;
  span.aux = index;
  record(span);
  return st;
}

}  // namespace

Status TimedDevice::read(std::uint64_t first_block, MutableByteSpan out) {
  return timed_device_op(SpanKind::kDevRead, index_, out.size(),
                         [&] { return inner_->read(first_block, out); });
}

Status TimedDevice::write(std::uint64_t first_block, ByteSpan data) {
  return timed_device_op(SpanKind::kDevWrite, index_, data.size(),
                         [&] { return inner_->write(first_block, data); });
}

Status TimedDevice::flush() {
  return timed_device_op(SpanKind::kDevFlush, index_, 0,
                         [&] { return inner_->flush(); });
}

}  // namespace perfbench
