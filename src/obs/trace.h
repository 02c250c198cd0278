// Per-request tracing: span records, the thread-local request context, and
// the global sink the introspection plane (BS_TRACE_DUMP) drains.
//
// Design constraints, in order:
//
//  1. The untraced hot path must stay nearly free. A 64 KB cache-hit read
//     completes in ~100 ns in-process, so even one steady_clock read per
//     request would be a double-digit regression. Requests are therefore
//     *sampled*: by default 1 in kDefaultSampleEvery requests is traced
//     (plus every request whose client sent a nonzero trace id, so an
//     operator can always force a trace). An unsampled request costs one
//     thread-local load per instrumentation point and zero clock reads.
//
//  2. Spans must survive the request and be queryable later. Completed
//     traces are published into a small set of mutex-protected ring
//     shards, a whole request chain at a time (shard chosen by trace
//     sequence number), so a chain is always contiguous in one shard and
//     BS_TRACE_DUMP can reconstruct rx→tx timelines without a matching
//     pass across shards.
//
//  3. Instrumentation points must not thread context through APIs. The
//     active trace lives in a thread_local; ScopedSpan picks it up from
//     wherever it is constructed (transport, server, cache, disk). A
//     request normally runs start-to-finish on one thread; a request that
//     parks on asynchronous disk I/O detaches its trace with suspend()
//     and the completion thread reattaches it with resume(), so the TLS
//     handoff stays exact across the continuation boundary.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace bullet::obs {

class LatencyHistogram;

// Monotonic nanosecond clock (steady_clock). All span timestamps share it.
std::uint64_t now_ns() noexcept;

// Request stages, in rough wire-to-wire order. Values are wire format
// (BS_TRACE_DUMP) — append-only.
enum class Stage : std::uint8_t {
  kRx = 0,          // datagram arrival → request reassembled
  kQueue = 1,       // reassembled → picked up by a worker
  kHandle = 2,      // full service dispatch (decode done → reply built)
  kLockShared = 3,  // waiting for the server lock, shared
  kLockExcl = 4,    // waiting for the server lock, exclusive
  kCache = 5,       // cache probe/fill (hit: ~0; miss: includes disk)
  kDiskRead = 6,    // block-device read
  kDiskWrite = 7,   // block-device write
  kEncode = 8,      // retired, reserved: timed the copy of each sent reply
                    // into the UDP reply cache, which is gone
  kTx = 9,          // reply gathered in place → sendmmsg complete
  kDiskQueue = 10,  // async disk op queued: submit → execution start
};

const char* stage_name(Stage stage) noexcept;

// One timed stage of one traced request. 8-byte packed on the wire (see
// wire::TraceSpan); this is the in-memory form.
struct SpanRecord {
  std::uint64_t trace_id = 0;  // client-supplied id, 0 = server-sampled
  std::uint64_t seq = 0;       // server-assigned, unique per traced request
  std::uint16_t opcode = 0;
  Stage stage = Stage::kRx;
  std::uint64_t start_ns = 0;  // steady-clock, comparable within a process
  std::uint64_t dur_ns = 0;
};

// Global tracing switches. `enabled=false` (--no-trace) makes every
// request untraced regardless of client ids; `sample_every=N` traces one
// in N id-less requests per thread (0 disables sampling but still honors
// client ids).
void set_tracing_enabled(bool enabled) noexcept;
bool tracing_enabled() noexcept;
void set_sample_every(std::uint32_t every) noexcept;
inline constexpr std::uint32_t kDefaultSampleEvery = 8;

// The global sink of completed traces.
class TraceSink {
 public:
  static TraceSink& instance();

  // Publish one request's spans atomically into the shard owning `seq`.
  void publish(const SpanRecord* spans, std::size_t count);

  // Remove and return buffered spans, keeping only chains (groups sharing
  // a seq) whose wall-clock extent is >= threshold_ns. Result is ordered
  // by seq ascending with each chain contiguous; when more than max_spans
  // qualify, the *oldest* whole chains are dropped first. Drained spans
  // are consumed; a second drain reports only traffic since the first.
  std::vector<SpanRecord> drain(std::uint64_t threshold_ns,
                                std::size_t max_spans);

  // Test hook: discard everything buffered.
  void clear();

 private:
  TraceSink() = default;
};

// The per-request trace context. Constructed where the request enters
// (UDP transport execute(), or Service::handle() for in-process
// transports); decides sampling once; registers itself as the
// thread-local current trace; publishes its spans to the sink on
// destruction. If a trace is already current on this thread, construction
// is a no-op (the outer owner keeps collecting) — that lets both the
// transport and the server construct one unconditionally.
class RequestTrace {
 public:
  static constexpr std::size_t kMaxSpans = 16;

  RequestTrace(std::uint16_t opcode, std::uint64_t trace_id) noexcept;
  ~RequestTrace();

  RequestTrace(const RequestTrace&) = delete;
  RequestTrace& operator=(const RequestTrace&) = delete;

  // The thread's active trace, or nullptr when this request is unsampled.
  static RequestTrace* current() noexcept;

  // Continuation support (requests parked on async disk I/O). suspend()
  // detaches the calling thread's active trace and returns it (nullptr if
  // none): the TLS slot clears, the trace object stays alive and keeps
  // accepting add_span(). resume(t) reattaches it on the resuming thread
  // (no-op for nullptr or when that thread already has a trace). The
  // object may then be destroyed on the resuming thread; destruction
  // clears whichever TLS slot currently points at it and publishes.
  static RequestTrace* suspend() noexcept;
  static void resume(RequestTrace* trace) noexcept;

  bool active() const noexcept { return active_; }
  std::uint64_t trace_id() const noexcept { return trace_id_; }
  std::uint64_t seq() const noexcept { return seq_; }

  // Append a span with explicit timing (for stages measured before the
  // trace existed, e.g. rx reassembly, or after it is gone, e.g. tx).
  void add_span(Stage stage, std::uint64_t start_ns,
                std::uint64_t dur_ns) noexcept;

 private:
  bool active_ = false;
  std::uint64_t trace_id_ = 0;
  std::uint64_t seq_ = 0;
  std::uint16_t opcode_ = 0;
  std::size_t count_ = 0;
  std::array<SpanRecord, kMaxSpans> spans_;
};

// RAII span: measures its own scope and appends to the thread's current
// trace. When no trace is active the constructor is one TLS load and no
// clock read. Optionally also records the duration into `hist` (still
// only when this request is sampled — histograms and traces share the
// sampling decision, so the histogram clock reads ride on span ones).
class ScopedSpan {
 public:
  explicit ScopedSpan(Stage stage, LatencyHistogram* hist = nullptr) noexcept
      : trace_(RequestTrace::current()), stage_(stage), hist_(hist) {
    if (trace_ != nullptr) start_ns_ = now_ns();
  }
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  RequestTrace* trace_;
  Stage stage_;
  LatencyHistogram* hist_;
  std::uint64_t start_ns_ = 0;
};

}  // namespace bullet::obs
