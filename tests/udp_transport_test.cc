// Tests for the real UDP transport: end-to-end RPC over loopback sockets,
// fragmentation of large messages, packet loss + retransmission, duplicate
// suppression (at-most-once execution), and the receive thread's fast
// path beside the worker pool.
#include <gtest/gtest.h>

#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "bullet/client.h"
#include "bullet/server.h"
#include "dir/client.h"
#include "dir/server.h"
#include "rpc/udp_transport.h"
#include "tests/raw_udp.h"
#include "tests/test_util.h"

namespace bullet {
namespace {

using testing::BulletHarness;
using testing::payload;
using testing::status_of;

class UdpTest : public ::testing::Test {
 protected:
  void start_server(rpc::UdpServerOptions options = {}) {
    auto server = rpc::UdpServer::start(options);
    ASSERT_TRUE(server.ok()) << server.error().to_string();
    udp_server_ = std::move(server).value();
    ASSERT_OK(udp_server_->register_service(&h_.server()));
  }

  std::unique_ptr<rpc::UdpTransport> connect(int timeout_ms = 500,
                                             int max_attempts = 5) {
    rpc::UdpClientOptions options;
    options.server_udp_port = udp_server_->port();
    options.timeout_ms = timeout_ms;
    options.max_attempts = max_attempts;
    // Loopback tests keep the backoff ceiling low so heavy-loss cases do
    // not pay multi-second late attempts.
    options.max_timeout_ms = timeout_ms * 4;
    auto transport = rpc::UdpTransport::connect(options);
    EXPECT_TRUE(transport.ok());
    return std::move(transport).value();
  }

  BulletHarness h_;
  std::unique_ptr<rpc::UdpServer> udp_server_;
};

TEST_F(UdpTest, SmallRpcRoundtrip) {
  start_server();
  auto transport = connect();
  BulletClient client(transport.get(), h_.server().super_capability());
  auto cap = client.create(as_span("over a real socket"), 1);
  ASSERT_TRUE(cap.ok()) << cap.error().to_string();
  auto data = client.read_whole(cap.value());
  ASSERT_TRUE(data.ok());
  EXPECT_EQ("over a real socket", to_string(data.value()));
}

TEST_F(UdpTest, LargeMessagesAreFragmented) {
  start_server();
  auto transport = connect();
  BulletClient client(transport.get(), h_.server().super_capability());
  // 200 KB: 4 fragments each way.
  const Bytes data = payload(200 * 1024, 1);
  auto cap = client.create(data, 1);
  ASSERT_TRUE(cap.ok());
  auto read = client.read(cap.value());
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(equal(data, read.value()));
}

// Files whose READ replies (6-byte reply header, 4-byte length, bytes) end
// at and around fragment boundaries, including sizes where the file alone
// would fit a fragment but its 10 header bytes push the reply into the
// next one. Every byte is checked.
void round_trip_fragment_boundaries(std::uint32_t drop_one_in) {
  constexpr std::size_t kFrag = rpc::kFragmentPayload;
  constexpr std::size_t kHeaders = 10;
  BulletHarness::Options harness;
  harness.disk_blocks = 1 << 15;   // 16 MB per replica
  harness.cache_bytes = 8 << 20;  // holds the 4 MB file
  BulletHarness h(harness);
  rpc::UdpServerOptions options;
  options.drop_one_in = drop_one_in;
  options.loss_seed = 11;
  auto server = rpc::UdpServer::start(options);
  ASSERT_TRUE(server.ok());
  ASSERT_OK(server.value()->register_service(&h.server()));
  rpc::UdpClientOptions client_options;
  client_options.server_udp_port = server.value()->port();
  client_options.timeout_ms = 100;
  client_options.max_timeout_ms = 400;
  client_options.max_attempts = 30;
  auto transport = rpc::UdpTransport::connect(client_options);
  ASSERT_TRUE(transport.ok());
  BulletClient client(transport.value().get(), h.server().super_capability());

  std::vector<std::size_t> sizes = {0, 1, 1 << 20, 4 << 20};
  for (const std::size_t reply : {kFrag - 10, kFrag - 6, kFrag - 1, kFrag,
                                  kFrag + 1, 2 * kFrag}) {
    sizes.push_back(reply - kHeaders);
  }
  for (std::size_t straddle = 1; straddle < kHeaders; straddle += 4) {
    sizes.push_back(kFrag - kHeaders + straddle);  // reply just over kFrag
  }
  sizes.push_back(kFrag);
  for (const std::size_t size : sizes) {
    const Bytes data = payload(size, size + 1);
    auto cap = client.create(data, 1);
    ASSERT_TRUE(cap.ok()) << size << ": " << cap.error().to_string();
    auto read = client.read(cap.value());
    ASSERT_TRUE(read.ok()) << size << ": " << read.error().to_string();
    EXPECT_TRUE(equal(data, read.value())) << size;
    if (size > 20) {
      // A range whose reply straddles the first boundary too.
      auto range = client.read_range(cap.value(), 7,
                                     static_cast<std::uint32_t>(size - 20));
      ASSERT_TRUE(range.ok()) << size;
      EXPECT_TRUE(equal(ByteSpan(data).subspan(7, size - 20), range.value()))
          << size;
    }
  }
  if (drop_one_in > 0) {
    EXPECT_GT(server.value()->dropped(), 0u);
  }
  server.value()->stop();
}

TEST(UdpFragmentTest, BoundarySizesRoundTrip) {
  round_trip_fragment_boundaries(/*drop_one_in=*/0);
}

TEST(UdpFragmentTest, BoundarySizesRoundTripUnderLoss) {
  round_trip_fragment_boundaries(/*drop_one_in=*/20);
}

// Resident set of this process, in bytes.
std::uint64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t pages = 0, resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

// A client that abandons multi-fragment messages, or forges first
// fragments claiming 65535 fragments, costs the server at most one partial
// message per endpoint: thousands of them leave memory flat, and the next
// real request from the same endpoint is answered.
TEST_F(UdpTest, AbandonedFragmentsDoNotAccumulate) {
  start_server();
  testing::RawUdpEndpoint raw(udp_server_->port());
  const Bytes filler = payload(rpc::kFragmentPayload, 3);
  const std::uint64_t resident_before = resident_bytes();
  rpc::Fragment bogus;
  bogus.index = 0;
  bogus.count = 0xFFFF;
  bogus.payload = filler;
  // One datagram, its message id (bytes 4-11) rewritten for each send, so
  // the sender itself allocates nothing per datagram.
  Bytes datagram = bogus.encode();
  // Every 32 datagrams (~2 MB, well inside the server's socket buffer) a
  // round trip from a second client: the receive thread serves the socket
  // in order, so its reply means the bogus fragments before it were all
  // taken in rather than dropped by the kernel.
  auto probe = connect();
  rpc::Request ping;
  ping.target.port = Port(0xDEAD);  // answered unreachable, no service
  constexpr std::uint64_t kBogus = 3000;
  for (std::uint64_t id = 1; id <= kBogus; ++id) {
    for (int i = 0; i < 8; ++i) {
      datagram[4 + i] = static_cast<std::uint8_t>(id >> (8 * i));
    }
    raw.send(datagram);
    if (id % 32 == 0) {
      ASSERT_TRUE(probe->call(ping).ok());
    }
  }

  // Then a real two-fragment CREATE from the same endpoint.
  const Bytes data = payload(rpc::kFragmentPayload + 100, 4);
  rpc::Request request;
  request.target = h_.server().super_capability();
  request.opcode = wire::kCreate;
  Writer w;
  w.u8(1);
  w.blob(data);
  request.body = std::move(w).take();
  // The id a UdpTransport would stamp, so a retransmit of a create that
  // was answered but whose reply this loop missed does not run twice.
  request.message_id = rpc::fresh_message_id();
  const Bytes wire_request = request.encode();
  std::optional<Bytes> answer;
  for (int attempt = 0; attempt < 20 && !answer; ++attempt) {
    raw.send_message(kBogus + 1, wire_request);
    answer = raw.receive(kBogus + 1, 250);
  }
  ASSERT_TRUE(answer.has_value());
  auto reply = rpc::Reply::decode(std::move(*answer));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(ErrorCode::ok, reply.value().status);
  EXPECT_EQ(1u, h_.server().live_files());
  // Memory stays flat: one partial message per endpoint is a few MB.
  EXPECT_LT(resident_bytes(), resident_before + (64u << 20));
}

TEST_F(UdpTest, ErrorsCrossTheWire) {
  start_server();
  auto transport = connect();
  BulletClient client(transport.get(), h_.server().super_capability());
  Capability bogus = h_.server().super_capability();
  bogus.object = 424242;
  EXPECT_CODE(no_such_object, status_of(client.read(bogus)));
}

TEST_F(UdpTest, UnknownServicePortIsUnreachable) {
  start_server();
  auto transport = connect();
  rpc::Request request;
  request.target.port = Port(0xDEAD);
  auto reply = transport->call(request);
  ASSERT_TRUE(reply.ok());  // transport delivered; server rejected
  EXPECT_EQ(ErrorCode::unreachable, reply.value().status);
}

TEST_F(UdpTest, SurvivesPacketLoss) {
  rpc::UdpServerOptions options;
  options.drop_one_in = 6;  // drop ~17% of datagrams and of replies
  options.loss_seed = 42;
  start_server(options);
  // A lost fragment costs a whole-message retransmit, so give the client
  // plenty of attempts; the reply is the only acknowledgement.
  auto transport = connect(/*timeout_ms=*/60, /*max_attempts=*/15);
  BulletClient client(transport.get(), h_.server().super_capability());

  for (int i = 0; i < 10; ++i) {
    const Bytes data = payload(40 * 1024, i);  // several fragments
    auto cap = client.create(data, 1);
    ASSERT_TRUE(cap.ok()) << i << ": " << cap.error().to_string();
    auto read = client.read(cap.value());
    ASSERT_TRUE(read.ok()) << i;
    EXPECT_TRUE(equal(data, read.value())) << i;
  }
  EXPECT_GT(udp_server_->dropped(), 0u);
  EXPECT_GT(transport->retransmissions(), 0u);
}

TEST_F(UdpTest, DuplicateRequestsExecuteOnce) {
  // Drop requests and replies often enough that some creates are
  // retransmitted: a retransmit must never create a second file. While the
  // first copy is in flight the server drops it; once answered (the reply
  // lost on the way back), Bullet answers it from the record kept under the
  // message id UdpTransport stamped.
  rpc::UdpServerOptions options;
  options.drop_one_in = 3;
  options.loss_seed = 7;
  start_server(options);
  auto transport = connect(/*timeout_ms=*/60, /*max_attempts=*/20);
  BulletClient client(transport.get(), h_.server().super_capability());

  constexpr int kCreates = 20;
  for (int i = 0; i < kCreates; ++i) {
    auto cap = client.create(payload(1000, i), 1);
    ASSERT_TRUE(cap.ok()) << i;
  }
  // Exactly kCreates files exist, despite retransmissions.
  EXPECT_EQ(static_cast<std::uint64_t>(kCreates), h_.server().live_files());
  EXPECT_EQ(static_cast<std::uint64_t>(kCreates),
            testing::metric(h_.server(), "bullet_creates_total"));
  // At least one retransmit came after a lost reply and hit the record.
  EXPECT_GE(testing::metric(h_.server(), "bullet_repl_dedup_hits_total"), 1u);
}

// The server keeps no reply once it is sent, so a retransmit that
// arrives afterwards reaches the service again. A Bullet CREATE and a
// CREATE-DIR that carry a message id are answered from their service's
// record, byte for byte, instead of running twice.
TEST_F(UdpTest, RetransmitAfterTheReplyIsAnsweredFromTheRecord) {
  start_server();
  rpc::LoopbackTransport local;
  ASSERT_OK(local.register_service(&h_.server()));
  auto dir_server = dir::DirServer::start(
      BulletClient(&local, h_.server().super_capability()), dir::DirConfig());
  ASSERT_TRUE(dir_server.ok());
  rpc::SerializedService dir_service(dir_server.value().get());
  ASSERT_OK(udp_server_->register_service(&dir_service));
  testing::RawUdpEndpoint raw(udp_server_->port());
  // Send `request` as fragment message `id`, wait for the reply, then
  // retransmit it: both answers must be identical. The worker clears the
  // in-flight mark just after its send, so a retransmit landing in between
  // is dropped; retry as a client would until the service answers it.
  const auto send_twice = [&](const rpc::Request& request, std::uint64_t id) {
    const Bytes wire_request = request.encode();
    raw.send_message(id, wire_request);
    const std::optional<Bytes> first = raw.receive(id, 2000);
    ASSERT_TRUE(first.has_value());
    std::optional<Bytes> again;
    for (int attempt = 0; attempt < 20 && !again; ++attempt) {
      raw.send_message(id, wire_request);
      again = raw.receive(id, 500);
    }
    ASSERT_TRUE(again.has_value());
    EXPECT_TRUE(equal(*first, *again));
    auto reply = rpc::Reply::decode(*first);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(ErrorCode::ok, reply.value().status);
  };

  rpc::Request create;
  create.target = h_.server().super_capability();
  create.opcode = wire::kCreate;
  Writer w;
  w.u8(1);
  w.blob(payload(2000, 5));
  create.body = std::move(w).take();
  create.message_id = rpc::fresh_message_id();
  send_twice(create, 7);
  EXPECT_EQ(1u, h_.server().live_files());
  EXPECT_EQ(1u, testing::metric(h_.server(), "bullet_creates_total"));
  EXPECT_EQ(1u, testing::metric(h_.server(), "bullet_repl_dedup_hits_total"));

  rpc::Request create_dir;
  create_dir.target = dir_server.value()->super_capability();
  create_dir.opcode = dir::kCreateDir;
  create_dir.message_id = rpc::fresh_message_id();
  send_twice(create_dir, 8);
  EXPECT_EQ(1u, dir_server.value()->directory_count());
  EXPECT_EQ(2u, h_.server().live_files());  // the directory's one file
  // The answer to each retransmit came from its service's record.
  EXPECT_EQ(1u, dir_server.value()->record_hits());
  EXPECT_EQ(1u, testing::metric(h_.server(), "bullet_repl_dedup_hits_total"));
}

// The dir twin of DuplicateRequestsExecuteOnce: under request and reply
// loss every mutation still runs exactly once, so ENTER and REMOVE never
// see the effect of their own earlier copy (already_exists, not_found).
TEST_F(UdpTest, DirMutationsExecuteOnceUnderLoss) {
  rpc::LoopbackTransport local;
  ASSERT_OK(local.register_service(&h_.server()));
  auto dir_server = dir::DirServer::start(
      BulletClient(&local, h_.server().super_capability()), dir::DirConfig());
  ASSERT_TRUE(dir_server.ok());
  rpc::UdpServerOptions options;
  options.drop_one_in = 3;
  options.loss_seed = 7;
  auto udp = rpc::UdpServer::start(options);
  ASSERT_TRUE(udp.ok());
  rpc::SerializedService dir_service(dir_server.value().get());
  ASSERT_OK(udp.value()->register_service(&dir_service));
  rpc::UdpClientOptions client_options;
  client_options.server_udp_port = udp.value()->port();
  client_options.timeout_ms = 60;
  client_options.max_timeout_ms = 240;
  client_options.max_attempts = 20;
  auto transport = rpc::UdpTransport::connect(client_options);
  ASSERT_TRUE(transport.ok());
  dir::DirClient client(transport.value().get(),
                        dir_server.value()->super_capability());
  const Capability file = h_.server().super_capability();

  constexpr int kRounds = 12;
  for (int i = 0; i < kRounds; ++i) {
    auto dir = client.create_dir();
    ASSERT_TRUE(dir.ok()) << i << ": " << dir.error().to_string();
    ASSERT_OK(client.enter(dir.value(), "f", file));
    ASSERT_OK(client.remove(dir.value(), "f"));
  }
  EXPECT_GT(udp.value()->dropped(), 0u);
  EXPECT_GT(transport.value()->retransmissions(), 0u);
  // One directory per create, each backed by exactly one Bullet file.
  EXPECT_EQ(static_cast<std::size_t>(kRounds),
            dir_server.value()->directory_count());
  EXPECT_EQ(static_cast<std::uint64_t>(kRounds), h_.server().live_files());
  // At least one retransmit came after a lost reply and hit the record.
  EXPECT_GE(dir_server.value()->record_hits(), 1u);
  udp.value()->stop();
}

TEST_F(UdpTest, TimeoutWhenServerGone) {
  start_server();
  const std::uint16_t port = udp_server_->port();
  udp_server_->stop();
  rpc::UdpClientOptions options;
  options.server_udp_port = port;
  options.timeout_ms = 30;
  options.max_attempts = 2;
  auto transport = rpc::UdpTransport::connect(options);
  ASSERT_TRUE(transport.ok());
  rpc::Request request;
  request.target = h_.server().super_capability();
  request.opcode = wire::kSize;
  EXPECT_CODE(unreachable, status_of(transport.value()->call(request)));
}

TEST_F(UdpTest, StartRejectsZeroWorkers) {
  rpc::UdpServerOptions options;
  options.workers = 0;
  EXPECT_CODE(bad_argument, status_of(rpc::UdpServer::start(options)));
}

TEST_F(UdpTest, ConnectRequiresPort) {
  EXPECT_CODE(bad_argument,
              status_of(rpc::UdpTransport::connect(rpc::UdpClientOptions{})));
}

// --- retransmit backoff schedule (pure function, no sockets) ------------

TEST(UdpBackoffTest, ScheduleIsDeterministic) {
  rpc::UdpClientOptions options;
  options.timeout_ms = 250;
  for (int attempt = 0; attempt < 8; ++attempt) {
    EXPECT_EQ(rpc::backoff_timeout_ms(options, attempt),
              rpc::backoff_timeout_ms(options, attempt))
        << "attempt " << attempt;
  }
}

TEST(UdpBackoffTest, GrowsExponentiallyBelowTheCap) {
  rpc::UdpClientOptions options;
  options.timeout_ms = 100;
  options.max_timeout_ms = 100000;  // cap far away: observe pure growth
  int prev = 0;
  for (int attempt = 0; attempt < 6; ++attempt) {
    const int t = rpc::backoff_timeout_ms(options, attempt);
    const int nominal = 100 << attempt;
    // Jitter stays inside +/-25% of the doubled nominal...
    EXPECT_GE(t, nominal - nominal / 4) << "attempt " << attempt;
    EXPECT_LE(t, nominal + nominal / 4) << "attempt " << attempt;
    // ...so the schedule is strictly increasing.
    EXPECT_GT(t, prev) << "attempt " << attempt;
    prev = t;
  }
}

TEST(UdpBackoffTest, CapIsRespected) {
  rpc::UdpClientOptions options;
  options.timeout_ms = 250;
  options.max_timeout_ms = 1000;
  for (int attempt = 0; attempt < 40; ++attempt) {
    EXPECT_LE(rpc::backoff_timeout_ms(options, attempt), 1000);
    EXPECT_GE(rpc::backoff_timeout_ms(options, attempt), 1);
  }
  // Deep attempts saturate near the cap (within the jitter band), never
  // overflow or wrap.
  EXPECT_GE(rpc::backoff_timeout_ms(options, 39), 750);
}

TEST(UdpBackoffTest, SeedChangesTheJitterNotTheEnvelope) {
  rpc::UdpClientOptions a, b;
  a.timeout_ms = b.timeout_ms = 200;
  a.max_timeout_ms = b.max_timeout_ms = 100000;
  a.backoff_seed = 1;
  b.backoff_seed = 2;
  bool differs = false;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const int ta = rpc::backoff_timeout_ms(a, attempt);
    const int tb = rpc::backoff_timeout_ms(b, attempt);
    if (ta != tb) differs = true;
    const int nominal = 200 << attempt;
    EXPECT_GE(tb, nominal - nominal / 4);
    EXPECT_LE(tb, nominal + nominal / 4);
  }
  EXPECT_TRUE(differs) << "different seeds produced identical schedules";
}

TEST(UdpBackoffTest, PropertyClampedEnvelopeMonotoneDeterministic) {
  // Randomized sweep over option sets: for every (base, cap, seed) the
  // schedule stays inside [1, cap], tracks the +/-25% jitter envelope of
  // the capped nominal, grows strictly while successive envelopes are
  // disjoint (i.e. until the ceiling), and replays identically.
  Rng meta(0xB0FF);
  for (int set = 0; set < 50; ++set) {
    rpc::UdpClientOptions options;
    options.timeout_ms = static_cast<int>(meta.next_range(1, 500));
    options.max_timeout_ms = static_cast<int>(meta.next_range(0, 8000));
    options.backoff_seed = meta.next();
    const std::int64_t base = std::max(1, options.timeout_ms);
    const std::int64_t cap =
        std::max<std::int64_t>(base, options.max_timeout_ms);
    std::int64_t prev = 0;
    std::int64_t prev_hi = 0;
    for (int attempt = 0; attempt <= 40; ++attempt) {
      const int t = rpc::backoff_timeout_ms(options, attempt);
      ASSERT_GE(t, 1) << "set " << set << " attempt " << attempt;
      ASSERT_LE(t, cap) << "set " << set << " attempt " << attempt;
      const std::int64_t nominal =
          std::min(cap, base << std::min(attempt, 20));
      const std::int64_t lo = nominal - nominal / 4;
      const std::int64_t hi = lo + nominal / 2;
      ASSERT_GE(t, std::max<std::int64_t>(1, lo))
          << "set " << set << " attempt " << attempt;
      ASSERT_LE(t, std::min(cap, hi))
          << "set " << set << " attempt " << attempt;
      if (attempt > 0 && lo > prev_hi) {
        ASSERT_GT(t, prev) << "set " << set << " attempt " << attempt;
      }
      ASSERT_EQ(t, rpc::backoff_timeout_ms(options, attempt))
          << "schedule not reproducible";
      prev = t;
      prev_hi = std::min(cap, hi);
    }
  }
}

TEST(UdpBackoffTest, DegenerateOptionsStaySane) {
  rpc::UdpClientOptions options;
  options.timeout_ms = 0;  // misconfigured: treated as 1 ms base
  options.max_timeout_ms = 0;
  for (int attempt = 0; attempt < 4; ++attempt) {
    EXPECT_EQ(1, rpc::backoff_timeout_ms(options, attempt));
  }
  EXPECT_EQ(1, rpc::backoff_timeout_ms(options, -3));  // clamped attempt
}

TEST_F(UdpTest, TwoClientsOneServer) {
  start_server();
  auto t1 = connect();
  auto t2 = connect();
  BulletClient c1(t1.get(), h_.server().super_capability());
  BulletClient c2(t2.get(), h_.server().super_capability());
  auto cap = c1.create(as_span("shared"), 1);
  ASSERT_TRUE(cap.ok());
  // The capability is the whole story: any client holding it can read.
  auto via_c2 = c2.read_whole(cap.value());
  ASSERT_TRUE(via_c2.ok());
  EXPECT_EQ("shared", to_string(via_c2.value()));
}

// --- the receive thread's fast path ------------------------------------------

// A READ request for `cap`, as a client puts it on the wire.
Bytes read_request(const Capability& cap) {
  rpc::Request request;
  request.target = cap;
  request.opcode = wire::kRead;
  return request.encode();
}

// The file bytes of an encoded READ reply.
Bytes read_reply_data(const Bytes& wire_reply) {
  auto reply = rpc::Reply::decode(wire_reply);
  EXPECT_TRUE(reply.ok());
  if (!reply.ok()) return {};
  EXPECT_EQ(ErrorCode::ok, reply.value().status);
  Reader r(reply.value().body);
  auto bytes = r.blob();
  EXPECT_TRUE(bytes.ok());
  return bytes.ok() ? Bytes(bytes.value().begin(), bytes.value().end())
                    : Bytes{};
}

class UdpFastPathTest : public UdpTest {
 protected:
  // Files created before the server boots again, so each READ below starts
  // as a miss; then the front door, its counters attached.
  void SetUp() override {
    small_ = payload(4096, 1);
    large_ = payload(64 * 1024, 2);
    auto small = h_.server().create(small_, 1);
    auto large = h_.server().create(large_, 1);
    ASSERT_TRUE(small.ok() && large.ok());
    small_cap_ = small.value();
    large_cap_ = large.value();
    h_.reboot();
    start_server();
    h_.server().attach_io_counters(&udp_server_->io_counters());
  }
  void TearDown() override {
    if (udp_server_ != nullptr) udp_server_->stop();
    h_.server().attach_io_counters(nullptr);
  }

  std::uint64_t wakeups() {
    return testing::metric(h_.server(), "bullet_worker_wakeups_total");
  }
  std::uint64_t fast() {
    return testing::metric(h_.server(), "bullet_rx_fast_path_total");
  }

  Bytes small_, large_;
  Capability small_cap_, large_cap_;
};

TEST_F(UdpFastPathTest, SmallHitIsAnsweredWithoutAWorker) {
  // The first READ misses and fills the cache on a worker.
  {
    auto warm = connect();
    auto miss = BulletClient(warm.get(), h_.server().super_capability())
                    .read(small_cap_);
    ASSERT_TRUE(miss.ok());
    EXPECT_TRUE(equal(small_, miss.value()));
  }
  EXPECT_EQ(0u, fast());
  const std::uint64_t wakeups_before = wakeups();
  ASSERT_GE(wakeups_before, 1u);

  // The hit, from an endpoint with nothing in flight: answered on the
  // receive thread, no worker woken.
  auto transport = connect();
  BulletClient client(transport.get(), h_.server().super_capability());
  auto hit = client.read(small_cap_);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(equal(small_, hit.value()));
  EXPECT_EQ(1u, fast());
  EXPECT_EQ(wakeups_before, wakeups());
  EXPECT_EQ(1u, testing::metric(h_.server(), "bullet_cache_hits_total"));

  // A forged capability is refused on the fast path too.
  Capability forged = small_cap_;
  forged.check ^= 1;
  EXPECT_CODE(bad_capability, status_of(client.read(forged)));
  EXPECT_EQ(2u, fast());
  EXPECT_EQ(wakeups_before, wakeups());
}

TEST_F(UdpFastPathTest, TwoFragmentHitAndMissGoThroughThePool) {
  auto transport = connect();
  BulletClient client(transport.get(), h_.server().super_capability());
  for (int i = 0; i < 2; ++i) {  // a miss, then a hit
    auto read = client.read(large_cap_);
    ASSERT_TRUE(read.ok()) << i;
    EXPECT_TRUE(equal(large_, read.value())) << i;
  }
  EXPECT_EQ(1u, testing::metric(h_.server(), "bullet_cache_hits_total"));
  // A small miss goes to the pool as well.
  auto miss = client.read(small_cap_);
  ASSERT_TRUE(miss.ok());
  EXPECT_TRUE(equal(small_, miss.value()));
  // Whatever the receive thread does not answer, a worker does.
  EXPECT_EQ(0u, fast());
  EXPECT_GE(wakeups(), 1u);
}

// A miss parked on the disk owns its endpoint: a hit sent after it from the
// same endpoint waits behind it on the pool instead of overtaking it on the
// receive thread, and the two replies come back in request order.
TEST(UdpFastPathOrderTest, HitWaitsBehindAParkedMissFromItsEndpoint) {
  MemDisk main(512, 4096), mirror_disk(512, 4096);
  ASSERT_OK(BulletServer::format(main, 64));
  ASSERT_OK(mirror_disk.restore(main.snapshot()));
  testing::GatedDisk gate(&main);
  auto mirror = MirroredDisk::create({&gate, &mirror_disk});
  ASSERT_TRUE(mirror.ok());
  MirroredDisk disk = std::move(mirror).value();
  BulletConfig config;
  config.cache_bytes = 1 << 20;
  config.io_threads = 1;
  const Bytes cold_data = payload(3000, 3);
  const Bytes hot_data = payload(2000, 4);
  Capability cold, hot;
  {
    auto server = BulletServer::start(&disk, config);
    ASSERT_TRUE(server.ok());
    auto c = server.value()->create(cold_data, 2);
    auto h = server.value()->create(hot_data, 2);
    ASSERT_TRUE(c.ok() && h.ok());
    cold = c.value();
    hot = h.value();
  }
  // Fresh boot: the cold file misses; the hot one is read in once.
  auto started = BulletServer::start(&disk, config);
  ASSERT_TRUE(started.ok());
  BulletServer& server = *started.value();
  ASSERT_TRUE(server.read(hot).ok());
  std::uint32_t cold_block = 0;
  for (const auto& object : server.list_objects()) {
    if (object.object == cold.object) cold_block = object.first_block;
  }
  ASSERT_NE(0u, cold_block);
  gate.arm(cold_block, (cold_data.size() + 511) / 512);

  auto udp = rpc::UdpServer::start(rpc::UdpServerOptions{});
  ASSERT_TRUE(udp.ok());
  ASSERT_OK(udp.value()->register_service(&server));
  server.attach_io_counters(&udp.value()->io_counters());
  testing::RawUdpEndpoint raw(udp.value()->port());

  raw.send_message(1, read_request(cold));
  gate.wait_held(1);
  raw.send_message(2, read_request(hot));
  EXPECT_FALSE(raw.receive(2, 100).has_value());  // queued, not answered
  EXPECT_EQ(0u, testing::metric(server, "bullet_rx_fast_path_total"));

  gate.release();
  // receive() drops datagrams of other messages, so the hit's reply
  // arriving first would be lost here and its receive below would fail.
  const std::optional<Bytes> first = raw.receive(1, 2000);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(equal(cold_data, read_reply_data(*first)));
  const std::optional<Bytes> second = raw.receive(2, 2000);
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(equal(hot_data, read_reply_data(*second)));
  EXPECT_EQ(0u, testing::metric(server, "bullet_rx_fast_path_total"));

  // Once the endpoint is idle again its hits take the fast path. The
  // worker clears its marks just after its send, so a request sent the
  // moment a reply lands may still find the endpoint busy and queue: send
  // hits until one is answered on the receive thread.
  for (std::uint64_t id = 3;
       id < 23 && testing::metric(server, "bullet_rx_fast_path_total") == 0;
       ++id) {
    raw.send_message(id, read_request(hot));
    const std::optional<Bytes> again = raw.receive(id, 2000);
    ASSERT_TRUE(again.has_value());
    EXPECT_TRUE(equal(hot_data, read_reply_data(*again)));
  }
  EXPECT_EQ(1u, testing::metric(server, "bullet_rx_fast_path_total"));
  udp.value()->stop();
  server.attach_io_counters(nullptr);
}

// A decorator that keeps the default try_handle_now: the requests it wraps
// all run on the pool, even the cache hits its inner service would answer
// on the receive thread.
class ThreadRecordingService final : public rpc::Service {
 public:
  explicit ThreadRecordingService(rpc::Service* inner) : inner_(inner) {}
  Port public_port() const noexcept override { return inner_->public_port(); }
  rpc::Reply handle(const rpc::Request& request) override {
    return inner_->handle(request);
  }
  void handle_async(const rpc::Request& request,
                    rpc::Responder respond) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      threads_.insert(std::this_thread::get_id());
      ++calls_;
    }
    inner_->handle_async(request, std::move(respond));
  }
  std::set<std::thread::id> threads() {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_;
  }
  int calls() {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }

 private:
  rpc::Service* inner_;
  std::mutex mu_;
  std::set<std::thread::id> threads_;
  int calls_ = 0;
};

TEST(UdpFastPathDecoratorTest, WrapperWithoutTheHookRunsEveryRequestOnAWorker) {
  BulletHarness h;
  ThreadRecordingService wrapper(&h.server());
  rpc::UdpServerOptions options;
  options.workers = 1;  // so every request the pool runs shares one thread
  auto udp = rpc::UdpServer::start(options);
  ASSERT_TRUE(udp.ok());
  ASSERT_OK(udp.value()->register_service(&wrapper));
  h.server().attach_io_counters(&udp.value()->io_counters());
  rpc::UdpClientOptions client_options;
  client_options.server_udp_port = udp.value()->port();
  auto transport = rpc::UdpTransport::connect(client_options);
  ASSERT_TRUE(transport.ok());
  BulletClient client(transport.value().get(), h.server().super_capability());

  const Bytes data = payload(4096, 5);
  auto cap = client.create(data, 1);
  ASSERT_TRUE(cap.ok());
  constexpr int kReads = 5;  // all cache hits
  for (int i = 0; i < kReads; ++i) {
    auto read = client.read(cap.value());
    ASSERT_TRUE(read.ok());
    EXPECT_TRUE(equal(data, read.value()));
  }
  EXPECT_EQ(1 + kReads, wrapper.calls());
  EXPECT_EQ(1u, wrapper.threads().size());
  EXPECT_EQ(0u, testing::metric(h.server(), "bullet_rx_fast_path_total"));
  EXPECT_EQ(static_cast<std::uint64_t>(kReads),
            testing::metric(h.server(), "bullet_cache_hits_total"));
  udp.value()->stop();
  h.server().attach_io_counters(nullptr);
}

}  // namespace
}  // namespace bullet
