// Deterministic fuzzing of the wire surfaces: random and mutated bytes fed
// to every decoder and every service dispatcher. The property is simple —
// no crash, no hang, and server state stays consistent no matter what
// arrives on the wire.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>

#include "bullet/client.h"
#include "bullet/server.h"
#include "bullet/wire.h"
#include "cluster/placement.h"
#include "dir/server.h"
#include "logsvc/server.h"
#include "nfsbase/server.h"
#include "obs/trace.h"
#include "rpc/message.h"
#include "rpc/transport.h"
#include "rpc/udp_transport.h"
#include "tests/test_util.h"

namespace bullet {
namespace {

using testing::BulletHarness;
using testing::payload;

TEST(FuzzTest, RequestDecoderSurvivesGarbage) {
  Rng rng(0xF122);
  for (int i = 0; i < 5000; ++i) {
    Bytes junk(rng.next_below(200));
    rng.fill(junk);
    (void)rpc::Request::decode(junk);  // must not crash
    (void)rpc::Reply::decode(junk);
  }
}

TEST(FuzzTest, RequestDecoderSurvivesTruncations) {
  rpc::Request request;
  request.target.port = Port(0x1234);
  request.opcode = wire::kCreate;
  request.body = payload(300, 1);
  const Bytes wire_bytes = request.encode();
  for (std::size_t cut = 0; cut < wire_bytes.size(); ++cut) {
    Bytes truncated(wire_bytes.begin(),
                    wire_bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    (void)rpc::Request::decode(truncated);
  }
}

// Seeded mutations of valid requests in both trailer forms. decode() and
// the O(1) peek_deadline_us() the UDP admission path uses must agree on
// every wire: the peeked deadline is the decoded one when decode accepts,
// and 0 when it rejects.
TEST(FuzzTest, TrailerReadersAgreeOnMutatedRequests) {
  Rng rng(0x7A11);
  // The body-length field is the last u32 of a bodiless, trailer-less wire.
  const std::size_t length_at = rpc::Request{}.encode().size() - 4;
  int accepted = 0;
  int accepted_with_deadline = 0;
  constexpr int kTrials = 20000;
  for (int trial = 0; trial < kTrials; ++trial) {
    rpc::Request request;
    request.target.port = Port(rng.next() & 0xFFFFFFFFFFFFull);
    request.opcode = static_cast<std::uint16_t>(rng.next());
    request.body = payload(rng.next_below(80), trial);
    if (rng.next_below(2) == 0) {
      // Each field zero or not on its own, deadline set at least often
      // enough that accepted nonzero deadlines are common.
      if (rng.next_below(2) == 0) request.trace_id = rng.next();
      if (rng.next_below(4) != 0) request.deadline_us = rng.next_below(1u << 30);
      if (rng.next_below(2) == 0) request.message_id = rng.next();
    }
    Bytes wire = request.encode();
    switch (rng.next_below(8)) {
      case 0:
        wire[rng.next_below(wire.size())] ^=
            static_cast<std::uint8_t>(1u << rng.next_below(8));
        break;
      case 1:
        wire.resize(rng.next_below(wire.size() + 1));
        break;
      case 2: {
        Bytes extra(rng.next_below(40) + 1);
        rng.fill(extra);
        append(wire, extra);
        break;
      }
      case 3: {
        // A body length near the real one, off by a trailer or a few bytes.
        static constexpr std::int64_t kShifts[] = {-25, -24, -23, -8, -1,
                                                   1,   8,   16,  23, 24, 25};
        const std::int64_t len =
            static_cast<std::int64_t>(request.body.size()) +
            kShifts[rng.next_below(std::size(kShifts))];
        const auto v = static_cast<std::uint32_t>(std::max<std::int64_t>(0, len));
        for (std::size_t i = 0; i < 4; ++i) {
          wire[length_at + i] = static_cast<std::uint8_t>(v >> (8 * i));
        }
        break;
      }
      case 4:
        wire[length_at + rng.next_below(4)] =
            static_cast<std::uint8_t>(rng.next());
        break;
      default:
        break;  // as encoded
    }
    const auto decoded = rpc::Request::decode(wire);
    const std::uint64_t peeked = rpc::Request::peek_deadline_us(wire);
    if (decoded.ok()) {
      ASSERT_EQ(decoded.value().deadline_us, peeked) << "trial " << trial;
      ++accepted;
      if (peeked != 0) ++accepted_with_deadline;
    } else {
      ASSERT_EQ(0u, peeked) << "trial " << trial;
    }
  }
  // The agreement check must not be vacuous.
  EXPECT_GT(accepted, kTrials / 4);
  EXPECT_GT(accepted_with_deadline, kTrials / 10);
}

// A count the rest of a manifest cannot hold is corrupt, and must not drive
// a reserve of up to 4G entries (a 64 GiB vector from a 12-byte body):
// resync and the rebalancer decode this body from a peer's reply, so one
// spoofed reply must not be able to end the process.
TEST(FuzzTest, ManifestCountsBeyondThePayloadAreCorrupt) {
  const auto decode = [](const Bytes& body) {
    Reader r(body);
    return testing::status_of(wire::ReplManifest::decode(r));
  };
  Writer files;
  files.u64(1);
  files.u32(0xFFFFFFFF);
  EXPECT_CODE(corrupt, decode(files.data()));
  Writer tombstones;
  tombstones.u64(1);
  tombstones.u32(0);
  tombstones.u32(0xFFFFFFFF);
  EXPECT_CODE(corrupt, decode(tombstones.data()));
  Writer dedups;
  dedups.u64(1);
  dedups.u32(0);
  dedups.u32(0);
  dedups.u32(0xFFFFFFFF);
  EXPECT_CODE(corrupt, decode(dedups.data()));
  // One file more than the bytes that follow can hold.
  Writer short_files;
  short_files.u64(1);
  short_files.u32(2);
  short_files.bytes(Bytes(16 + 8, 0));
  EXPECT_CODE(corrupt, decode(short_files.data()));
}

// One seeded mutation of a valid encoding: a bit flip, a truncation, an
// extension, or an edit of one of its u32 count fields (little-endian, at
// the offsets in `counts`) to a nearby or a random value.
// An empty encoding gets no flip, and one without count fields no count
// edit.
Bytes mutate(Rng& rng, Bytes wire, const std::vector<std::size_t>& counts) {
  switch (rng.next_below(5)) {
    case 0:
      if (wire.empty()) break;
      wire[rng.next_below(wire.size())] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
      break;
    case 1:
      wire.resize(rng.next_below(wire.size() + 1));
      break;
    case 2: {
      Bytes extra(rng.next_below(40) + 1);
      rng.fill(extra);
      append(wire, extra);
      break;
    }
    case 3: {
      if (counts.empty()) break;
      const std::size_t at = counts[rng.next_below(counts.size())];
      std::uint32_t v = 0;
      for (std::size_t i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>(wire[at + i]) << (8 * i);
      }
      static constexpr std::int64_t kShifts[] = {-2, -1, 1, 2};
      v = rng.next_below(4) == 0
              ? static_cast<std::uint32_t>(rng.next())
              : static_cast<std::uint32_t>(std::max<std::int64_t>(
                    0, v + kShifts[rng.next_below(std::size(kShifts))]));
      for (std::size_t i = 0; i < 4; ++i) {
        wire[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
      }
      break;
    }
    default:
      break;  // as encoded
  }
  return wire;
}

// Decode a mutant. An accepted one must re-encode to exactly the bytes the
// decoder consumed: anything else means the decoder read a value it cannot
// represent, or skipped bytes. Returns whether the mutant was accepted.
template <typename T>
bool accepted_and_round_trips(const Bytes& wire, int trial) {
  Reader r(wire);
  std::optional<Result<T>> decoded;
  EXPECT_NO_THROW(decoded.emplace(T::decode(r))) << "trial " << trial;
  if (!decoded.has_value() || !decoded->ok()) return false;
  Writer again;
  decoded->value().encode(again);
  const std::size_t consumed = wire.size() - r.remaining();
  EXPECT_TRUE(equal(ByteSpan(wire.data(), consumed), again.data()))
      << "trial " << trial;
  return true;
}

TEST(FuzzTest, ManifestDecoderRoundTripsMutatedManifests) {
  Rng rng(0x3A41);
  int accepted = 0;
  constexpr int kTrials = 5000;
  for (int trial = 0; trial < kTrials; ++trial) {
    wire::ReplManifest m;
    m.role = rng.next_below(3);
    for (std::uint64_t i = rng.next_below(9); i > 0; --i) {
      m.files.push_back({static_cast<std::uint32_t>(rng.next()), rng.next(),
                         static_cast<std::uint32_t>(rng.next())});
    }
    for (std::uint64_t i = rng.next_below(6); i > 0; --i) {
      m.tombstones.push_back(
          {static_cast<std::uint32_t>(rng.next()), rng.next()});
    }
    for (std::uint64_t i = rng.next_below(6); i > 0; --i) {
      m.dedups.push_back(
          {rng.next(), static_cast<std::uint32_t>(rng.next()), rng.next()});
    }
    Writer w;
    m.encode(w);
    const std::size_t files_at = 8;
    const std::size_t tombs_at = files_at + 4 + 16 * m.files.size();
    const std::size_t dedups_at = tombs_at + 4 + 12 * m.tombstones.size();
    const Bytes wire = mutate(rng, w.data(), {files_at, tombs_at, dedups_at});
    if (accepted_and_round_trips<wire::ReplManifest>(wire, trial)) ++accepted;
    if (::testing::Test::HasFailure()) return;
  }
  // The round-trip check must not be vacuous.
  EXPECT_GT(accepted, kTrials / 4);
}

TEST(FuzzTest, PlacementMapDecoderRoundTripsMutatedMaps) {
  Rng rng(0x9C1A);
  int accepted = 0;
  constexpr int kTrials = 5000;
  for (int trial = 0; trial < kTrials; ++trial) {
    cluster::PlacementMap map;
    map.epoch = rng.next();
    map.vnodes = static_cast<std::uint32_t>(rng.next_range(1, 256));
    std::vector<std::size_t> counts{12};
    std::size_t at = 16;
    for (std::uint64_t i = rng.next_below(7); i > 0; --i) {
      cluster::ShardInfo shard;
      shard.id = static_cast<std::uint32_t>(map.shards.size() + 1);
      for (std::uint64_t j = rng.next_below(5); j > 0; --j) {
        shard.endpoints.push_back(rng.next());
      }
      counts.push_back(at + 4);
      at += 8 + 8 * shard.endpoints.size();
      map.shards.push_back(std::move(shard));
    }
    Writer w;
    map.encode(w);
    const Bytes wire = mutate(rng, w.data(), counts);
    if (accepted_and_round_trips<cluster::PlacementMap>(wire, trial)) {
      ++accepted;
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(accepted, kTrials / 4);
}

// Answers every call with one canned reply body: a trace dump as a
// corrupted or hostile daemon might send it.
class CannedTransport final : public rpc::Transport {
 public:
  Result<rpc::Reply> call(const rpc::Request&) override {
    return rpc::Reply::success(body);
  }
  Bytes body;
};

// Seeded mutations of a kTraceDump reply (u32 count ‖ count spans), decoded
// by BulletClient::trace_dump and named by obs::stage_name, as `bullet_tool
// trace` does. The dump is accepted exactly when the body holds `count`
// spans, and an accepted dump re-encodes to the bytes it was read from.
TEST(FuzzTest, TraceDumpDecoderRoundTripsMutatedDumps) {
  Rng rng(0x7ACE);
  CannedTransport transport;
  BulletClient client(&transport, Capability{});
  int accepted = 0;
  constexpr int kTrials = 5000;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<wire::TraceSpan> spans(rng.next_below(9));
    for (wire::TraceSpan& span : spans) {
      span.trace_id = rng.next();
      span.seq = rng.next_below(4);
      span.opcode = static_cast<std::uint16_t>(rng.next_below(20));
      span.stage = static_cast<std::uint8_t>(rng.next_below(12));
      span.start_ns = rng.next();
      span.dur_ns = rng.next();
    }
    Writer w;
    w.u32(static_cast<std::uint32_t>(spans.size()));
    for (const wire::TraceSpan& span : spans) span.encode(w);
    transport.body = mutate(rng, w.data(), {0});
    const Bytes& body = transport.body;

    std::optional<Result<std::vector<wire::TraceSpan>>> dump;
    EXPECT_NO_THROW(dump.emplace(client.trace_dump(0, 1024))) << trial;
    if (!dump.has_value()) return;
    std::uint32_t count = 0;
    for (std::size_t i = 0; i < 4 && i < body.size(); ++i) {
      count |= static_cast<std::uint32_t>(body[i]) << (8 * i);
    }
    const bool fits = body.size() >= 4 &&
                      count <= (body.size() - 4) / wire::TraceSpan::kWireSize;
    ASSERT_EQ(fits, dump->ok()) << "trial " << trial;
    if (!fits) continue;
    ++accepted;
    ASSERT_EQ(count, dump->value().size()) << "trial " << trial;
    Writer again;
    again.u32(count);
    for (const wire::TraceSpan& span : dump->value()) {
      span.encode(again);
      EXPECT_NE(nullptr, obs::stage_name(static_cast<obs::Stage>(span.stage)));
    }
    ASSERT_TRUE(equal(ByteSpan(body.data(), again.data().size()), again.data()))
        << "trial " << trial;
  }
  EXPECT_GT(accepted, kTrials / 4);
}

TEST(FuzzTest, CapabilityParserSurvivesGarbage) {
  Rng rng(0xF123);
  for (int i = 0; i < 5000; ++i) {
    std::string text;
    const std::size_t n = rng.next_below(60);
    for (std::size_t j = 0; j < n; ++j) {
      text.push_back(static_cast<char>(rng.next_range(32, 126)));
    }
    (void)Capability::from_string(text);
  }
}

// Feed a dispatcher random opcodes with random bodies and verify the
// server still works afterwards.
template <typename Server>
void fuzz_dispatch(Server& server, const Capability& valid_target,
                   std::uint64_t seed, int rounds) {
  Rng rng(seed);
  for (int i = 0; i < rounds; ++i) {
    rpc::Request request;
    // Mix of valid target, mutated target, and random target.
    const std::uint64_t kind = rng.next_below(3);
    if (kind == 0) {
      request.target = valid_target;
    } else if (kind == 1) {
      request.target = valid_target;
      request.target.check ^= rng.next() & kMask48;
      request.target.object ^= static_cast<std::uint32_t>(rng.next_below(16));
    } else {
      request.target.port = Port(rng.next());
      request.target.object = static_cast<std::uint32_t>(rng.next());
      request.target.rights = static_cast<std::uint8_t>(rng.next());
      request.target.check = rng.next() & kMask48;
    }
    request.opcode = static_cast<std::uint16_t>(rng.next_below(20));
    request.body.resize(rng.next_below(300));
    rng.fill(request.body);
    const rpc::Reply reply = server.handle(request);  // must not crash
    (void)reply;
  }
}

TEST(FuzzTest, BulletDispatcherSurvives) {
  BulletHarness h;
  auto cap = h.server().create(payload(1000, 1), 1);
  ASSERT_TRUE(cap.ok());
  fuzz_dispatch(h.server(), h.server().super_capability(), 0xB011, 4000);
  // Server state still consistent; legitimate requests still served.
  EXPECT_EQ(0u, h.server().check_consistency().repairs());
  EXPECT_TRUE(equal(payload(1000, 1), h.server().read(cap.value()).value()));
  // Reboot works and the disks pass fsck.
  h.reboot();
  EXPECT_EQ(0u, h.server().boot_report().repairs());
}

TEST(FuzzTest, DirDispatcherSurvives) {
  BulletHarness h;
  rpc::LoopbackTransport transport;
  ASSERT_OK(transport.register_service(&h.server()));
  BulletClient storage(&transport, h.server().super_capability());
  auto dir_server = dir::DirServer::start(storage, dir::DirConfig());
  ASSERT_TRUE(dir_server.ok());
  auto root = dir_server.value()->create_dir();
  ASSERT_TRUE(root.ok());
  auto file = storage.create(as_span("keep"), 1);
  ASSERT_TRUE(file.ok());
  ASSERT_OK(dir_server.value()->enter(root.value(), "keep", file.value()));

  fuzz_dispatch(*dir_server.value(), dir_server.value()->super_capability(),
                0xD122, 4000);
  auto still = dir_server.value()->lookup(root.value(), "keep");
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(file.value(), still.value());
}

TEST(FuzzTest, NfsDispatcherSurvives) {
  MemDisk disk(8192, 256);
  ASSERT_OK(nfsbase::NfsServer::format(disk, 32));
  auto server = nfsbase::NfsServer::start(&disk, nfsbase::NfsConfig());
  ASSERT_TRUE(server.ok());
  auto handle = server.value()->create("keep");
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(server.value()->write(handle.value(), 0, payload(5000, 1)).ok());

  fuzz_dispatch(*server.value(), server.value()->super_capability(), 0x4F5,
                4000);
  auto read = server.value()->read(handle.value(), 0, 5000);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(equal(payload(5000, 1), read.value()));
}

TEST(FuzzTest, LogDispatcherSurvives) {
  MemDisk disk(512, 1024);
  ASSERT_OK(logsvc::LogServer::format(disk, 16));
  auto server = logsvc::LogServer::start(&disk, logsvc::LogConfig());
  ASSERT_TRUE(server.ok());
  auto log = server.value()->create_log();
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE(server.value()->append(log.value(), as_span("entry")).ok());

  fuzz_dispatch(*server.value(), server.value()->super_capability(), 0x10C,
                4000);
  EXPECT_EQ(5u, server.value()->log_size(log.value()).value());
}

TEST(FuzzTest, DirectoryFileDecoderSurvivesGarbage) {
  Rng rng(0xD1F);
  for (int i = 0; i < 3000; ++i) {
    Bytes junk(rng.next_below(400));
    rng.fill(junk);
    (void)dir::decode_directory(junk);
  }
}

// Seeded mutations of valid directory files. An accepted mutant must
// re-encode to exactly its bytes (the decoder insists on consuming them
// all).
TEST(FuzzTest, DirectoryDecoderRoundTripsMutatedDirectories) {
  Rng rng(0xD17E);
  int accepted = 0;
  constexpr int kTrials = 5000;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<dir::DirEntry> entries;
    std::vector<std::size_t> counts{0};
    std::size_t at = 4;
    for (std::uint64_t i = rng.next_below(6); i > 0; --i) {
      dir::DirEntry e;
      e.name = std::string(rng.next_below(12), 'x');
      for (char& c : e.name) c = static_cast<char>(rng.next());
      e.target.port = Port(rng.next() & kMask48);
      e.target.object = static_cast<std::uint32_t>(rng.next());
      e.target.rights = static_cast<std::uint8_t>(rng.next());
      e.target.check = rng.next() & kMask48;
      counts.push_back(at);
      at += 4 + e.name.size() + Capability::kWireSize;
      entries.push_back(std::move(e));
    }
    const Bytes wire = mutate(rng, dir::encode_directory(entries), counts);
    std::optional<Result<std::vector<dir::DirEntry>>> decoded;
    EXPECT_NO_THROW(decoded.emplace(dir::decode_directory(wire)))
        << "trial " << trial;
    if (!decoded.has_value() || !decoded->ok()) continue;
    ++accepted;
    EXPECT_TRUE(equal(wire, dir::encode_directory(decoded->value())))
        << "trial " << trial;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(accepted, kTrials / 4);
}

// Seeded mutations of valid edit scripts, framed as a CREATE-FROM body
// frames them (u32 count, then the edits). An accepted script re-encodes to
// the bytes it consumed, and apply_edits either refuses it or produces
// exactly the length the edits imply.
TEST(FuzzTest, EditScriptDecoderRoundTripsMutatedScripts) {
  Rng rng(0xED18);
  const Bytes base = payload(300, 2);
  int accepted = 0;
  int applied = 0;
  constexpr int kTrials = 5000;
  for (int trial = 0; trial < kTrials; ++trial) {
    Writer w;
    const std::uint64_t count = rng.next_below(5) + 1;
    w.u32(static_cast<std::uint32_t>(count));
    std::vector<std::size_t> counts{0};
    for (std::uint64_t i = 0; i < count; ++i) {
      wire::FileEdit edit;
      edit.kind = static_cast<wire::FileEdit::Kind>(rng.next_below(5));
      edit.offset = static_cast<std::uint32_t>(rng.next_below(base.size()));
      edit.length = static_cast<std::uint32_t>(rng.next_below(base.size()));
      edit.data = payload(rng.next_below(40), trial);
      // offset, length and the data's length prefix are all u32 fields.
      const std::size_t at = w.data().size() + 1;
      counts.insert(counts.end(), {at, at + 4, at + 8});
      edit.encode(w);
    }
    const Bytes wire = mutate(rng, w.data(), counts);

    Reader r(wire);
    const auto n = r.u32();
    if (!n.ok() || n.value() > r.remaining() / 13) continue;
    std::vector<wire::FileEdit> edits;
    bool ok = true;
    for (std::uint32_t i = 0; i < n.value() && ok; ++i) {
      auto edit = wire::FileEdit::decode(r);
      ok = edit.ok();
      if (ok) edits.push_back(std::move(edit).value());
    }
    if (!ok) continue;
    ++accepted;
    Writer again;
    again.u32(n.value());
    for (const wire::FileEdit& e : edits) e.encode(again);
    const std::size_t consumed = wire.size() - r.remaining();
    EXPECT_TRUE(equal(ByteSpan(wire.data(), consumed), again.data()))
        << "trial " << trial;

    std::uint64_t size = base.size();
    for (const wire::FileEdit& e : edits) {
      switch (e.kind) {
        case wire::FileEdit::Kind::overwrite: break;
        case wire::FileEdit::Kind::insert:
        case wire::FileEdit::Kind::append: size += e.data.size(); break;
        case wire::FileEdit::Kind::erase: size -= e.length; break;
        case wire::FileEdit::Kind::truncate: size = e.length; break;
      }
    }
    const auto out = wire::apply_edits(base, edits);
    if (out.ok()) {
      ++applied;
      EXPECT_EQ(size, out.value().size()) << "trial " << trial;
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(accepted, kTrials / 4);
  EXPECT_GT(applied, kTrials / 20);
}

// Seeded mutations of valid directory requests, each sent with and
// without a message id. Nothing may crash the dispatcher. A request with
// an id, sent again, gets the identical reply and changes nothing: the
// retransmit contract over UDP, where the server keeps no reply and a
// mutation's second run is answered from the dir server's record. More
// than a quarter of the mutants must get past the body decoder, and some
// must succeed, so that the record is exercised.
TEST(FuzzTest, DirRequestsSurviveMutationAndReplayIdentically) {
  BulletHarness::Options options;
  options.disk_blocks = 1 << 14;
  options.inode_slots = 2048;
  BulletHarness h(options);
  rpc::LoopbackTransport transport;
  ASSERT_OK(transport.register_service(&h.server()));
  BulletClient storage(&transport, h.server().super_capability());
  auto started = dir::DirServer::start(storage, dir::DirConfig());
  ASSERT_TRUE(started.ok());
  dir::DirServer& server = *started.value();
  const Capability super = server.super_capability();
  auto root = server.create_dir();
  ASSERT_TRUE(root.ok());
  auto file = storage.create(as_span("target"), 1);
  ASSERT_TRUE(file.ok());
  std::vector<Capability> dirs{root.value()};

  Rng rng(0xD1A5);
  int decoded = 0;
  int succeeded = 0;
  int checkpoints = 0;
  constexpr int kTrials = 4000;
  for (int trial = 0; trial < kTrials; ++trial) {
    rpc::Request request;
    request.target = dirs[rng.next_below(dirs.size())];
    request.opcode = static_cast<std::uint16_t>(rng.next_range(1, 13));
    if ((request.opcode == dir::kCreateDir && dirs.size() >= 64) ||
        (request.opcode == dir::kCheckpoint && ++checkpoints > 32)) {
      request.opcode = dir::kList;
    }
    // Names from a small pool, so entries are often present and absent.
    const std::string name = "entry-" + std::to_string(rng.next_below(6));
    const auto bound = server.lookup(request.target, name);
    Writer body;
    std::vector<std::size_t> counts;  // u32 length fields in the body
    switch (request.opcode) {
      case dir::kCreateDir:
      case dir::kCheckpoint:
      case dir::kFetchMap:
      case dir::kEpoch:
        request.target = super;
        break;
      case dir::kLookup:
      case dir::kRemove:
        counts.push_back(0);
        body.str(name);
        break;
      case dir::kEnter:
      case dir::kReplace:
        counts.push_back(0);
        body.str(name);
        file.value().encode(body);
        break;
      case dir::kCasReplace:
        counts.push_back(0);
        body.str(name);
        (bound.ok() ? bound.value() : file.value()).encode(body);
        file.value().encode(body);
        break;
      case dir::kRestrict:
        body.u8(static_cast<std::uint8_t>(rng.next()) &
                request.target.rights);
        break;
      case dir::kInstallMap:
        request.target = super;
        body.u64(server.map_epoch() + rng.next_below(2));
        counts.push_back(8);
        body.blob(payload(rng.next_below(24), trial));
        break;
      default:  // kList, kDeleteDir
        break;
    }
    request.body = mutate(rng, body.data(), counts);
    if (rng.next_below(2) == 0) request.message_id = rng.next() | 1;

    std::optional<rpc::Reply> reply;
    EXPECT_NO_THROW(reply.emplace(server.handle(request))) << "trial " << trial;
    if (!reply.has_value()) return;
    if (reply->status != ErrorCode::bad_argument) ++decoded;
    if (reply->status == ErrorCode::ok) {
      ++succeeded;
      if (request.opcode == dir::kCreateDir) {
        Reader r(reply->body);
        auto made = Capability::decode(r);
        ASSERT_TRUE(made.ok()) << "trial " << trial;
        dirs.push_back(made.value());
      }
    }
    if (request.message_id == 0) continue;
    const std::size_t dirs_after = server.directory_count();
    const std::uint64_t files_after = h.server().live_files();
    const rpc::Reply again = server.handle(request);
    EXPECT_EQ(reply->status, again.status) << "trial " << trial;
    EXPECT_TRUE(equal(reply->body, again.body)) << "trial " << trial;
    EXPECT_EQ(dirs_after, server.directory_count()) << "trial " << trial;
    EXPECT_EQ(files_after, h.server().live_files()) << "trial " << trial;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(decoded, kTrials / 4);
  EXPECT_GT(succeeded, kTrials / 10);
  // The server still works.
  EXPECT_TRUE(server.create_dir().ok());
  EXPECT_TRUE(server.checkpoint().ok());
}

TEST(FuzzTest, EditScriptsSurviveGarbageOffsets) {
  Rng rng(0xED17);
  const Bytes base = payload(500, 1);
  for (int i = 0; i < 3000; ++i) {
    std::vector<wire::FileEdit> edits;
    const std::size_t count = rng.next_below(4) + 1;
    for (std::size_t j = 0; j < count; ++j) {
      wire::FileEdit edit;
      edit.kind = static_cast<wire::FileEdit::Kind>(rng.next_below(5));
      edit.offset = static_cast<std::uint32_t>(rng.next());
      edit.length = static_cast<std::uint32_t>(rng.next_below(2000));
      edit.data.resize(rng.next_below(100));
      rng.fill(edit.data);
      edits.push_back(std::move(edit));
    }
    (void)wire::apply_edits(base, edits);  // error or success, never crash
  }
}

// --- fragment reassembly ------------------------------------------------------

constexpr std::size_t kFrag = rpc::kFragmentPayload;

// `message` split into its fragments, as the transport sends it.
std::vector<rpc::Fragment> fragments_of(std::uint64_t id, ByteSpan message) {
  const std::size_t count =
      std::max<std::size_t>(1, (message.size() + kFrag - 1) / kFrag);
  std::vector<rpc::Fragment> out;
  for (std::size_t i = 0; i < count; ++i) {
    rpc::Fragment f;
    f.message_id = id;
    f.index = static_cast<std::uint16_t>(i);
    f.count = static_cast<std::uint16_t>(count);
    f.payload = message.subspan(i * kFrag,
                                std::min(kFrag, message.size() - i * kFrag));
    out.push_back(f);
  }
  return out;
}

// Feed `stream` to a reassembler for message `id`. Returns the message and
// how many fragments it took, or nullopt if it never completed.
std::optional<std::pair<Bytes, std::size_t>> reassemble(
    std::uint64_t id, const std::vector<rpc::Fragment>& stream) {
  rpc::Reassembler reassembler;
  reassembler.reset(id);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (reassembler.add(stream[i])) {
      return std::make_pair(reassembler.take(), i + 1);
    }
  }
  return std::nullopt;
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

TEST(FuzzTest, ReassemblerTakesFragmentsOutOfOrderAndDuplicated) {
  Rng rng(0xF7A6);
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, kFrag - 1, kFrag, kFrag + 1,
        5 * kFrag + 123, 8 * kFrag}) {
    const Bytes message = payload(size, size);
    const auto genuine = fragments_of(9, message);
    for (int round = 0; round < 20; ++round) {
      std::vector<rpc::Fragment> stream = genuine;
      for (int dup = 0; dup < 5; ++dup) {
        stream.push_back(genuine[rng.next_below(genuine.size())]);
      }
      shuffle(stream, rng);
      // Completes on the fragment that makes the set whole, not before.
      std::vector<bool> seen(genuine.size());
      std::size_t needed = 0;
      for (std::size_t distinct = 0; distinct < genuine.size(); ++needed) {
        if (!seen[stream[needed].index]) {
          seen[stream[needed].index] = true;
          ++distinct;
        }
      }
      const auto got = reassemble(9, stream);
      ASSERT_TRUE(got.has_value()) << size;
      EXPECT_EQ(needed, got->second) << size;
      EXPECT_TRUE(equal(message, got->first)) << size;
    }
  }
}

TEST(FuzzTest, ReassemblerDropsFragmentsThatBreakTheRules) {
  const Bytes message = payload(3 * kFrag + 500, 3);
  const auto genuine = fragments_of(4, message);  // 4 fragments
  const Bytes junk = payload(kFrag + 1, 99);
  const ByteSpan junk_span(junk);

  rpc::Fragment changed_count = genuine[1];
  changed_count.count = 5;
  rpc::Fragment short_middle = genuine[2];
  short_middle.payload = junk_span.first(kFrag - 1);
  rpc::Fragment oversize_last = genuine[3];
  oversize_last.payload = junk_span.first(kFrag + 1);
  rpc::Fragment index_past_count = genuine[0];
  index_past_count.index = 4;
  rpc::Fragment other_message = genuine[1];
  other_message.message_id = 5;
  other_message.payload = junk_span.first(kFrag);
  // A last fragment under a count that differs from the first one's.
  rpc::Fragment short_count_last = genuine[2];
  short_count_last.count = 3;
  short_count_last.payload = junk_span.first(100);

  rpc::Reassembler reassembler;
  reassembler.reset(4);
  EXPECT_FALSE(reassembler.add(genuine[0]));  // fixes count = 4
  for (const rpc::Fragment& bad :
       {changed_count, short_middle, oversize_last, index_past_count,
        other_message, short_count_last}) {
    EXPECT_FALSE(reassembler.add(bad));
  }
  EXPECT_FALSE(reassembler.add(genuine[1]));
  EXPECT_FALSE(reassembler.add(genuine[2]));
  EXPECT_FALSE(reassembler.add(genuine[0]));  // duplicate
  EXPECT_TRUE(reassembler.add(genuine[3]));
  EXPECT_TRUE(equal(message, reassembler.take()));

  // The wire parser already refuses index >= count and count == 0.
  for (const auto& [index, count] :
       {std::pair<int, int>{4, 4}, {0, 0}, {7, 3}}) {
    rpc::Fragment f = genuine[0];
    f.index = static_cast<std::uint16_t>(index);
    f.count = static_cast<std::uint16_t>(count);
    EXPECT_FALSE(rpc::Fragment::parse(f.encode()).ok()) << index << "/" << count;
  }
}

TEST(FuzzTest, ReassemblerMemoryFollowsWhatArrived) {
  // 40 fragments in reverse order: those that would put the buffer's end
  // past max(kMaxReserve, (received + 1) * kFragmentPayload) are dropped,
  // so the first pass cannot complete; sending them again once the ones
  // before them are in completes the exact message.
  const std::size_t reserve_fragments = rpc::Reassembler::kMaxReserve / kFrag;
  const Bytes message = payload((reserve_fragments + 7) * kFrag + 9, 40);
  const auto genuine = fragments_of(2, message);
  rpc::Reassembler reassembler;
  reassembler.reset(2);
  for (std::size_t i = genuine.size(); i-- > 0;) {
    EXPECT_FALSE(reassembler.add(genuine[i])) << i;
  }
  for (std::size_t i = reserve_fragments; i + 1 < genuine.size(); ++i) {
    EXPECT_FALSE(reassembler.add(genuine[i])) << i;
  }
  EXPECT_TRUE(reassembler.add(genuine.back()));
  EXPECT_TRUE(equal(message, reassembler.take()));

  // A first fragment claiming 65535 fragments, and its last one, cost no
  // more than the reserve: the far-off last fragment is dropped.
  rpc::Fragment hostile = genuine[0];
  hostile.count = 0xFFFF;
  reassembler.reset(2);
  EXPECT_FALSE(reassembler.add(hostile));
  hostile.index = 0xFFFE;
  hostile.payload = ByteSpan(message).first(10);
  EXPECT_FALSE(reassembler.add(hostile));
}

// The acceptance rules written out independently; fuzzed streams must get
// the same verdict for every fragment from it and from the reassembler.
struct ReassemblyModel {
  std::uint64_t id = 0;
  std::uint16_t count = 0;
  std::map<std::uint16_t, Bytes> parts;

  bool add(const rpc::Fragment& f) {
    if (f.message_id != id || f.index >= f.count) return false;
    if (count != 0 && f.count != count) return false;
    const std::size_t size = f.payload.size();
    if (f.index + 1 == f.count ? size > kFrag : size != kFrag) return false;
    if (f.index * kFrag + size >
        std::max(rpc::Reassembler::kMaxReserve, (parts.size() + 1) * kFrag)) {
      return false;
    }
    if (parts.count(f.index) > 0) return false;
    count = f.count;  // the first accepted fragment fixes it
    parts.emplace(f.index, Bytes(f.payload.begin(), f.payload.end()));
    return parts.size() == count;
  }
  Bytes join() const {
    Bytes out;
    for (const auto& [index, part] : parts) append(out, part);
    return out;
  }
};

TEST(FuzzTest, ReassemblerSurvivesMutatedFragmentStreams) {
  Rng rng(0xF7A7);
  int completed = 0;
  int exact = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const Bytes message = payload(rng.next_below(5 * kFrag + 2), trial);
    const auto genuine = fragments_of(7, message);
    // Three copies of each datagram, each either as sent or (half the
    // time) mutated: header bits flipped, the datagram truncated or
    // extended, or a random payload length.
    std::vector<Bytes> datagrams;
    for (int copies = 0; copies < 3; ++copies) {
      for (const rpc::Fragment& f : genuine) {
        Bytes d = f.encode();
        switch (rng.next_below(10)) {
          case 0:
            d[rng.next_below(rpc::kFragmentHeader)] ^=
                static_cast<std::uint8_t>(1u << rng.next_below(8));
            break;
          case 1:
            d.resize(rng.next_below(d.size() + 1));
            break;
          case 2: {
            Bytes extra(rng.next_below(64) + 1);
            rng.fill(extra);
            append(d, extra);
            break;
          }
          case 3: {
            // A consistent header around a payload of random length.
            const std::size_t n = rng.next_below(kFrag + 2);
            rpc::Fragment g = f;
            const Bytes body = payload(n, rng.next());
            g.payload = body;
            d = g.encode();
            break;
          }
          case 4:
            // Index and count from the same random draw, within the header.
            d[12 + rng.next_below(4)] = static_cast<std::uint8_t>(rng.next());
            break;
          default:
            break;  // as sent
        }
        datagrams.push_back(std::move(d));
      }
    }
    shuffle(datagrams, rng);

    rpc::Reassembler reassembler;
    reassembler.reset(7);
    ReassemblyModel model;
    model.id = 7;
    bool tainted = false;  // some accepted fragment differs from the original
    for (const Bytes& d : datagrams) {
      const auto f = rpc::Fragment::parse(d);
      if (!f.ok()) continue;
      const bool model_done = model.add(f.value());
      const bool done = reassembler.add(f.value());
      ASSERT_EQ(model_done, done) << "trial " << trial;
      const rpc::Fragment& v = f.value();
      if (model.parts.count(v.index) > 0 &&
          (v.index >= genuine.size() || v.count != genuine.size() ||
           !equal(model.parts.at(v.index), genuine[v.index].payload))) {
        tainted = true;
      }
      if (done) {
        const Bytes got = reassembler.take();
        ASSERT_TRUE(equal(model.join(), got)) << "trial " << trial;
        ++completed;
        if (!tainted) {
          ASSERT_TRUE(equal(message, got)) << "trial " << trial;
          ++exact;
        }
        break;
      }
    }
  }
  // The byte-exact check must not be vacuous.
  EXPECT_GT(completed, 150);
  EXPECT_GT(exact, 100);
}

}  // namespace
}  // namespace bullet
