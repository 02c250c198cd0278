// Tests for RPC framing, transports, and the Bullet client stub end-to-end.
#include <gtest/gtest.h>

#include "bullet/client.h"
#include "bullet/server.h"
#include "rpc/message.h"
#include "rpc/transport.h"
#include "sim/testbed.h"
#include "tests/test_util.h"

namespace bullet {
namespace {

using testing::BulletHarness;
using testing::payload;
using testing::status_of;

TEST(RpcMessageTest, RequestRoundtrip) {
  rpc::Request req;
  req.target.port = Port(0x123456);
  req.target.object = 42;
  req.target.rights = rights::kRead;
  req.target.check = 0xABCDEF;
  req.opcode = 7;
  req.body = payload(100, 1);

  const auto decoded = rpc::Request::decode(req.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(req.target, decoded.value().target);
  EXPECT_EQ(req.opcode, decoded.value().opcode);
  EXPECT_TRUE(equal(req.body, decoded.value().body));
  EXPECT_EQ(req.encode().size(), req.wire_size());
}

TEST(RpcMessageTest, ReplyRoundtrip) {
  rpc::Reply rep = rpc::Reply::success(payload(64, 2));
  const auto decoded = rpc::Reply::decode(rep.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(ErrorCode::ok, decoded.value().status);
  EXPECT_TRUE(equal(rep.body, decoded.value().body));

  const auto err = rpc::Reply::decode(rpc::Reply::error(ErrorCode::no_space).encode());
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(ErrorCode::no_space, err.value().status);
}

TEST(RpcMessageTest, DecodeRejectsTrailingBytes) {
  rpc::Request req;
  Bytes wire = req.encode();
  wire.push_back(0);
  EXPECT_FALSE(rpc::Request::decode(wire).ok());
}

TEST(LoopbackTransportTest, RoutesByPort) {
  BulletHarness h;
  rpc::LoopbackTransport transport;
  ASSERT_OK(transport.register_service(&h.server()));

  BulletClient client(&transport, h.server().super_capability());
  auto cap = client.create(as_span("over the wire"), 1);
  ASSERT_TRUE(cap.ok());
  auto data = client.read(cap.value());
  ASSERT_TRUE(data.ok());
  EXPECT_EQ("over the wire", to_string(data.value()));
  EXPECT_GT(transport.calls(), 0u);
}

TEST(LoopbackTransportTest, UnknownPortUnreachable) {
  rpc::LoopbackTransport transport;
  rpc::Request req;
  req.target.port = Port(0xDEAD);
  EXPECT_CODE(unreachable, status_of(transport.call(req)));
}

TEST(LoopbackTransportTest, DuplicateRegistrationRejected) {
  BulletHarness h;
  rpc::LoopbackTransport transport;
  ASSERT_OK(transport.register_service(&h.server()));
  EXPECT_CODE(already_exists, transport.register_service(&h.server()));
  ASSERT_OK(transport.unregister_service(h.server().public_port()));
  ASSERT_OK(transport.register_service(&h.server()));
}

TEST(LoopbackTransportTest, RejectsNullAndNullPort) {
  rpc::LoopbackTransport transport;
  EXPECT_CODE(bad_argument, transport.register_service(nullptr));
}

// --- BulletClient over the wire ------------------------------------------------

class BulletClientTest : public ::testing::Test {
 protected:
  BulletClientTest() {
    EXPECT_TRUE(transport_.register_service(&h_.server()).ok());
    client_ = std::make_unique<BulletClient>(&transport_,
                                             h_.server().super_capability());
  }
  BulletHarness h_;
  rpc::LoopbackTransport transport_;
  std::unique_ptr<BulletClient> client_;
};

TEST_F(BulletClientTest, FullLifecycle) {
  const Bytes data = payload(12345, 6);
  auto cap = client_->create(data, 2);
  ASSERT_TRUE(cap.ok());
  EXPECT_EQ(12345u, client_->size(cap.value()).value());
  EXPECT_TRUE(equal(data, client_->read_whole(cap.value()).value()));
  ASSERT_OK(client_->erase(cap.value()));
  EXPECT_CODE(no_such_object, status_of(client_->read(cap.value())));
}

TEST_F(BulletClientTest, CreateFromOverWire) {
  auto base = client_->create(as_span("version one"), 1);
  ASSERT_TRUE(base.ok());
  std::vector<wire::FileEdit> edits;
  edits.push_back(wire::FileEdit::make_overwrite(8, to_bytes("two")));
  auto next = client_->create_from(base.value(), edits, 1);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ("version two", to_string(client_->read(next.value()).value()));
}

TEST_F(BulletClientTest, ReadRangeOverWire) {
  const Bytes data = payload(4000, 3);
  auto cap = client_->create(data, 1);
  ASSERT_TRUE(cap.ok());
  auto range = client_->read_range(cap.value(), 100, 200);
  ASSERT_TRUE(range.ok());
  EXPECT_TRUE(equal(ByteSpan(data.data() + 100, 200), range.value()));
}

TEST_F(BulletClientTest, AdminOverWire) {
  ASSERT_TRUE(client_->create(payload(100, 1), 1).ok());
  auto stats = client_->stats_text();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(1u, testing::metric(stats.value(), "bullet_creates_total"));
  ASSERT_OK(client_->sync());
  auto fsck = client_->fsck();
  ASSERT_TRUE(fsck.ok());
  EXPECT_EQ(1u, fsck.value().files);
  auto moved = client_->compact_disk();
  ASSERT_TRUE(moved.ok());
}

TEST_F(BulletClientTest, BadPfactorRejectedClientSide) {
  EXPECT_CODE(bad_argument, status_of(client_->create(payload(1, 1), -1)));
  EXPECT_CODE(bad_argument, status_of(client_->create(payload(1, 1), 256)));
}

TEST_F(BulletClientTest, MalformedOpcodeRejected) {
  rpc::Request req;
  req.target = h_.server().super_capability();
  req.opcode = 0x7777;
  auto reply = transport_.call(req);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(ErrorCode::not_supported, reply.value().status);
}

TEST_F(BulletClientTest, TruncatedBodyRejected) {
  rpc::Request req;
  req.target = h_.server().super_capability();
  req.opcode = wire::kCreate;
  req.body = Bytes{1};  // pfactor, but no data blob
  auto reply = transport_.call(req);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(ErrorCode::bad_argument, reply.value().status);
}

// --- SimTransport ------------------------------------------------------------------

TEST(SimTransportTest, ChargesVirtualTime) {
  sim::Clock clock;
  BulletConfig config;
  config.clock = &clock;
  BulletHarness h;
  h.reboot(config);

  rpc::SimTransport transport(sim::NetParams::ethernet_10mbit(), &clock);
  ASSERT_OK(transport.register_service(&h.server(),
                                       sim::ProtocolCosts::amoeba_rpc_1989()));
  BulletClient client(&transport, h.server().super_capability());

  auto cap = client.create(payload(1000, 1), 0);  // pfactor 0: no disk wait
  ASSERT_TRUE(cap.ok());
  const auto after_create = clock.now();
  EXPECT_GT(after_create, 0);

  ASSERT_TRUE(client.read(cap.value()).ok());
  EXPECT_GT(clock.now(), after_create);
  EXPECT_GT(transport.bytes_on_wire(), 2000u);
}

TEST(SimTransportTest, LargerRepliesTakeLonger) {
  sim::Clock clock;
  BulletHarness h;
  rpc::SimTransport transport(sim::NetParams::ethernet_10mbit(), &clock);
  ASSERT_OK(transport.register_service(&h.server(),
                                       sim::ProtocolCosts::amoeba_rpc_1989()));
  BulletClient client(&transport, h.server().super_capability());

  auto small = client.create(payload(100, 1), 0);
  auto big = client.create(payload(100000, 2), 0);
  ASSERT_TRUE(small.ok() && big.ok());

  const auto t0 = clock.now();
  ASSERT_TRUE(client.read(small.value()).ok());
  const auto small_time = clock.now() - t0;
  ASSERT_TRUE(client.read(big.value()).ok());
  const auto big_time = clock.now() - t0 - small_time;
  EXPECT_GT(big_time, small_time * 10);
}

TEST(SimTransportTest, UnknownPortUnreachable) {
  sim::Clock clock;
  rpc::SimTransport transport(sim::NetParams::ethernet_10mbit(), &clock);
  rpc::Request req;
  req.target.port = Port(0xDEAD);
  EXPECT_CODE(unreachable, status_of(transport.call(req)));
}

}  // namespace
}  // namespace bullet
