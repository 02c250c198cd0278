// Trace propagation end to end: a client-supplied trace id rides the
// request trailer, the server's spans carry it, and BS_TRACE_DUMP returns
// the complete rx→tx chain — for a cache-hit READ and a P-FACTOR=2 CREATE
// through the real UDP worker pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "bullet/client.h"
#include "bullet/server.h"
#include "obs/trace.h"
#include "rpc/udp_transport.h"
#include "tests/test_util.h"

namespace bullet {
namespace {

using testing::BulletHarness;

struct Chain {
  std::uint64_t seq = 0;
  std::uint64_t trace_id = 0;
  std::uint16_t opcode = 0;
  std::vector<wire::TraceSpan> spans;

  bool has_stage(obs::Stage stage) const {
    return std::any_of(spans.begin(), spans.end(), [&](const auto& s) {
      return s.stage == static_cast<std::uint8_t>(stage);
    });
  }
};

std::vector<Chain> group_chains(const std::vector<wire::TraceSpan>& spans) {
  std::vector<Chain> chains;
  for (const wire::TraceSpan& s : spans) {
    if (chains.empty() || chains.back().seq != s.seq) {
      chains.push_back(Chain{s.seq, s.trace_id, s.opcode, {}});
    }
    chains.back().spans.push_back(s);
  }
  return chains;
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Only client-forced traces in this test: no background sampling, and
    // nothing left over from other tests in this binary.
    obs::set_sample_every(0);
    obs::TraceSink::instance().clear();
  }
  void TearDown() override {
    obs::set_sample_every(obs::kDefaultSampleEvery);
    obs::TraceSink::instance().clear();
  }
};

TEST_F(TraceTest, ClientIdPropagatesThroughWorkerPool) {
  BulletHarness h;
  rpc::UdpServerOptions server_options;
  server_options.workers = 2;
  auto udp = rpc::UdpServer::start(server_options);
  ASSERT_TRUE(udp.ok());
  ASSERT_OK(udp.value()->register_service(&h.server()));

  rpc::UdpClientOptions client_options;
  client_options.server_udp_port = udp.value()->port();
  client_options.timeout_ms = 1000;
  auto transport = rpc::UdpTransport::connect(client_options);
  ASSERT_TRUE(transport.ok());
  BulletClient client(transport.value().get(), h.server().super_capability());

  // Untraced create primes the cache (create inserts into it), so the
  // traced read below is a cache hit.
  Bytes data(8192);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31);
  }
  auto cap = client.create(data, 1);
  ASSERT_TRUE(cap.ok());

  // Traced cache-hit READ.
  client.set_trace_id(0xFEEDFACE);
  auto read = client.read(cap.value());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(data, read.value());

  // Traced P-FACTOR=2 CREATE (both replicas written in the foreground).
  client.set_trace_id(0xC0FFEE);
  auto cap2 = client.create(data, 2);
  ASSERT_TRUE(cap2.ok());

  client.set_trace_id(0);
  auto dump = client.trace_dump(/*threshold_ns=*/0, /*max_spans=*/1024);
  ASSERT_TRUE(dump.ok());
  const std::vector<Chain> chains = group_chains(dump.value());

  const auto find_chain = [&](std::uint64_t id) -> const Chain* {
    for (const Chain& c : chains) {
      if (c.trace_id == id) return &c;
    }
    return nullptr;
  };

  // The READ chain: complete rx→tx through queue, lock, cache.
  const Chain* read_chain = find_chain(0xFEEDFACE);
  ASSERT_NE(nullptr, read_chain);
  EXPECT_EQ(wire::kRead, read_chain->opcode);
  for (const obs::Stage stage :
       {obs::Stage::kRx, obs::Stage::kQueue, obs::Stage::kHandle,
        obs::Stage::kLockShared, obs::Stage::kCache, obs::Stage::kTx}) {
    EXPECT_TRUE(read_chain->has_stage(stage))
        << "read chain missing " << obs::stage_name(stage);
  }
  // The reply leaves from the cache span and no copy of it is kept.
  EXPECT_FALSE(read_chain->has_stage(obs::Stage::kEncode));
  // A cache hit never touches the disk.
  EXPECT_FALSE(read_chain->has_stage(obs::Stage::kDiskRead));

  // The CREATE chain: exclusive lock and foreground replica writes.
  const Chain* create_chain = find_chain(0xC0FFEE);
  ASSERT_NE(nullptr, create_chain);
  EXPECT_EQ(wire::kCreate, create_chain->opcode);
  for (const obs::Stage stage :
       {obs::Stage::kRx, obs::Stage::kQueue, obs::Stage::kHandle,
        obs::Stage::kLockExcl, obs::Stage::kDiskWrite, obs::Stage::kTx}) {
    EXPECT_TRUE(create_chain->has_stage(stage))
        << "create chain missing " << obs::stage_name(stage);
  }
  EXPECT_FALSE(create_chain->has_stage(obs::Stage::kEncode));

  // Every span in a chain carries the same id/seq/opcode, and the handle
  // span nests inside the chain's wall-clock window.
  for (const Chain* chain : {read_chain, create_chain}) {
    std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
    for (const wire::TraceSpan& s : chain->spans) {
      EXPECT_EQ(chain->trace_id, s.trace_id);
      EXPECT_EQ(chain->seq, s.seq);
      EXPECT_EQ(chain->opcode, s.opcode);
      lo = std::min(lo, s.start_ns);
      hi = std::max(hi, s.start_ns + s.dur_ns);
    }
    EXPECT_GT(hi, lo);
  }

  // The dump drained: a second dump has neither chain.
  auto empty = client.trace_dump(0, 1024);
  ASSERT_TRUE(empty.ok());
  for (const Chain& c : group_chains(empty.value())) {
    EXPECT_NE(0xFEEDFACEu, c.trace_id);
    EXPECT_NE(0xC0FFEEu, c.trace_id);
  }

  udp.value()->stop();
}

TEST_F(TraceTest, ThresholdFiltersFastChains) {
  BulletHarness h;
  rpc::LoopbackTransport local;
  ASSERT_OK(local.register_service(&h.server()));
  BulletClient client(&local, h.server().super_capability());

  client.set_trace_id(7);
  Bytes data(512, 0xAB);
  auto cap = client.create(data, 1);
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(client.read(cap.value()).ok());
  client.set_trace_id(0);

  // An impossible threshold drops everything (and consumes it).
  auto dump = client.trace_dump(/*threshold_ns=*/~std::uint64_t{0} / 2, 1024);
  ASSERT_TRUE(dump.ok());
  EXPECT_TRUE(dump.value().empty());
}

TEST_F(TraceTest, SamplingTracesIdLessRequests) {
  obs::set_sample_every(2);  // every 2nd id-less request per thread
  BulletHarness h;
  rpc::LoopbackTransport local;
  ASSERT_OK(local.register_service(&h.server()));
  BulletClient client(&local, h.server().super_capability());

  Bytes data(256, 0x5A);
  auto cap = client.create(data, 1);
  ASSERT_TRUE(cap.ok());
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(client.read(cap.value()).ok());

  auto dump = client.trace_dump(0, 4096);
  ASSERT_TRUE(dump.ok());
  const std::vector<Chain> chains = group_chains(dump.value());
  // 9 requests at 1-in-2 sampling: at least two traced, all with id 0.
  EXPECT_GE(chains.size(), 2u);
  std::set<std::uint64_t> seqs;
  for (const Chain& c : chains) {
    EXPECT_EQ(0u, c.trace_id);
    EXPECT_TRUE(seqs.insert(c.seq).second) << "chains not contiguous";
  }
}

}  // namespace
}  // namespace bullet
