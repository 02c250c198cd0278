// Trace propagation end to end: a client-supplied trace id rides the
// request trailer, the server's spans carry it, and BS_TRACE_DUMP returns
// the complete rx→tx chain — for a cache-hit READ answered on the UDP
// receive thread, and for a cache-miss READ and a P-FACTOR=2 CREATE
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
  Bytes data(8192);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31);
  }
  // A file written before the server boots again, so its first READ
  // misses the cache.
  auto cold = h.server().create(data, 1);
  ASSERT_TRUE(cold.ok());
  h.reboot();

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

  // Traced cache-miss READ: through the pool and the disk.
  client.set_trace_id(0xC01D);
  auto miss = client.read(cold.value());
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(data, miss.value());

  // Untraced create primes the cache (create inserts into it), so the
  // traced read below is a cache hit.
  client.set_trace_id(0);
  auto cap = client.create(data, 1);
  ASSERT_TRUE(cap.ok());

  // Traced cache-hit READ: answered on the receive thread. It comes from
  // a second connection: the endpoint above may still count as busy for
  // a moment after its reply left (the worker clears its marks after the
  // send), and the receive thread hands a busy endpoint's requests to the
  // pool.
  auto reader = rpc::UdpTransport::connect(client_options);
  ASSERT_TRUE(reader.ok());
  BulletClient hot_client(reader.value().get(),
                          h.server().super_capability());
  hot_client.set_trace_id(0xFEEDFACE);
  auto read = hot_client.read(cap.value());
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

  // The hit chain: complete rx→tx through lock and cache, with no queue
  // hop — the receive thread answered it.
  const Chain* read_chain = find_chain(0xFEEDFACE);
  ASSERT_NE(nullptr, read_chain);
  EXPECT_EQ(wire::kRead, read_chain->opcode);
  for (const obs::Stage stage :
       {obs::Stage::kRx, obs::Stage::kLockShared, obs::Stage::kCache,
        obs::Stage::kHandle, obs::Stage::kTx}) {
    EXPECT_TRUE(read_chain->has_stage(stage))
        << "read chain missing " << obs::stage_name(stage);
  }
  EXPECT_FALSE(read_chain->has_stage(obs::Stage::kQueue));
  // The reply leaves from the cache span and no copy of it is kept.
  EXPECT_FALSE(read_chain->has_stage(obs::Stage::kEncode));
  // A cache hit never touches the disk.
  EXPECT_FALSE(read_chain->has_stage(obs::Stage::kDiskRead));

  // The miss chain: declined by the receive thread, so it queues for a
  // worker, which reads the disk. One chain, one sampling decision.
  const Chain* miss_chain = find_chain(0xC01D);
  ASSERT_NE(nullptr, miss_chain);
  EXPECT_EQ(wire::kRead, miss_chain->opcode);
  for (const obs::Stage stage :
       {obs::Stage::kRx, obs::Stage::kQueue, obs::Stage::kHandle,
        obs::Stage::kLockExcl, obs::Stage::kDiskRead, obs::Stage::kTx}) {
    EXPECT_TRUE(miss_chain->has_stage(stage))
        << "miss chain missing " << obs::stage_name(stage);
  }
  EXPECT_EQ(1, std::count_if(chains.begin(), chains.end(), [](const Chain& c) {
              return c.trace_id == 0xC01D;
            }));

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
  for (const Chain* chain : {read_chain, miss_chain, create_chain}) {
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
    EXPECT_NE(0xC01Du, c.trace_id);
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
