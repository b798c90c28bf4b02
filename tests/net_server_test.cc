// PortalServer over the deterministic in-process transport
// (src/net/): lockstep multi-connection streams against the
// EngineStressRig portal, per-connection reply ordering, server-side
// probe accounting audited against the engine's QueryStats
// conservation invariants, and the failure paths — client disconnect
// mid-reply, admission shed, queue-deadline timeout — each pinned
// deterministically by parking the pool's only worker on a gate.
// Labels: net;tsan;stress (scripts/check.sh reruns the suite under
// ThreadSanitizer).

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "concurrent_harness.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "net/server.h"
#include "net/transport.h"
#include "net/wire.h"
#include "portal/portal.h"

namespace colr::net {
namespace {

using colr::testing::EngineStressRig;
using colr::testing::RunThreads;
using colr::testing::SeedLogger;
using colr::testing::StressSeed;

/// Spins (1 ms naps) until pred() holds; fails the test after ~20 s.
/// The counters under test are eventually-consistent observables of
/// detached server threads, so bounded spinning is the honest wait.
template <typename Pred>
void SpinUntil(const Pred& pred, const char* what) {
  for (int i = 0; i < 20000; ++i) {
    if (pred()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "timed out waiting for " << what;
}

/// Parks one pool worker until Release() — the deterministic handle
/// the failure-path tests use to hold a request in the server's queue
/// (admitted, not yet executing) for as long as the test needs.
class PoolGate {
 public:
  explicit PoolGate(ThreadPool* pool) : state_(std::make_shared<State>()) {
    // The lambda shares ownership of the gate state, so a test tearing
    // the gate down while the worker is still waking cannot destroy
    // the cv out from under it; notify-under-lock covers the other
    // half of the destruction race.
    std::shared_ptr<State> state = state_;
    pool->Submit([state] {
      MutexLock lock(state->mu);
      while (!state->released) state->cv.wait(state->mu);
    });
  }

  void Release() {
    MutexLock lock(state_->mu);
    state_->released = true;
    state_->cv.notify_all();
  }

 private:
  struct State {
    Mutex mu;
    std::condition_variable_any cv;
    bool released COLR_GUARDED_BY(mu) = false;
  };
  std::shared_ptr<State> state_;
};

/// EngineStressRig portal behind a PortalServer on the in-process
/// transport: the whole serving stack with zero sockets.
struct NetRig {
  EngineStressRig rig;
  portal::SensorPortal portal;
  ThreadPool pool;
  InProcTransport transport;
  std::unique_ptr<PortalServer> server;

  explicit NetRig(PortalServer::Options opts = PortalServer::Options(),
                  int pool_threads = 4)
      : rig(/*cache_capacity=*/256),
        portal(rig.tree.get(), rig.engine.get()),
        pool(pool_threads) {
    server = std::make_unique<PortalServer>(&portal, &pool, opts);
    const Status started = server->Start(transport.CreateListener());
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  std::unique_ptr<PortalClient> Dial() {
    auto conn = transport.Connect();
    EXPECT_TRUE(conn.ok()) << conn.status().ToString();
    return std::make_unique<PortalClient>(std::move(conn).value());
  }

  /// The wire-text twin of EngineStressRig::MakeQuery: the same
  /// viewport pick and exact/sampled mix, phrased in the portal query
  /// language.
  std::string MakeText(int thread, int i) const {
    const auto& rec = rig.workload.queries[static_cast<size_t>(
        thread * 17 + i * 5) % rig.workload.queries.size()];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "SELECT count(*) FROM sensor S "
                  "WHERE S.location WITHIN RECT(%.6f, %.6f, %.6f, %.6f) "
                  "AND S.time BETWEEN now()-5 AND now() mins "
                  "CLUSTER LEVEL 2 SAMPLESIZE %d",
                  rec.region.min_x, rec.region.min_y, rec.region.max_x,
                  rec.region.max_y, (i % 3 == 0) ? 0 : 25);
    return buf;
  }
};

/// Per-thread tally of the probe accounting the replies carried.
struct ReplyTally {
  int64_t probes = 0;
  int64_t probe_successes = 0;
  int64_t probes_coalesced = 0;
  int64_t probes_reused = 0;
  int64_t probes_shed = 0;

  void Add(const QueryReply& reply) {
    probes += reply.probes;
    probe_successes += reply.probe_successes;
    probes_coalesced += reply.probes_coalesced;
    probes_reused += reply.probes_reused;
    probes_shed += reply.probes_shed;
  }
};

// ---------------------------------------------------------------------------
// Lockstep multi-connection streams
// ---------------------------------------------------------------------------

TEST(NetServerTest, PipelinedConnectionsPreserveOrderAndConserveProbes) {
  const uint64_t seed = StressSeed();
  SeedLogger log(seed);

  PortalServer::Options opts;
  opts.seed = seed;
  NetRig net(opts);

  constexpr int kConnections = 8;
  constexpr int kPerConnection = 24;
  constexpr int kWindow = 6;  // pipelining depth: send 6, receive 6

  std::vector<ReplyTally> tallies(kConnections);
  RunThreads(kConnections, [&](int t) {
    auto client = net.Dial();
    for (int base = 0; base < kPerConnection; base += kWindow) {
      std::vector<uint64_t> sent_ids;
      for (int i = base; i < base + kWindow; ++i) {
        uint64_t id = 0;
        const Status s = client->Send(net.MakeText(t, i), &id);
        ASSERT_TRUE(s.ok()) << s.ToString();
        sent_ids.push_back(id);
      }
      for (uint64_t expected_id : sent_ids) {
        auto reply = client->Receive();
        ASSERT_TRUE(reply.ok()) << reply.status().ToString();
        // The server answers one connection's requests strictly in
        // order — the correlation ids must come back in send order.
        EXPECT_EQ(reply->request_id, expected_id);
        ASSERT_EQ(reply->status, WireStatus::kOk)
            << WireStatusName(reply->status) << ": " << reply->message;
        EXPECT_TRUE(reply->message.empty());
        EXPECT_FALSE(reply->body_json.empty());
        EXPECT_GE(reply->rows, 1);
        tallies[static_cast<size_t>(t)].Add(*reply);
      }
    }
    client->Close();
  });

  net.server->Stop();

  ReplyTally total;
  for (const auto& t : tallies) {
    total.probes += t.probes;
    total.probe_successes += t.probe_successes;
    total.probes_coalesced += t.probes_coalesced;
    total.probes_reused += t.probes_reused;
    total.probes_shed += t.probes_shed;
  }

  // Conservation: the accounting the replies carried over the wire is
  // exactly the engine's cumulative view, and issued probes are
  // exactly what the simulated network saw.
  const QueryStats cumulative = net.rig.engine->cumulative();
  EXPECT_EQ(total.probes, cumulative.sensors_probed);
  EXPECT_EQ(total.probe_successes, cumulative.probe_successes);
  EXPECT_EQ(total.probes_coalesced, cumulative.probes_coalesced);
  EXPECT_EQ(total.probes_reused, cumulative.probes_reused);
  EXPECT_EQ(total.probes_shed, cumulative.probes_shed);
  EXPECT_EQ(total.probes, net.rig.network->counters().probes.load());

  // Scheduler conservation: every probe request was issued, joined a
  // flight, reused a result, or was shed — none vanished.
  const auto sched = net.rig.engine->probe_scheduler().stats();
  EXPECT_EQ(sched.requested, sched.issued + sched.coalesced + sched.reused +
                                 sched.shed_rate_limited +
                                 sched.shed_admission);
  EXPECT_EQ(sched.issued, net.rig.network->counters().probes.load());

  const auto& counters = net.server->counters();
  EXPECT_EQ(counters.queries_ok.load(), kConnections * kPerConnection);
  EXPECT_EQ(counters.query_errors.load(), 0);
  EXPECT_EQ(counters.bad_frames.load(), 0);
  EXPECT_EQ(counters.write_errors.load(), 0);
  EXPECT_EQ(counters.shed.load(), 0);
  EXPECT_EQ(counters.timeouts.load(), 0);
  EXPECT_EQ(counters.connections_accepted.load(), kConnections);
  EXPECT_EQ(counters.connections_active.load(), 0);
  EXPECT_EQ(net.server->inflight(), 0);
}

// ---------------------------------------------------------------------------
// Application-level errors
// ---------------------------------------------------------------------------

TEST(NetServerTest, ParseErrorAnswersWithoutKillingTheConnection) {
  NetRig net;
  auto client = net.Dial();

  auto bad = client->Query("SELECT nonsense FROM nowhere !!");
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_EQ(bad->status, WireStatus::kParseError);
  EXPECT_FALSE(bad->message.empty());
  EXPECT_TRUE(bad->body_json.empty());

  // The connection survives an application-level error: the next
  // well-formed query on the same stream succeeds.
  auto good = client->Query(net.MakeText(0, 1));
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->status, WireStatus::kOk);

  client->Close();
  net.server->Stop();
  EXPECT_EQ(net.server->counters().query_errors.load(), 1);
  EXPECT_EQ(net.server->counters().queries_ok.load(), 1);
}

TEST(NetServerTest, OversizedReplyAnswersExecErrorWithoutPoisoningTheClient) {
  PortalServer::Options opts;
  opts.max_frame_bytes = 4096;
  NetRig net(opts);
  auto conn = net.transport.Connect();
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  // The client enforces the same bound: an oversized reply frame would
  // poison its decoder for good.
  PortalClient client(std::move(conn).value(), opts.max_frame_bytes);

  // Every reading in the extent, one row each: far over 4 KiB of JSON.
  auto big = client.Query(
      "SELECT * FROM sensor S WHERE S.location WITHIN RECT(0, 0, 100, 100) "
      "AND S.time BETWEEN now()-5 AND now() mins "
      "CLUSTER LEVEL 2 SAMPLESIZE 0");
  ASSERT_TRUE(big.ok()) << big.status().ToString();
  EXPECT_EQ(big->status, WireStatus::kExecError);
  EXPECT_NE(big->message.find("exceeds the frame limit"), std::string::npos)
      << big->message;
  EXPECT_TRUE(big->body_json.empty());
  EXPECT_GT(big->probes, 0);

  // The stream is intact: the next query on it succeeds.
  auto good = client.Query(net.MakeText(0, 1));
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->status, WireStatus::kOk)
      << WireStatusName(good->status) << ": " << good->message;

  client.Close();
  net.server->Stop();
  // The error reply kept its probe accounting, so the replies still sum
  // to the engine's cumulative counters.
  const QueryStats cumulative = net.rig.engine->cumulative();
  EXPECT_EQ(big->probes + good->probes, cumulative.sensors_probed);
  EXPECT_EQ(big->probe_successes + good->probe_successes,
            cumulative.probe_successes);
  EXPECT_EQ(net.server->counters().query_errors.load(), 1);
  EXPECT_EQ(net.server->counters().queries_ok.load(), 1);
}

TEST(NetServerTest, GarbageFrameClosesTheConnection) {
  NetRig net;
  auto conn = net.transport.Connect();
  ASSERT_TRUE(conn.ok());

  // An unknown frame type is a protocol error: the server counts it
  // and hangs up (a corrupt length-prefixed stream cannot resync).
  std::string header(kFrameHeaderBytes, '\0');
  header[4] = static_cast<char>(0x7F);
  ASSERT_TRUE((*conn)->WriteAll(header.data(), header.size()).ok());

  SpinUntil([&] { return net.server->counters().bad_frames.load() == 1; },
            "bad_frames == 1");
  char buf[16];
  auto n = (*conn)->Read(buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);  // server closed: clean EOF, no reply bytes

  SpinUntil(
      [&] { return net.server->counters().connections_active.load() == 0; },
      "connection gauge back to zero");
  net.server->Stop();
}

// ---------------------------------------------------------------------------
// Failure paths, pinned with a parked pool worker
// ---------------------------------------------------------------------------

TEST(NetServerTest, ClientDisconnectMidReplyCountsWriteError) {
  NetRig net(PortalServer::Options(), /*pool_threads=*/1);
  PoolGate gate(&net.pool);  // the only worker is now parked

  auto client = net.Dial();
  ASSERT_TRUE(client->Send(net.MakeText(0, 0)).ok());
  SpinUntil([&] { return net.server->inflight() == 1; },
            "request admitted");

  // The client vanishes while its request waits for a worker. The
  // server still executes the query, then fails to write the reply.
  client->Close();
  gate.Release();

  SpinUntil([&] { return net.server->counters().write_errors.load() == 1; },
            "write_errors == 1");
  SpinUntil(
      [&] { return net.server->counters().connections_active.load() == 0; },
      "connection gauge back to zero");
  EXPECT_EQ(net.server->inflight(), 0);
  net.server->Stop();
}

TEST(NetServerTest, AdmissionBoundShedsImmediatelyWhileQueueIsFull) {
  PortalServer::Options opts;
  opts.max_inflight = 1;
  NetRig net(opts, /*pool_threads=*/1);
  PoolGate gate(&net.pool);

  auto first = net.Dial();
  ASSERT_TRUE(first->Send(net.MakeText(0, 0)).ok());
  SpinUntil([&] { return net.server->inflight() == 1; },
            "first request admitted");

  // The bound is reached: a second connection's request is answered
  // kShed by the reader thread itself, while the pool is still parked
  // — shedding must not need a worker.
  auto second = net.Dial();
  auto shed = second->Query(net.MakeText(1, 0));
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->status, WireStatus::kShed);
  EXPECT_FALSE(shed->message.empty());
  EXPECT_EQ(net.server->counters().shed.load(), 1);

  gate.Release();
  auto reply = first->Receive();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->status, WireStatus::kOk);

  first->Close();
  second->Close();
  net.server->Stop();
  EXPECT_EQ(net.server->counters().queries_ok.load(), 1);
}

TEST(NetServerTest, QueueDeadlineExpiresRequestWithoutExecutingIt) {
  SimClock sim;  // the server's private clock; the rig keeps its own
  PortalServer::Options opts;
  opts.request_timeout_ms = 1000;
  opts.clock = &sim;
  NetRig net(opts, /*pool_threads=*/1);
  PoolGate gate(&net.pool);

  auto client = net.Dial();
  ASSERT_TRUE(client->Send(net.MakeText(0, 0)).ok());
  SpinUntil([&] { return net.server->inflight() == 1; },
            "request admitted");

  // The request sits in the queue while the (simulated) deadline
  // passes; when a worker finally picks it up it is expired and must
  // be answered kTimeout without touching the engine.
  sim.SetMs(5000);
  gate.Release();

  auto reply = client->Receive();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->status, WireStatus::kTimeout);
  EXPECT_FALSE(reply->message.empty());
  EXPECT_EQ(net.server->counters().timeouts.load(), 1);
  EXPECT_EQ(net.server->counters().queries_ok.load(), 0);
  // Never executed: the engine and the network saw nothing.
  EXPECT_EQ(net.rig.engine->cumulative().sensors_probed, 0);
  EXPECT_EQ(net.rig.network->counters().probes.load(), 0);

  client->Close();
  net.server->Stop();
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

TEST(NetServerTest, GaugeTracksConnectionsAndStopIsIdempotent) {
  NetRig net;
  {
    std::vector<std::unique_ptr<PortalClient>> clients;
    for (int i = 0; i < 4; ++i) clients.push_back(net.Dial());
    SpinUntil(
        [&] {
          return net.server->counters().connections_accepted.load() == 4;
        },
        "four connections accepted");
    for (auto& c : clients) {
      auto reply = c->Query(net.MakeText(0, 2));
      ASSERT_TRUE(reply.ok());
      EXPECT_EQ(reply->status, WireStatus::kOk);
    }
    for (auto& c : clients) c->Close();
  }
  // All clients hung up while the server keeps running: every handler
  // exits and the gauge — the "no leaked connection state" observable
  // — returns to zero.
  SpinUntil(
      [&] { return net.server->counters().connections_active.load() == 0; },
      "connection gauge back to zero");

  net.server->Stop();
  net.server->Stop();  // idempotent
  // The listener is gone: new connections are refused.
  EXPECT_FALSE(net.transport.Connect().ok());
}

}  // namespace
}  // namespace colr::net
