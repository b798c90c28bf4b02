// Every lock site records (common/sync_stats.h): with sync stats on,
// one pass over the serving stack — the portal server on the
// in-process transport with its pool, a concurrent portal batch, a
// flat-cache query and a moving-clock timed replay — must count at
// least one acquisition at every SyncSite except kStatsRegistry, the
// registry's own lock, which never records. And a fresh thread whose
// first guarded acquisition is the registry's Snapshot() must return:
// recording there would register the thread's stats block under the
// lock it already holds.
// Labels: tsan;stress (the ctest TIMEOUT bounds a self-deadlock).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/lock_rank.h"
#include "common/sync.h"
#include "common/sync_stats.h"
#include "common/thread_pool.h"
#include "concurrent_harness.h"
#include "core/engine.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "net/server.h"
#include "net/transport.h"
#include "portal/portal.h"
#include "replay/timed_replay.h"
#include "workload/live_local.h"

namespace colr {
namespace {

using colr::testing::EngineStressRig;

std::string ViewportQuery(const LiveLocalWorkload& w, size_t i) {
  const Rect& r = w.queries[i % w.queries.size()].region;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "SELECT count(*) FROM sensor S "
                "WHERE S.location WITHIN RECT(%.6f, %.6f, %.6f, %.6f) "
                "AND S.time BETWEEN now()-5 AND now() mins "
                "CLUSTER LEVEL 2 SAMPLESIZE 25",
                r.min_x, r.min_y, r.max_x, r.max_y);
  return buf;
}

// Server round trips and a pooled batch: pool queue and done latch,
// server connection list and completion, transport accept and queue,
// plus the tree, scheduler and network sites under the engine.
void ServeAndBatch(EngineStressRig& rig) {
  portal::SensorPortal portal(rig.tree.get(), rig.engine.get());
  ThreadPool pool(2);
  net::InProcTransport transport;
  net::PortalServer server(&portal, &pool, net::PortalServer::Options());
  const Status started = server.Start(transport.CreateListener());
  ASSERT_TRUE(started.ok()) << started.ToString();
  auto conn = transport.Connect();
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  net::PortalClient client(std::move(conn).value());
  for (size_t i = 0; i < 8; ++i) {
    const auto reply = client.Query(ViewportQuery(rig.workload, i));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  }
  client.Close();
  server.Stop();

  std::vector<std::string> texts;
  for (size_t i = 0; i < 8; ++i) {
    texts.push_back(ViewportQuery(rig.workload, i));
  }
  const auto batch = portal.ExecuteConcurrent(texts, pool);
  EXPECT_EQ(batch.results.size(), texts.size());
}

// The flat-cache baseline's catalog lock.
void FlatQuery(EngineStressRig& rig) {
  ColrEngine::Options eopts;
  eopts.mode = ColrEngine::Mode::kFlatCache;
  ColrEngine flat(rig.tree.get(), rig.network.get(), eopts);
  flat.Execute(rig.MakeQuery(0, 0));
}

// A moving clock: window rolls (the epoch's exclusive side) and the
// replay's collector latch. Its report carries its own sync delta.
void TimedReplay() {
  LiveLocalOptions wopts;
  wopts.num_sensors = 300;
  wopts.num_queries = 60;
  wopts.num_cities = 4;
  wopts.duration_ms = 12 * kMsPerMinute;
  wopts.expiry_min_ms = kMsPerMinute;
  wopts.expiry_max_ms = 2 * kMsPerMinute;
  wopts.seed = 0x517Eull;
  const LiveLocalWorkload w = GenerateLiveLocal(wopts);

  ReplayClock clock;
  SensorNetwork network(w.sensors, &clock);
  ColrTree::Options topts;
  topts.cluster.fanout = 4;
  topts.cluster.leaf_capacity = 16;
  topts.t_max_ms = wopts.expiry_max_ms;
  topts.slot_delta_ms = wopts.expiry_max_ms / 4;
  ColrTree tree(w.sensors, topts);
  ColrEngine engine(&tree, &network, ColrEngine::Options());
  portal::SensorPortal portal(&tree, &engine);

  replay::TimedReplayOptions opts;
  opts.speedup = 6000.0;
  opts.streams = 2;
  opts.collector_interval_ms = 15 * kMsPerSecond;
  opts.probes_per_tick = 32;
  const replay::TimedReplayReport report =
      replay::RunTimedReplay(portal, tree, network, w, clock, opts);
  EXPECT_EQ(report.errors, 0);
  EXPECT_GE(report.maintenance.rolls.load(), 1);
  EXPECT_TRUE(report.sync.enabled);
  EXPECT_GT(report.sync.sites[static_cast<size_t>(SyncSite::kReplayDone)]
                .acquisitions,
            0);
}

TEST(SyncSitesTest, EverySiteExceptTheRegistryRecords) {
  SyncStatsRegistry::Enable();
  const SyncStatsSnapshot before = SyncStatsRegistry::Instance().Snapshot();
  {
    EngineStressRig rig(/*cache_capacity=*/256);
    ServeAndBatch(rig);
    FlatQuery(rig);
  }
  TimedReplay();
  const SyncStatsSnapshot delta =
      SyncStatsDelta(SyncStatsRegistry::Instance().Snapshot(), before);
  for (int i = 0; i < kNumSyncSites; ++i) {
    const SyncSite site = static_cast<SyncSite>(i);
    const int64_t acquisitions =
        delta.sites[static_cast<size_t>(i)].acquisitions;
    if (site == SyncSite::kStatsRegistry) {
      EXPECT_EQ(acquisitions, 0) << "the registry's own lock recorded";
    } else {
      EXPECT_GT(acquisitions, 0) << SyncSiteName(site) << " recorded nothing";
    }
  }
}

TEST(SyncSitesTest, FreshThreadSnapshotReturnsWithStatsOn) {
  SyncStatsRegistry::Enable();
  SyncStatsSnapshot snap;
  std::thread fresh(
      [&snap] { snap = SyncStatsRegistry::Instance().Snapshot(); });
  fresh.join();
  EXPECT_TRUE(snap.enabled);
}

}  // namespace
}  // namespace colr
