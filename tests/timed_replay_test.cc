// Moving-clock replay: the only regime where window rolls, slot
// expunges and late-reading drops interleave with in-flight query
// execution. These tests are the tier-1 face of the TSan target in
// scripts/check.sh — run them under COLR_SANITIZE=thread to verify
// the maintenance/lookup interleavings are race-free.

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "concurrent_harness.h"
#include "core/engine.h"
#include "core/tree.h"
#include "gtest/gtest.h"
#include "portal/portal.h"
#include "replay/timed_replay.h"
#include "sensor/network.h"
#include "workload/live_local.h"

namespace colr {
namespace {

LiveLocalWorkload SmallWorkload() {
  LiveLocalOptions opts;
  opts.num_sensors = 400;
  opts.num_queries = 120;
  opts.num_cities = 8;
  opts.duration_ms = 20 * kMsPerMinute;
  // Short expiries so the 20 min trace spans many t_max periods: the
  // initial window covers t_max + margin, and rolls only start once
  // the trace outruns it.
  opts.expiry_min_ms = kMsPerMinute;
  opts.expiry_max_ms = 3 * kMsPerMinute;
  opts.seed = 0x5EED5EEDull;
  return GenerateLiveLocal(opts);
}

/// Everything RunTimedReplay needs, wired to one ReplayClock. The
/// store capacity is unconstrained (0) so expiry — not eviction — is
/// what removes readings, making the roll -> expunge cascade fire.
struct ReplayRig {
  explicit ReplayRig(const LiveLocalWorkload& workload) {
    SensorNetwork::Options nopts;
    nopts.simulated_latency_scale = 1e-3;
    network = std::make_unique<SensorNetwork>(workload.sensors, &clock,
                                              nopts);
    network->set_value_fn(MakeRestaurantWaitingTimeFn());

    tree = std::make_unique<ColrTree>(workload.sensors, ColrTree::Options());

    ColrEngine::Options eopts;
    eopts.mode = ColrEngine::Mode::kColr;
    eopts.track_availability = true;
    eopts.availability_refresh_ms = 2 * kMsPerMinute;
    engine = std::make_unique<ColrEngine>(tree.get(), network.get(), eopts);
    portal = std::make_unique<portal::SensorPortal>(tree.get(), engine.get());
  }

  ReplayClock clock;
  std::unique_ptr<SensorNetwork> network;
  std::unique_ptr<ColrTree> tree;
  std::unique_ptr<ColrEngine> engine;
  std::unique_ptr<portal::SensorPortal> portal;
};

TEST(TimedReplayTest, MovingClockStressIsConsistentAtQuiescence) {
  const LiveLocalWorkload workload = SmallWorkload();
  ReplayRig rig(workload);

  replay::TimedReplayOptions opts;
  opts.speedup = 6000.0;  // 20 min of trace in ~0.2 s of wall time
  opts.streams = 4;
  opts.collector_interval_ms = 15 * kMsPerSecond;
  opts.probes_per_tick = 48;
  const replay::TimedReplayReport report = replay::RunTimedReplay(
      *rig.portal, *rig.tree, *rig.network, workload, rig.clock, opts);

  EXPECT_EQ(report.queries,
            static_cast<int64_t>(workload.queries.size()));
  EXPECT_EQ(report.errors, 0);
  EXPECT_GT(report.collector_ticks, 0);
  EXPECT_GT(report.collector_inserts, 0);
  // The trace spans several t_max periods, so the window must have
  // rolled while queries were in flight...
  EXPECT_GE(report.maintenance.rolls.load(), 1);
  EXPECT_GE(report.rolls_per_tmax, 1.0);
  // ...and with an unconstrained store, rolled-out readings are
  // removed by expunge, not eviction.
  EXPECT_GT(report.maintenance.readings_expunged.load(), 0);
  EXPECT_EQ(report.maintenance.readings_evicted.load(), 0);
  // Latency percentiles are ordered.
  EXPECT_LE(report.p50_latency_ms, report.p99_latency_ms);
  EXPECT_LE(report.p99_latency_ms, report.max_latency_ms);

  EXPECT_TRUE(rig.tree->CheckCacheConsistency().ok());
}

TEST(TimedReplayTest, ReplayReportIsDeterministicInCounts) {
  const LiveLocalWorkload workload = SmallWorkload();
  replay::TimedReplayOptions opts;
  opts.speedup = 12000.0;
  opts.streams = 2;
  opts.max_queries = 60;

  ReplayRig a(workload);
  const replay::TimedReplayReport ra = replay::RunTimedReplay(
      *a.portal, *a.tree, *a.network, workload, a.clock, opts);
  ReplayRig b(workload);
  const replay::TimedReplayReport rb = replay::RunTimedReplay(
      *b.portal, *b.tree, *b.network, workload, b.clock, opts);

  // Wall-clock scheduling varies run to run, but the replayed trace
  // and its span do not.
  EXPECT_EQ(ra.queries, 60);
  EXPECT_EQ(rb.queries, 60);
  EXPECT_EQ(ra.errors, 0);
  EXPECT_EQ(rb.errors, 0);
  EXPECT_EQ(ra.trace_span_ms, rb.trace_span_ms);
  EXPECT_TRUE(a.tree->CheckCacheConsistency().ok());
  EXPECT_TRUE(b.tree->CheckCacheConsistency().ok());
}

// A warm-started tree (window already rolled, counters well away from
// zero) must not leak its lifetime totals into the replay report: the
// report's maintenance block is the post-run counters minus a snapshot
// taken at replay start. Before the delta fix, this tree's pre-run
// rolls/expunges showed up in report.maintenance and inflated
// rolls_per_tmax.
TEST(TimedReplayTest, WarmStartedTreeReportsPerRunDeltas) {
  const LiveLocalWorkload workload = SmallWorkload();
  ReplayRig rig(workload);

  // Warm: feed and roll the tree across several t_max periods. The
  // final advance parks the window past the whole trace, so the replay
  // itself cannot roll — any nonzero rolls in the report would be
  // pre-run counts leaking through.
  Rng rng(7);
  for (int step = 0; step < 40; ++step) {
    const TimeMs t = step * kMsPerMinute;
    rig.tree->AdvanceTo(t);
    for (int i = 0; i < 16; ++i) {
      const auto& s =
          workload.sensors[rng.UniformInt(workload.sensors.size())];
      Reading r;
      r.sensor = s.id;
      r.timestamp = t;
      r.expiry = t + s.expiry_ms;
      r.value = 1.0;
      rig.tree->InsertReading(r);
    }
  }
  // Park the window *unreachably* far, not merely past the trace: the
  // replay restarts the clock at the trace start and advances it at
  // `speedup` sim-ms per wall-ms, so on a loaded machine a slow run
  // can overshoot a park point that only clears the trace and roll
  // anyway. AdvanceTo jumps in O(1), so parking ~20 wall-minutes out
  // (at 12000x) costs nothing and makes the zero-roll assertion below
  // independent of scheduler noise.
  rig.tree->AdvanceTo(TimeMs{15'000'000'000});
  const int64_t rolls_before = rig.tree->maintenance().rolls.load();
  const int64_t expunged_before =
      rig.tree->maintenance().readings_expunged.load();
  ASSERT_GT(rolls_before, 0);
  ASSERT_GT(expunged_before, 0);

  replay::TimedReplayOptions opts;
  opts.speedup = 12000.0;
  opts.streams = 2;
  opts.max_queries = 40;
  const replay::TimedReplayReport report = replay::RunTimedReplay(
      *rig.portal, *rig.tree, *rig.network, workload, rig.clock, opts);

  EXPECT_EQ(report.queries, 40);
  // The report covers only this run's maintenance...
  EXPECT_EQ(report.maintenance.rolls.load(),
            rig.tree->maintenance().rolls.load() - rolls_before);
  EXPECT_EQ(report.maintenance.readings_expunged.load(),
            rig.tree->maintenance().readings_expunged.load() -
                expunged_before);
  // ...and since the window was parked past the trace, that is zero —
  // a lifetime-cumulative report would show rolls_before here.
  EXPECT_EQ(report.maintenance.rolls.load(), 0);
  EXPECT_EQ(report.rolls_per_tmax, 0.0);
  EXPECT_TRUE(rig.tree->CheckCacheConsistency().ok());
}

// Pins the interleaving S5 targets: one writer advancing the window
// (roll -> expunge) and inserting while readers run leaf lookups and
// per-sensor cache reads on the nodes being maintained. Run under
// TSan via scripts/check.sh (ctest -L tsan). The writer/reader loop
// is the shared harness in lockstep mode with a single writer: each
// round advances the window to round * step and rewrites the catalog
// while the readers free-run against it.
TEST(TimedReplayTest, ExpungeRacingLeafLookupIsRaceFree) {
  namespace ct = colr::testing;
  const uint64_t seed = ct::StressSeed(0xE7C4A6E5EEDull);
  ct::SeedLogger log(seed);
  const auto sensors = ct::GridSensors(64, 4 * kMsPerMinute);
  ColrTree tree(sensors, ct::StressTreeOptions(0));

  ct::WriterRollerOptions opts;
  opts.writers = 1;
  opts.readers = 3;
  opts.rounds = 150;
  opts.step_ms = 30 * kMsPerSecond;  // half a slot per round
  opts.lockstep = true;
  opts.seed = seed;
  opts.reader_fn = [](ColrTree& t, TimeMs now, int r, uint64_t iter) {
    uint64_t sink = 0;
    const SensorId id = static_cast<SensorId>((iter + r) % 64);
    const auto lookup =
        t.LookupCache(t.LeafOf(id), now, 2 * kMsPerMinute);
    sink += static_cast<uint64_t>(lookup.agg.count);
    if (t.CachedReading(id).has_value()) ++sink;
    sink += static_cast<uint64_t>(t.CachedCount(
        t.root(), now, 2 * kMsPerMinute));
    return sink;
  };
  const ct::WriterRollerOutcome run =
      ct::RunWriterRollerStress(tree, sensors, opts);

  // Quiesce: one final advance past everything, then the invariant.
  tree.AdvanceTo(run.final_advance_ms + 10 * kMsPerMinute);
  EXPECT_GE(tree.maintenance().rolls.load(), 1);
  EXPECT_GT(tree.maintenance().readings_expunged.load(), 0);
  EXPECT_EQ(tree.CachedReadingCount(), 0u);
  EXPECT_TRUE(tree.CheckCacheConsistency().ok());
}

}  // namespace
}  // namespace colr
