// Cross-cutting property tests: invariants that must hold for every
// engine configuration, slot width, staleness bound and availability
// level, checked over randomized portal replays (TEST_P sweeps).

#include <algorithm>
#include <cmath>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "concurrent_harness.h"
#include "core/engine.h"
#include "determinism_fingerprint.h"
#include "gtest/gtest.h"
#include "sensor/network.h"

namespace colr {
namespace {

constexpr TimeMs kMin = kMsPerMinute;

// ---------------------------------------------------------------------------
// SlotScheme: algebraic invariants across (delta, span) combinations.
// ---------------------------------------------------------------------------

class SlotSchemeSweep
    : public ::testing::TestWithParam<std::tuple<TimeMs, TimeMs>> {};

TEST_P(SlotSchemeSweep, SlotAlgebra) {
  const auto [delta, span] = GetParam();
  SlotScheme scheme(delta, span);
  Rng rng(delta + span);
  EXPECT_GE(scheme.num_slots() * scheme.delta(), span);
  for (int i = 0; i < 2000; ++i) {
    const TimeMs t =
        static_cast<TimeMs>(rng.UniformInt(10 * span)) - 3 * span;
    const SlotId slot = scheme.SlotOf(t);
    // Every timestamp falls inside its slot's [lower, upper) range.
    EXPECT_GE(t, scheme.SlotLowerEdge(slot));
    EXPECT_LT(t, scheme.SlotUpperEdge(slot));
    // Slot ids are monotone in time.
    EXPECT_LE(scheme.SlotOf(t - 1), slot);
    EXPECT_GE(scheme.SlotOf(t + 1), slot);
  }
  // Rolling is idempotent and monotone.
  const SlotId target = scheme.newest() + 7;
  scheme.RollTo(target);
  EXPECT_EQ(scheme.newest(), target);
  scheme.RollTo(target - 3);
  EXPECT_EQ(scheme.newest(), target);
  EXPECT_EQ(scheme.oldest(), target - scheme.num_slots() + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Widths, SlotSchemeSweep,
    ::testing::Combine(::testing::Values<TimeMs>(1, 250, 1000, 60000),
                       ::testing::Values<TimeMs>(1000, 90000, 600000)));

// ---------------------------------------------------------------------------
// Tree maintenance: cache consistency across slot widths and
// capacities under randomized reading streams.
// ---------------------------------------------------------------------------

class TreeMaintenanceSweep
    : public ::testing::TestWithParam<std::tuple<TimeMs, size_t>> {};

TEST_P(TreeMaintenanceSweep, CacheStaysConsistent) {
  const auto [delta, capacity] = GetParam();
  Rng rng(17 + delta + capacity);
  auto sensors = MakeUniformSensors(
      120, Rect::FromCorners(0, 0, 100, 100), 5 * kMin, 1.0, rng);
  for (auto& s : sensors) {
    s.expiry_ms = kMin + static_cast<TimeMs>(rng.UniformInt(4 * kMin));
  }
  ColrTree::Options topts;
  topts.cluster.fanout = 4;
  topts.cluster.leaf_capacity = 8;
  topts.slot_delta_ms = delta;
  topts.t_max_ms = 5 * kMin;
  topts.cache_capacity = capacity;
  ColrTree tree(sensors, topts);

  TimeMs now = 0;
  for (int step = 0; step < 600; ++step) {
    now += rng.UniformInt(8000);
    const auto& s = sensors[rng.UniformInt(sensors.size())];
    tree.InsertReading({s.id, now, now + s.expiry_ms,
                        rng.Uniform(-100, 100)});
  }
  EXPECT_TRUE(tree.CheckCacheConsistency().ok());
  if (capacity > 0) {
    EXPECT_LE(tree.CachedReadingCount(), capacity);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DeltasAndCapacities, TreeMaintenanceSweep,
    ::testing::Combine(::testing::Values<TimeMs>(15000, kMin, 150000),
                       ::testing::Values<size_t>(0, 25, 60)));

// ---------------------------------------------------------------------------
// Writer shard levels are a performance knob, not a semantic one: the
// same lockstep-paced concurrent insert/roll phase must leave an
// identical quiescent cache at every writer_shard_level. The
// fingerprint uses only interleaving-independent state (see
// QuiescentCacheFingerprint); capacity is 0 because eviction order is
// interleaving-dependent.
// ---------------------------------------------------------------------------

class WriterShardLevelSweep : public ::testing::TestWithParam<int> {};

uint64_t ShardLevelRunFingerprint(int shard_level, uint64_t seed) {
  namespace ct = colr::testing;
  const auto sensors = ct::GridSensors(256, 4 * kMin);
  ColrTree tree(sensors, ct::StressTreeOptions(0, shard_level));

  ct::WriterRollerOptions opts;
  opts.writers = 4;
  opts.rounds = 48;
  opts.step_ms = 20 * kMsPerSecond;
  opts.lockstep = true;  // deterministic timestamps across levels
  opts.touch_every = 5;
  opts.seed = seed;
  const ct::WriterRollerOutcome run =
      ct::RunWriterRollerStress(tree, sensors, opts);
  EXPECT_EQ(run.inserts, static_cast<int64_t>(sensors.size()) * opts.rounds);

  EXPECT_TRUE(tree.CheckCacheConsistency().ok())
      << "shard_level=" << shard_level << ": "
      << tree.CheckCacheConsistency().ToString();
  return ct::QuiescentCacheFingerprint(tree, sensors.size(),
                                       run.final_advance_ms, 4 * kMin);
}

TEST_P(WriterShardLevelSweep, QuiescentStateMatchesSerializedBaseline) {
  const int shard_level = GetParam();
  const uint64_t seed = colr::testing::StressSeed(0x54A8DE7E1ull);
  colr::testing::SeedLogger log(seed);
  // Level 0 (single shard) is the serialized baseline every sharded
  // level must reproduce bit for bit at quiescence.
  const uint64_t baseline = ShardLevelRunFingerprint(0, seed);
  const uint64_t actual = ShardLevelRunFingerprint(shard_level, seed);
  EXPECT_EQ(actual, baseline) << "shard_level=" << shard_level;
}

INSTANTIATE_TEST_SUITE_P(ShardLevels, WriterShardLevelSweep,
                         ::testing::Values(0, 1, 2));

// ---------------------------------------------------------------------------
// Engine invariants across modes, staleness and availability.
// ---------------------------------------------------------------------------

struct EngineCase {
  ColrEngine::Mode mode;
  TimeMs staleness;
  double availability;
  int sample_size;
};

/// Prints a case as a readable name such as `hier_cache_8min_a80_r0`
/// (mode, staleness, availability percent, sample size); ctest names
/// each discovered case by it. Without it gtest prints the struct's
/// bytes, padding included, which differ from build to build.
void PrintTo(const EngineCase& c, std::ostream* os) {
  std::string mode = ColrEngine::ModeName(c.mode);
  std::replace(mode.begin(), mode.end(), '-', '_');
  *os << mode << "_" << c.staleness / kMin << "min_a"
      << std::lround(c.availability * 100) << "_r" << c.sample_size;
}

class EngineInvariantSweep
    : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineInvariantSweep, ServedDataRespectsContract) {
  const EngineCase c = GetParam();
  SimClock clock(20 * kMin);
  Rng rng(31);
  auto sensors = MakeUniformSensors(
      1200, Rect::FromCorners(0, 0, 100, 100), 4 * kMin,
      c.availability, rng);
  SensorNetwork network(sensors, &clock);
  ColrTree::Options topts;
  topts.slot_delta_ms = kMin;
  topts.t_max_ms = 4 * kMin;
  topts.cache_capacity = 400;
  ColrTree tree(sensors, topts);
  ColrEngine::Options eopts;
  eopts.mode = c.mode;
  ColrEngine engine(&tree, &network, eopts);

  for (int step = 0; step < 40; ++step) {
    clock.AdvanceMs(rng.UniformInt(2 * kMin));
    const double x = rng.Uniform(0, 70);
    const double y = rng.Uniform(0, 70);
    Query q;
    q.region = QueryRegion::FromRect(
        Rect::FromCorners(x, y, x + rng.Uniform(5, 30),
                          y + rng.Uniform(5, 30)));
    q.staleness_ms = c.staleness;
    q.sample_size = c.sample_size;
    q.cluster_level = 2;
    q.return_readings = true;
    const TimeMs now = clock.NowMs();
    QueryResult r = engine.Execute(q);

    // Probes are honest.
    ASSERT_LE(r.stats.probe_successes, r.stats.sensors_probed);
    ASSERT_GE(r.stats.sensors_probed, 0);

    // Freshly collected readings: in-region, stamped now.
    for (const Reading& reading : r.collected) {
      ASSERT_TRUE(
          q.region.Contains(tree.sensor(reading.sensor).location));
      ASSERT_EQ(reading.timestamp, now);
    }
    // Cache-served readings: in-region and within the freshness
    // contract (valid at the staleness bound).
    for (const Reading& reading : r.served_from_cache) {
      ASSERT_TRUE(
          q.region.Contains(tree.sensor(reading.sensor).location));
      ASSERT_TRUE(reading.ValidAt(now - c.staleness))
          << "served a reading that expired before the bound";
    }
    // Group structure respects the cluster level.
    for (const GroupResult& g : r.groups) {
      if (g.node_id >= 0) {
        ASSERT_LE(tree.node(g.node_id).level, q.cluster_level);
      }
    }
    // Aggregate totals equal the readings that produced them
    // (return_readings disables aggregate-only shortcuts).
    const int64_t total = r.Total().count;
    ASSERT_EQ(total, static_cast<int64_t>(r.collected.size() +
                                          r.served_from_cache.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndParameters, EngineInvariantSweep,
    ::testing::Values(
        EngineCase{ColrEngine::Mode::kRTree, 2 * kMin, 1.0, 0},
        EngineCase{ColrEngine::Mode::kRTree, 2 * kMin, 0.7, 0},
        EngineCase{ColrEngine::Mode::kFlatCache, 2 * kMin, 1.0, 0},
        EngineCase{ColrEngine::Mode::kFlatCache, 8 * kMin, 0.8, 0},
        EngineCase{ColrEngine::Mode::kHierCache, kMin, 1.0, 0},
        EngineCase{ColrEngine::Mode::kHierCache, 8 * kMin, 0.8, 0},
        EngineCase{ColrEngine::Mode::kColr, 2 * kMin, 1.0, 25},
        EngineCase{ColrEngine::Mode::kColr, 2 * kMin, 0.6, 25},
        EngineCase{ColrEngine::Mode::kColr, 8 * kMin, 0.9, 100}));

}  // namespace
}  // namespace colr
