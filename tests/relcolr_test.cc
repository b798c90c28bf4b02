#include "relcolr/relcolr.h"

#include <algorithm>
#include <memory>

#include "common/rng.h"
#include "common/stats.h"
#include "core/engine.h"
#include "gtest/gtest.h"
#include "sensor/network.h"
#include "workload/live_local.h"

namespace colr {
namespace {

constexpr TimeMs kMin = kMsPerMinute;

ColrTree::Options TreeOptions(size_t capacity = 0) {
  ColrTree::Options opts;
  opts.cluster.fanout = 4;
  opts.cluster.leaf_capacity = 8;
  opts.slot_delta_ms = kMin;
  opts.t_max_ms = 5 * kMin;
  opts.cache_capacity = capacity;
  return opts;
}

struct Rig {
  explicit Rig(int n, uint64_t seed, size_t capacity = 0) {
    Rng rng(seed);
    sensors = MakeUniformSensors(n, Rect::FromCorners(0, 0, 100, 100),
                                 5 * kMin, 1.0, rng);
    tree = std::make_unique<ColrTree>(sensors, TreeOptions(capacity));
    relational = std::make_unique<RelColr>(*tree);
  }

  Reading MakeReading(int sensor, TimeMs ts, double value) {
    const SensorInfo& s = sensors[sensor];
    return Reading{s.id, ts, ts + s.expiry_ms, value};
  }

  /// Inserts into both implementations.
  void InsertBoth(const Reading& r) {
    tree->InsertReading(r);
    ASSERT_TRUE(relational->InsertReading(r).ok());
  }

  /// Asserts every node's every in-window slot aggregate matches
  /// between the native and relational implementations.
  void CheckAllSlotsMatch() {
    const SlotScheme& scheme = tree->scheme();
    for (int id = 0; id < static_cast<int>(tree->num_nodes()); ++id) {
      for (SlotId s = scheme.oldest(); s <= scheme.newest(); ++s) {
        const Aggregate& native = tree->slot_cache(id).Get(scheme, s);
        const Aggregate relational_agg =
            relational->NodeSlotAggregate(id, s);
        ASSERT_EQ(native.count, relational_agg.count)
            << "node " << id << " slot " << s;
        ASSERT_NEAR(native.sum, relational_agg.sum, 1e-9);
        if (native.count > 0) {
          ASSERT_DOUBLE_EQ(native.min, relational_agg.min);
          ASSERT_DOUBLE_EQ(native.max, relational_agg.max);
        }
      }
    }
  }

  std::vector<SensorInfo> sensors;
  std::unique_ptr<ColrTree> tree;
  std::unique_ptr<RelColr> relational;
};

TEST(RelColrTest, SchemaMirrorsTree) {
  Rig rig(100, 1);
  const rel::Database& db = rig.relational->db();
  EXPECT_EQ(rig.relational->num_layers(), rig.tree->height());
  // cache tables for every level, layer tables for internal levels,
  // plus readings/sensors/window.
  for (int level = 0; level < rig.tree->height(); ++level) {
    EXPECT_NE(db.GetTable("cache" + std::to_string(level)), nullptr);
  }
  for (int level = 0; level + 1 < rig.tree->height(); ++level) {
    EXPECT_NE(db.GetTable("layer" + std::to_string(level)), nullptr);
  }
  EXPECT_NE(db.GetTable("readings"), nullptr);
  EXPECT_NE(db.GetTable("sensors"), nullptr);
  EXPECT_NE(db.GetTable("window"), nullptr);
}

TEST(RelColrTest, LayerTablesMatchStructure) {
  Rig rig(150, 2);
  const rel::Database& db = rig.relational->db();
  // Every internal node's edges appear in its layer table.
  int edges_expected = 0;
  for (int id = 0; id < static_cast<int>(rig.tree->num_nodes()); ++id) {
    edges_expected +=
        static_cast<int>(rig.tree->children(id).size());
  }
  int edges_found = 0;
  for (int level = 0; level + 1 < rig.tree->height(); ++level) {
    const rel::Table* layer =
        db.GetTable("layer" + std::to_string(level));
    ASSERT_NE(layer, nullptr);
    edges_found += static_cast<int>(layer->size());
  }
  EXPECT_EQ(edges_found, edges_expected);
  // The sensor catalog is complete.
  EXPECT_EQ(db.GetTable("sensors")->size(), rig.sensors.size());
}

TEST(RelColrTest, SingleInsertPropagatesToRoot) {
  Rig rig(100, 3);
  rig.InsertBoth(rig.MakeReading(0, 0, 42.0));
  const SlotId slot =
      rig.tree->scheme().SlotOf(rig.sensors[0].expiry_ms);
  const Aggregate root =
      rig.relational->NodeSlotAggregate(rig.tree->root(), slot);
  EXPECT_EQ(root.count, 1);
  EXPECT_DOUBLE_EQ(root.sum, 42.0);
  rig.CheckAllSlotsMatch();
}

TEST(RelColrTest, ReplacementMatchesNative) {
  Rig rig(100, 4);
  rig.InsertBoth(rig.MakeReading(0, 0, 10.0));
  rig.InsertBoth(rig.MakeReading(0, 30'000, 99.0));
  EXPECT_EQ(rig.relational->NumCachedReadings(), 1u);
  rig.CheckAllSlotsMatch();
}

TEST(RelColrTest, RandomStreamMatchesNative) {
  Rig rig(120, 5);
  Rng rng(6);
  TimeMs now = 0;
  for (int step = 0; step < 400; ++step) {
    now += rng.UniformInt(20'000);
    const int sensor = static_cast<int>(rng.UniformInt(120));
    rig.InsertBoth(rig.MakeReading(sensor, now, rng.Uniform(-10, 10)));
    if (step % 100 == 99) rig.CheckAllSlotsMatch();
  }
  rig.CheckAllSlotsMatch();
  EXPECT_EQ(rig.relational->NumCachedReadings(),
            rig.tree->CachedReadingCount());
}

TEST(RelColrTest, WindowRollExpungesInBoth) {
  Rig rig(80, 7);
  rig.InsertBoth(rig.MakeReading(0, 0, 5.0));
  EXPECT_EQ(rig.relational->NumCachedReadings(), 1u);
  // A much later reading rolls the window past the first one.
  rig.InsertBoth(rig.MakeReading(1, kMsPerHour, 6.0));
  EXPECT_EQ(rig.relational->NumCachedReadings(), 1u);
  rig.tree->AdvanceTo(kMsPerHour);  // native expunges on its own roll
  rig.CheckAllSlotsMatch();
}

TEST(RelColrTest, CachedAggregateMatchesNativeLookup) {
  Rig rig(150, 8);
  Rng rng(9);
  TimeMs now = 10 * kMin;
  for (int i = 0; i < 60; ++i) {
    rig.InsertBoth(rig.MakeReading(static_cast<int>(rng.UniformInt(150)),
                                   now, rng.Uniform(0, 100)));
  }
  for (TimeMs staleness : {kMin, 3 * kMin, 10 * kMin}) {
    const Aggregate native =
        rig.tree->LookupCache(rig.tree->root(), now, staleness).agg;
    const Aggregate relational =
        rig.relational->CachedAggregate(rig.tree->root(), now, staleness);
    EXPECT_EQ(native.count, relational.count) << "staleness " << staleness;
    EXPECT_NEAR(native.sum, relational.sum, 1e-9);
  }
}

TEST(RelColrTest, SensorSelectionFindsUncachedInRegion) {
  Rig rig(200, 10);
  const Rect region = Rect::FromCorners(20, 20, 80, 80);
  const TimeMs now = 10 * kMin;

  // Initially: everything in the region must be probed.
  auto to_probe = rig.relational->SensorSelection(region, now, 5 * kMin);
  std::vector<SensorId> expected;
  for (const auto& s : rig.sensors) {
    if (region.Contains(s.location)) expected.push_back(s.id);
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(to_probe, expected);

  // Cache half of them; selection shrinks accordingly.
  for (size_t i = 0; i < expected.size(); i += 2) {
    rig.InsertBoth(rig.MakeReading(expected[i], now, 1.0));
  }
  auto remaining = rig.relational->SensorSelection(region, now, 5 * kMin);
  EXPECT_EQ(remaining.size(), expected.size() / 2);
  for (SensorId sid : remaining) {
    EXPECT_TRUE(region.Contains(rig.sensors[sid].location));
  }
}

TEST(RelColrTest, CacheReadAggregatesContainedNodes) {
  Rig rig(200, 11);
  const TimeMs now = 10 * kMin;
  for (const auto& s : rig.sensors) {
    rig.InsertBoth(Reading{s.id, now, now + s.expiry_ms, 2.0});
  }
  // Level-1 nodes fully inside the whole extent: all of them.
  rel::Relation r = rig.relational->CacheRead(
      Rect::FromCorners(-1, -1, 101, 101), now, 5 * kMin, 1);
  ASSERT_GT(r.size(), 0u);
  const int cnt = r.IndexOf("cnt");
  const int node_col = r.IndexOf("node_id");
  int64_t total = 0;
  for (const auto& row : r.rows) {
    const int node = static_cast<int>(row[node_col].AsInt());
    EXPECT_EQ(rig.tree->node(node).level, 1);
    EXPECT_EQ(row[cnt].AsInt(), rig.tree->node(node).Weight());
    total += row[cnt].AsInt();
  }
  EXPECT_EQ(total, 200);
}

TEST(RelColrTest, CapacityEvictionKeepsTablesConsistent) {
  Rig rig(100, 12, /*capacity=*/20);
  Rng rng(13);
  TimeMs now = 0;
  for (int step = 0; step < 200; ++step) {
    now += 5'000;
    const Reading r = rig.MakeReading(
        static_cast<int>(rng.UniformInt(100)), now, rng.Uniform(0, 10));
    ASSERT_TRUE(rig.relational->InsertReading(r).ok());
    ASSERT_LE(rig.relational->NumCachedReadings(), 20u);
  }
  // The cache tables must mirror the surviving readings exactly:
  // recompute the root aggregate from the readings table.
  const rel::Table* readings =
      rig.relational->db().GetTable("readings");
  Aggregate expected;
  readings->Scan([&](rel::Table::RowId, const rel::Row& row) {
    expected.Add(row[5].AsDouble());
    return true;
  });
  Aggregate root;
  const SlotScheme& scheme = rig.tree->scheme();
  for (SlotId s = rig.relational->oldest_slot();
       s <= rig.relational->newest_slot(); ++s) {
    root.Merge(rig.relational->NodeSlotAggregate(rig.tree->root(), s));
  }
  (void)scheme;
  EXPECT_EQ(root.count, expected.count);
  EXPECT_NEAR(root.sum, expected.sum, 1e-9);
}

// End-to-end §VI: run a query stream through the relational engine's
// access methods and through the native hier-cache engine; totals,
// probe counts and cache hits must agree query by query.
TEST(RelColrTest, RangeQueryMatchesNativeHierEngine) {
  Rig rig(300, 20);
  SimClock clock(10 * kMin);
  SensorNetwork network(rig.sensors, &clock);
  network.set_value_fn(
      [](const SensorInfo& s, TimeMs) { return s.location.y; });
  // Native engine on its own tree (same construction parameters).
  ColrTree native_tree(rig.sensors, TreeOptions());
  ColrEngine::Options eopts;
  eopts.mode = ColrEngine::Mode::kHierCache;
  ColrEngine native(&native_tree, &network, eopts);

  // Relational side shares the network, probing the selected ids.
  auto probe = [&network](const std::vector<SensorId>& ids) {
    return network.ProbeBatch(ids).readings;
  };

  Rng rng(21);
  for (int step = 0; step < 40; ++step) {
    clock.AdvanceMs(rng.UniformInt(2 * kMin));
    const double x = rng.Uniform(0, 60);
    const double y = rng.Uniform(0, 60);
    const Rect region = Rect::FromCorners(x, y, x + 40, y + 40);
    const TimeMs staleness = 4 * kMin;

    RelColr::RangeResult relational = rig.relational->ExecuteRangeQuery(
        region, clock.NowMs(), staleness, probe);

    Query q;
    q.region = QueryRegion::FromRect(region);
    q.staleness_ms = staleness;
    q.sample_size = 0;
    q.cluster_level = 0;
    QueryResult native_result = native.Execute(q);

    const Aggregate native_total = native_result.Total();
    ASSERT_EQ(relational.total.count, native_total.count)
        << "step " << step;
    ASSERT_NEAR(relational.total.sum, native_total.sum, 1e-6);
    ASSERT_EQ(relational.probes_attempted,
              native_result.stats.sensors_probed);
  }
  rig.CheckAllSlotsMatch();
}

// Differential replay of a seeded Live-Local trace: the same query
// stream runs through the native hier-cache engine and through the
// relcolr relational expression (caching enabled on both sides, one
// shared network), and every query's aggregate must agree. Both
// engines are deterministic under availability 1.0, a pure value
// function and unbounded capacity, so the assertions are exact in
// count and probe count and tight in sum.
TEST(RelColrTest, LiveLocalTraceMatchesNativeDifferentially) {
  LiveLocalOptions wopts;
  wopts.num_sensors = 250;
  wopts.num_queries = 60;
  wopts.num_cities = 6;
  wopts.extent = Rect::FromCorners(0, 0, 100, 100);
  wopts.duration_ms = 20 * kMin;
  wopts.seed = 0xD1FFull;
  LiveLocalWorkload workload = GenerateLiveLocal(wopts);
  // Probes must be deterministic: no availability-driven failures.
  for (auto& s : workload.sensors) s.availability = 1.0;

  SimClock clock;
  SensorNetwork network(workload.sensors, &clock);
  network.set_value_fn([](const SensorInfo& s, TimeMs t) {
    return s.location.x + s.location.y +
           static_cast<double>(t % kMin) / kMin;
  });

  ColrTree::Options topts;
  topts.cluster.fanout = 4;
  topts.cluster.leaf_capacity = 8;
  topts.t_max_ms = wopts.expiry_max_ms;
  topts.slot_delta_ms = wopts.expiry_max_ms / 4;
  topts.cache_capacity = 0;

  // Relational side: its own tree mirrored into tables.
  ColrTree relational_tree(workload.sensors, topts);
  RelColr relational(relational_tree);
  auto probe = [&network](const std::vector<SensorId>& ids) {
    return network.ProbeBatch(ids).readings;
  };

  // Native side: an independent tree with the same construction.
  ColrTree native_tree(workload.sensors, topts);
  ColrEngine::Options eopts;
  eopts.mode = ColrEngine::Mode::kHierCache;
  ColrEngine native(&native_tree, &network, eopts);

  const TimeMs staleness = wopts.expiry_max_ms / 2;
  int steps = 0;
  for (const auto& rec : workload.queries) {
    clock.SetMs(rec.at);

    RelColr::RangeResult rel_result = relational.ExecuteRangeQuery(
        rec.region, clock.NowMs(), staleness, probe);

    Query q;
    q.region = QueryRegion::FromRect(rec.region);
    q.staleness_ms = staleness;
    q.sample_size = 0;
    q.cluster_level = 0;
    QueryResult native_result = native.Execute(q);

    const Aggregate native_total = native_result.Total();
    ASSERT_EQ(rel_result.total.count, native_total.count)
        << "query " << steps << " at t=" << rec.at;
    ASSERT_NEAR(rel_result.total.sum, native_total.sum, 1e-6)
        << "query " << steps << " at t=" << rec.at;
    ASSERT_EQ(rel_result.probes_attempted,
              native_result.stats.sensors_probed)
        << "query " << steps << " at t=" << rec.at;
    ++steps;
  }
  EXPECT_EQ(steps, wopts.num_queries);
  // Both caches end internally consistent with each other.
  EXPECT_EQ(relational.NumCachedReadings(),
            native_tree.CachedReadingCount());
  EXPECT_TRUE(native_tree.CheckCacheConsistency().ok());
}

TEST(RelColrTest, SampledSensorSelectionApproximatesTarget) {
  Rig rig(1500, 22);
  const Rect region = Rect::FromCorners(0, 0, 100, 100);
  const TimeMs now = 10 * kMin;
  Rng rng(23);
  RunningStat sizes;
  for (int rep = 0; rep < 40; ++rep) {
    auto probe_set = rig.relational->SampledSensorSelection(
        region, now, 5 * kMin, 60, rng);
    sizes.Add(static_cast<double>(probe_set.size()));
    for (SensorId sid : probe_set) {
      ASSERT_TRUE(region.Contains(rig.sensors[sid].location));
    }
    // No duplicates.
    ASSERT_TRUE(std::adjacent_find(probe_set.begin(), probe_set.end()) ==
                probe_set.end());
  }
  EXPECT_NEAR(sizes.mean(), 60.0, 12.0);
  // Target 0 selects nothing.
  EXPECT_TRUE(rig.relational
                  ->SampledSensorSelection(region, now, 5 * kMin, 0, rng)
                  .empty());
}

TEST(RelColrTest, SampledSelectionUsesCache) {
  Rig rig(800, 24);
  const Rect region = Rect::FromCorners(0, 0, 100, 100);
  const TimeMs now = 10 * kMin;
  // Cache everything: nothing should need probing.
  for (const auto& s : rig.sensors) {
    ASSERT_TRUE(rig.relational
                    ->InsertReading({s.id, now, now + s.expiry_ms, 1.0})
                    .ok());
  }
  Rng rng(25);
  auto probe_set = rig.relational->SampledSensorSelection(
      region, now, 5 * kMin, 50, rng);
  EXPECT_TRUE(probe_set.empty());
  // And never returns a sensor that is already usable in the cache.
  auto half_warm = Rig(800, 26);
  for (size_t i = 0; i < half_warm.sensors.size(); i += 2) {
    const auto& s = half_warm.sensors[i];
    ASSERT_TRUE(half_warm.relational
                    ->InsertReading({s.id, now, now + s.expiry_ms, 1.0})
                    .ok());
  }
  auto probes = half_warm.relational->SampledSensorSelection(
      region, now, 5 * kMin, 100, rng);
  for (SensorId sid : probes) {
    EXPECT_EQ(sid % 2, 1u) << "selected a cached sensor";
  }
}

TEST(RelColrTest, InsertBeyondWindowRejected) {
  Rig rig(50, 14);
  rig.InsertBoth(rig.MakeReading(0, kMsPerHour, 1.0));
  // A reading whose expiry slot predates the (rolled) window start.
  Reading ancient = rig.MakeReading(1, 0, 2.0);
  EXPECT_FALSE(rig.relational->InsertReading(ancient).ok());
}

}  // namespace
}  // namespace colr
