// Microbenchmarks (google-benchmark) for COLR-Tree's primitive
// operations — the ablation knobs behind the figure harnesses: slot
// cache maintenance, reading-table eviction, cluster-tree
// construction, layered sampling, and full engine execution in each
// configuration.

#include <benchmark/benchmark.h>

#include <mutex>
#include <vector>

#include "common/rng.h"
#include "common/sync.h"
#include "common/sync_stats.h"
#include "core/engine.h"
#include "core/reading_table.h"
#include "core/sampling.h"
#include "core/slot_cache.h"
#include "core/tree.h"
#include "sensor/network.h"

namespace colr {
namespace {

constexpr TimeMs kMin = kMsPerMinute;

std::vector<SensorInfo> BenchSensors(int n, uint64_t seed = 1) {
  Rng rng(seed);
  return MakeUniformSensors(n, Rect::FromCorners(0, 0, 100, 100), 5 * kMin,
                            0.9, rng);
}

ColrTree::Options BenchTreeOptions(size_t capacity = 0) {
  ColrTree::Options opts;
  opts.slot_delta_ms = kMin;
  opts.t_max_ms = 5 * kMin;
  opts.cache_capacity = capacity;
  return opts;
}

// ---------------------------------------------------------------------------
// Slot cache primitives
// ---------------------------------------------------------------------------

void BM_SlotCacheAdd(benchmark::State& state) {
  SlotScheme scheme(kMin, 5 * kMin);
  AggregateSlotCache cache(scheme.num_slots());
  Rng rng(1);
  SlotId slot = scheme.oldest();
  for (auto _ : state) {
    cache.Add(scheme, slot, rng.NextDouble());
    if (++slot > scheme.newest()) slot = scheme.oldest();
  }
}
BENCHMARK(BM_SlotCacheAdd);

void BM_SlotCacheQuery(benchmark::State& state) {
  SlotScheme scheme(kMin, 5 * kMin);
  AggregateSlotCache cache(scheme.num_slots());
  Rng rng(2);
  for (SlotId s = scheme.oldest(); s <= scheme.newest(); ++s) {
    for (int i = 0; i < 100; ++i) cache.Add(scheme, s, rng.NextDouble());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.QueryNewerThan(scheme, scheme.oldest()));
  }
}
BENCHMARK(BM_SlotCacheQuery);

void BM_SlotCacheRoll(benchmark::State& state) {
  SlotScheme scheme(kMin, 5 * kMin);
  AggregateSlotCache cache(scheme.num_slots());
  Rng rng(3);
  SlotId next = scheme.newest() + 1;
  for (auto _ : state) {
    scheme.RollTo(next);
    cache.Add(scheme, next, rng.NextDouble());
    ++next;
  }
}
BENCHMARK(BM_SlotCacheRoll);

// FlatCache's maintenance on one table partition: expunge after a
// roll, insert, then evict down to a 1,000-reading capacity.
void BM_ReadingTableInsertWithEviction(benchmark::State& state) {
  SlotScheme scheme(kMin, 5 * kMin);
  ReadingTable table(5000, 1, scheme.num_slots());
  Rng rng(4);
  TimeMs now = 0;
  SensorId sid = 0;
  for (auto _ : state) {
    now += 10;
    scheme.RollTo(scheme.SlotOf(now + 5 * kMin));
    while (const auto v = table.PeekVictim(0)) {
      if (v->slot >= scheme.oldest()) break;
      table.Erase(0, scheme, v->key);
    }
    const Reading r{sid++ % 5000, now, now + kMin +
                        static_cast<TimeMs>(rng.UniformInt(4 * kMin)), 1.0};
    benchmark::DoNotOptimize(table.Insert(0, scheme, r.sensor, r));
    while (table.size(0) > 1000) {
      table.Erase(0, scheme, table.PeekVictim(0, r.sensor)->key);
    }
  }
}
BENCHMARK(BM_ReadingTableInsertWithEviction);

// ---------------------------------------------------------------------------
// Index construction
// ---------------------------------------------------------------------------

void BM_ClusterTreeBuild(benchmark::State& state) {
  auto sensors = BenchSensors(static_cast<int>(state.range(0)));
  std::vector<Point> points;
  for (const auto& s : sensors) points.push_back(s.location);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildClusterTree(points));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ClusterTreeBuild)->Arg(1000)->Arg(10000)->Arg(50000);

// ---------------------------------------------------------------------------
// Sampling & engine
// ---------------------------------------------------------------------------

void BM_LayeredSampling(benchmark::State& state) {
  SimClock clock(30 * kMin);
  auto sensors = BenchSensors(50000);
  SensorNetwork network(sensors, &clock);
  ColrTree tree(network.sensors(), BenchTreeOptions());
  auto probe = [&network](const std::vector<SensorId>& ids) {
    // Sampler microbench measures the raw sampling ladder, not the
    // serving path's scheduler.
    // colr-lint: allow(probe-path): raw-network sampling microbench
    return network.ProbeBatch(ids).readings;
  };
  LayeredSampler::Options opts;
  opts.target = static_cast<double>(state.range(0));
  Rng rng(7);
  const QueryRegion region =
      QueryRegion::FromRect(Rect::FromCorners(10, 10, 90, 90));
  for (auto _ : state) {
    benchmark::DoNotOptimize(LayeredSampler::Run(
        tree, region, clock.NowMs(), 5 * kMin, opts, rng, probe));
  }
}
BENCHMARK(BM_LayeredSampling)->Arg(30)->Arg(300);

void BM_EngineQuery(benchmark::State& state) {
  const auto mode = static_cast<ColrEngine::Mode>(state.range(0));
  SimClock clock(30 * kMin);
  auto sensors = BenchSensors(50000);
  SensorNetwork network(sensors, &clock);
  ColrTree tree(network.sensors(), BenchTreeOptions(sensors.size() / 4));
  ColrEngine::Options eopts;
  eopts.mode = mode;
  ColrEngine engine(&tree, &network, eopts);
  Rng rng(8);
  for (auto _ : state) {
    clock.AdvanceMs(100);
    const double x = rng.Uniform(0, 80);
    const double y = rng.Uniform(0, 80);
    Query q;
    q.region =
        QueryRegion::FromRect(Rect::FromCorners(x, y, x + 20, y + 20));
    q.staleness_ms = 4 * kMin;
    q.sample_size = mode == ColrEngine::Mode::kColr ? 30 : 0;
    q.cluster_level = 2;
    benchmark::DoNotOptimize(engine.Execute(q));
  }
}
BENCHMARK(BM_EngineQuery)
    ->Arg(static_cast<int>(ColrEngine::Mode::kRTree))
    ->Arg(static_cast<int>(ColrEngine::Mode::kHierCache))
    ->Arg(static_cast<int>(ColrEngine::Mode::kColr));

// ---------------------------------------------------------------------------
// Sync-stats overhead pairs: an uncontended round-trip through a plain
// guard vs. through the site-naming MutexLock with stats disabled, over
// a SpinMutex (the tree's root spin) and a Mutex (the serving path's
// pool, server, transport and network locks). scripts/check.sh
// compares each pair — the disabled guard is a relaxed bool load plus
// the same lock()/unlock(), so a pair must stay within noise.
// ---------------------------------------------------------------------------

template <typename M>
void PlainGuard(benchmark::State& state) {
  M mu;
  int64_t x = 0;
  for (auto _ : state) {
    // This IS the plain-guard baseline the overhead smoke compares
    // the site-naming guard against. colr-lint: allow(raw-lock)
    std::lock_guard<M> lock(mu);
    benchmark::DoNotOptimize(++x);
  }
}

template <typename M, SyncSite kSite>
void SiteGuardStatsOff(benchmark::State& state) {
  M mu;
  int64_t x = 0;
  if (SyncStatsEnabled()) {
    state.SkipWithError("COLR_SYNC_STATS is set; overhead pair "
                        "measures the disabled path");
    return;
  }
  for (auto _ : state) {
    MutexLock lock(mu, kSite);
    benchmark::DoNotOptimize(++x);
  }
}

void BM_SpinMutexPlainGuard(benchmark::State& state) {
  PlainGuard<SpinMutex>(state);
}
BENCHMARK(BM_SpinMutexPlainGuard);

void BM_SpinMutexSiteGuardStatsOff(benchmark::State& state) {
  SiteGuardStatsOff<SpinMutex, SyncSite::kRootSpin>(state);
}
BENCHMARK(BM_SpinMutexSiteGuardStatsOff);

void BM_MutexPlainGuard(benchmark::State& state) {
  PlainGuard<Mutex>(state);
}
BENCHMARK(BM_MutexPlainGuard);

void BM_MutexSiteGuardStatsOff(benchmark::State& state) {
  SiteGuardStatsOff<Mutex, SyncSite::kPoolQueue>(state);
}
BENCHMARK(BM_MutexSiteGuardStatsOff);

void BM_ColrTreeInsertReading(benchmark::State& state) {
  SimClock clock(0);
  auto sensors = BenchSensors(50000);
  ColrTree tree(sensors, BenchTreeOptions(10000));
  Rng rng(9);
  TimeMs now = 0;
  for (auto _ : state) {
    now += 5;
    const auto& s = sensors[rng.UniformInt(sensors.size())];
    tree.InsertReading(Reading{s.id, now, now + s.expiry_ms, 1.0});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ColrTreeInsertReading);

}  // namespace
}  // namespace colr

BENCHMARK_MAIN();
