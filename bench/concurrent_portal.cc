// Concurrent portal serving throughput: replays the Live-Local query
// mix through SensorPortal::ExecuteConcurrent at 1..16 client streams
// and reports queries/sec. One stream = the calling thread; stream
// count T runs on a ThreadPool(T - 1) plus the caller.
//
// The network converts each batch's simulated collection latency into
// (scaled-down) real wall time, reproducing the I/O-bound regime of a
// portal probing live web sensors — the setting the paper's serving
// stack runs in. Concurrent streams overlap that collection time,
// which is where the throughput win comes from; query processing
// itself (parse, traversal, sampling, formatting) runs without shared
// locks, and only cache mutation and the network RNG serialize.
//
// Expectation: qps grows monotonically from 1 to 4 streams.
//
// --flash-crowd replays the flash-crowd trace (one degraded hot
// viewport, ~92% of queries) at 1..8 streams against a moving
// ReplayClock and reports probes/query — the cross-query single-flight
// sweep. See the mode's comment block below. --speedup=N overrides the
// replay acceleration (default 6000x).
//
// --writer-scaling switches to an insert-heavy mode instead: N
// collector threads (default sweep 1/2/4/8, or --collector-threads=N)
// hammer ColrTree::InsertReading over disjoint, shard-aligned sensor
// partitions with trace time advancing across several window rolls.
// Each thread count runs twice — with the sharded write protocol and
// with writers serialized (writer_shard_level = 0, the old global
// write mutex's behavior) — so the sweep locates the old mutex's
// bottleneck directly. CheckCacheConsistency() runs at quiescence
// after every run. Expectation: sharded insert throughput at 8
// collector threads is >= 2x the serialized baseline at 8.
//
// --full --writer-scaling is the paper-scale contention sweep
// (EXPERIMENTS.md): collector threads x writer_shard_level in
// {0, 1, 2}, with the sync-stats instrumentation (sync_stats.h)
// force-enabled so every cell reports which lock site burned the wait
// time. Rows carry the per-site counters in --json; the table names
// the hottest site per cell.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/thread_pool.h"
#include "portal/portal.h"
#include "workload/flash_crowd.h"

namespace colr::bench {
namespace {

constexpr int kSampleSize = 40;

std::vector<std::string> BuildQueryTexts(const LiveLocalWorkload& workload) {
  std::vector<std::string> texts;
  texts.reserve(workload.queries.size());
  char buf[256];
  size_t i = 0;
  for (const auto& rec : workload.queries) {
    // Every fourth query is an exact range query (SAMPLESIZE 0 probes
    // every in-region sensor); the rest sample.
    const int sample = (i++ % 4 == 0) ? 0 : kSampleSize;
    std::snprintf(buf, sizeof(buf),
                  "SELECT count(*) FROM sensor S "
                  "WHERE S.location WITHIN RECT(%.6f, %.6f, %.6f, %.6f) "
                  "AND S.time BETWEEN now()-5 AND now() mins "
                  "CLUSTER LEVEL 2 SAMPLESIZE %d",
                  rec.region.min_x, rec.region.min_y, rec.region.max_x,
                  rec.region.max_y, sample);
    texts.push_back(buf);
  }
  return texts;
}

struct RunOutcome {
  double wall_ms = 0.0;
  double qps = 0.0;
  int64_t errors = 0;
  int64_t probes = 0;
};

RunOutcome RunStreams(const LiveLocalWorkload& workload,
                      const std::vector<std::string>& texts, int streams) {
  SimClock clock;
  SensorNetwork::Options nopts;
  // 1000 simulated ms of collection latency = 1 real ms. A typical
  // batch tops out near the 400 ms probe timeout, i.e. ~0.4 ms real
  // time per batch — large enough to dominate like real RTTs do,
  // small enough to keep the harness fast.
  nopts.simulated_latency_scale = 1e-3;
  SensorNetwork network(workload.sensors, &clock, nopts);
  network.set_value_fn(MakeRestaurantWaitingTimeFn());

  ColrTree::Options topts;
  topts.cache_capacity = workload.sensors.size() / 4;
  ColrTree tree(workload.sensors, topts);

  ColrEngine::Options eopts;
  eopts.mode = ColrEngine::Mode::kColr;
  ColrEngine engine(&tree, &network, eopts);
  portal::SensorPortal portal(&tree, &engine);

  // Freeze the clock at the end of the trace: every stream queries the
  // same fully-advanced window, so runs differ only in parallelism.
  TimeMs end = 0;
  for (const auto& rec : workload.queries) end = std::max(end, rec.at);
  clock.SetMs(end);

  ThreadPool pool(streams - 1);

  RunOutcome out;
  auto outcome = portal.ExecuteConcurrent(texts, pool);
  out.wall_ms = outcome.wall_ms;
  out.qps = outcome.wall_ms > 0.0
                ? static_cast<double>(texts.size()) * 1000.0 / outcome.wall_ms
                : 0.0;
  for (const auto& r : outcome.results) {
    if (!r.ok()) ++out.errors;
  }
  out.probes = engine.cumulative().sensors_probed;
  return out;
}

// ---------------------------------------------------------------------------
// Flash-crowd mode
// ---------------------------------------------------------------------------
//
// --flash-crowd replays the flash-crowd trace (workload/flash_crowd.h:
// ~92% of queries slam one degraded hot viewport) at 1..8 client
// streams against a *moving* ReplayClock. The moving clock is what
// makes the sweep interesting: cached readings go stale every
// staleness window of trace time, so a slower run (fewer streams)
// crosses more windows and re-probes the viewport more often, while a
// concurrent run both finishes in fewer windows and — the scheduler's
// contribution — shares each window's probe wave across the streams
// via single-flight instead of multiplying it.
//
// Expectation: probes/query decreases monotonically from 1 to 8
// streams. Without cross-query coalescing the curve flattens (every
// stream re-issues the wave it raced into).

struct FlashCrowdOutcome {
  double wall_ms = 0.0;
  double qps = 0.0;
  int64_t errors = 0;
  int64_t probes = 0;
  int64_t coalesced = 0;
  int64_t reused = 0;
  int64_t shed = 0;
};

std::vector<std::string> BuildFlashCrowdTexts(
    const FlashCrowdWorkload& workload) {
  std::vector<std::string> texts;
  texts.reserve(workload.queries.size());
  char buf[256];
  for (const auto& rec : workload.queries) {
    // Exact queries (SAMPLESIZE 0): every stale in-region sensor is a
    // probe candidate, so coalescing is fully visible in the counters.
    std::snprintf(buf, sizeof(buf),
                  "SELECT count(*) FROM sensor S "
                  "WHERE S.location WITHIN RECT(%.6f, %.6f, %.6f, %.6f) "
                  "AND S.time BETWEEN now()-5 AND now() mins "
                  "CLUSTER LEVEL 2 SAMPLESIZE 0",
                  rec.region.min_x, rec.region.min_y, rec.region.max_x,
                  rec.region.max_y);
    texts.push_back(buf);
  }
  return texts;
}

FlashCrowdOutcome RunFlashCrowd(const FlashCrowdWorkload& workload,
                                const std::vector<std::string>& texts,
                                TimeMs event_at_ms, double speedup,
                                int streams) {
  ReplayClock clock(event_at_ms, speedup);
  SensorNetwork::Options nopts;
  // Twice the serving-throughput scale: collection latency must
  // dominate wall time for the windows-crossed arithmetic above to
  // hold, and the joiners of a flight need the leader to genuinely
  // dwell in the backend call.
  nopts.simulated_latency_scale = 2e-3;
  SensorNetwork network(workload.sensors, &clock, nopts);
  network.set_value_fn(MakeRestaurantWaitingTimeFn());

  ColrTree::Options topts;
  topts.cache_capacity = workload.sensors.size() / 4;
  ColrTree tree(workload.sensors, topts);

  // Token bucket and admission cap deliberately OFF: the sweep
  // isolates the coalescing effect. (Arming the bucket against a
  // moving clock is the rate-limit experiment in EXPERIMENTS.md, not
  // this curve.)
  ColrEngine::Options eopts;
  eopts.mode = ColrEngine::Mode::kColr;
  ColrEngine engine(&tree, &network, eopts);
  portal::SensorPortal portal(&tree, &engine);

  ThreadPool pool(streams - 1);

  // Re-anchor trace time to "now" after all the setup above so every
  // stream count starts its run at the event, not mid-decay.
  clock.Restart(event_at_ms);
  FlashCrowdOutcome out;
  auto outcome = portal.ExecuteConcurrent(texts, pool);
  out.wall_ms = outcome.wall_ms;
  out.qps = outcome.wall_ms > 0.0
                ? static_cast<double>(texts.size()) * 1000.0 / outcome.wall_ms
                : 0.0;
  for (const auto& r : outcome.results) {
    if (!r.ok()) ++out.errors;
  }
  const QueryStats cum = engine.cumulative();
  out.probes = cum.sensors_probed;
  out.coalesced = cum.probes_coalesced;
  out.reused = cum.probes_reused;
  out.shed = cum.probes_shed;
  return out;
}

int FlashCrowdMain(const BenchConfig& cfg, double speedup) {
  PrintHeader("Flash crowd",
              "probes/query vs client streams under one hot viewport", cfg);
  FlashCrowdOptions fopts;
  fopts.num_sensors = cfg.sensors;
  fopts.num_queries = cfg.queries;
  fopts.num_cities = std::max(8, cfg.cities / 3);
  fopts.seed = cfg.seed;
  FlashCrowdWorkload workload = GenerateFlashCrowd(fopts);
  const std::vector<std::string> texts = BuildFlashCrowdTexts(workload);
  std::printf("hot viewport: %d sensors degraded to <= %.0f%% availability; "
              "%.0f%% of %zu queries hit it (replay speedup %.0fx)\n\n",
              workload.hot_sensor_count, 100.0 * fopts.hot_availability,
              100.0 * fopts.hot_fraction, texts.size(), speedup);

  const int stream_counts[] = {1, 2, 4, 8};
  std::vector<std::string> json_rows;
  std::printf("%-8s | %10s | %10s | %8s | %10s | %12s | %10s %8s %8s\n",
              "streams", "wall ms", "qps", "errors", "probes", "probes/query",
              "coalesced", "reused", "shed");
  double first_ppq = 0.0;
  double last_ppq = 0.0;
  for (int streams : stream_counts) {
    FlashCrowdOutcome out = RunFlashCrowd(workload, texts,
                                          fopts.event_at_ms, speedup, streams);
    const double ppq =
        static_cast<double>(out.probes) / static_cast<double>(texts.size());
    if (streams == 1) first_ppq = ppq;
    last_ppq = ppq;
    std::printf("%-8d | %10.1f | %10.1f | %8lld | %10lld | %12.2f | "
                "%10lld %8lld %8lld\n",
                streams, out.wall_ms, out.qps,
                static_cast<long long>(out.errors),
                static_cast<long long>(out.probes), ppq,
                static_cast<long long>(out.coalesced),
                static_cast<long long>(out.reused),
                static_cast<long long>(out.shed));
    json_rows.push_back(FlashCrowdJsonRow(
        streams, static_cast<int64_t>(texts.size()), out.wall_ms, out.qps,
        out.errors, out.probes, ppq, out.coalesced, out.reused, out.shed));
  }
  WriteJsonReport(cfg, "flash_crowd", json_rows);

  std::printf("\nexpectation: probes/query decreases monotonically from 1 "
              "to 8 streams (observed %.2f -> %.2f).\n",
              first_ppq, last_ppq);
  return 0;
}

// ---------------------------------------------------------------------------
// Writer-scaling mode
// ---------------------------------------------------------------------------

struct WriterScalingOutcome {
  int64_t inserts = 0;
  double wall_ms = 0.0;
  double inserts_per_sec = 0.0;
  int64_t rolls = 0;
  int64_t late_dropped = 0;
  int64_t evicted = 0;
  int64_t recomputes = 0;
  bool consistent = true;
  /// Resolved ColrTree::writer_shard_level() for the run.
  int shard_level = 0;
  /// Writer shards and their balance (max/mean cached readings per
  /// shard at quiescence; 1.0 = perfectly even).
  size_t shards = 0;
  double shard_balance = 0.0;
  /// Per-run lock-contention deltas (enabled=false when stats off).
  SyncStatsSnapshot sync;
};

/// Runs `threads` insert loops over shard-aligned sensor partitions.
/// `shard_level` is ColrTree::Options::writer_shard_level: 0 rebuilds
/// the tree with one shard (the pre-sharding global-writer baseline),
/// -1 the auto sharding default, >= 1 an explicit shard depth.
WriterScalingOutcome RunWriterScaling(const LiveLocalWorkload& workload,
                                      int threads, int shard_level,
                                      int rounds) {
  ColrTree::Options topts;
  // Cache sized to the catalog: the steady-state *replacement* regime
  // (every insert after the first round erases + re-propagates the
  // sensor's previous reading — the full slot-update path), with no
  // capacity evictions. Eviction order is a single global LRF sequence
  // out of the oldest occupied slot, so an eviction-bound run measures
  // that policy's serial drain, not writer scaling; the capacity-
  // constrained regime is exercised by bench/timed_replay and the
  // multi-writer stress tests instead.
  topts.cache_capacity = workload.sensors.size();
  topts.writer_shard_level = shard_level;
  ColrTree tree(workload.sensors, topts);
  const SyncStatsSnapshot sync_before =
      SyncStatsRegistry::Instance().Snapshot();

  // Whole-shard ownership: group sensors by their writer shard and
  // deal shards largest-first onto the least-loaded thread, so no two
  // threads ever contend on a shard lock — the "one collector per
  // region" deployment the sharded protocol targets. The serialized
  // baseline has a single shard (every thread contends on it by
  // design), so its sensors are split evenly instead.
  std::map<int, std::vector<SensorId>> by_shard;
  for (size_t i = 0; i < workload.sensors.size(); ++i) {
    const SensorId sid = static_cast<SensorId>(i);
    by_shard[tree.AncestorAtLevel(tree.LeafOf(sid),
                                  tree.writer_shard_level())]
        .push_back(sid);
  }
  std::vector<std::vector<SensorId>> partitions(
      static_cast<size_t>(threads));
  if (by_shard.size() <= 1) {
    size_t t = 0;
    for (const auto& [shard, sensors] : by_shard) {
      for (SensorId sid : sensors) {
        partitions[t++ % partitions.size()].push_back(sid);
      }
    }
  } else {
    std::vector<const std::vector<SensorId>*> groups;
    for (const auto& [shard, sensors] : by_shard) groups.push_back(&sensors);
    std::sort(groups.begin(), groups.end(),
              [](const auto* a, const auto* b) { return a->size() > b->size(); });
    for (const auto* g : groups) {
      auto least = std::min_element(
          partitions.begin(), partitions.end(),
          [](const auto& a, const auto& b) { return a.size() < b.size(); });
      least->insert(least->end(), g->begin(), g->end());
    }
  }

  // Trace time advances across the rounds so inserts themselves pull
  // the window forward (the roll trigger), spanning several rolls.
  const TimeMs span = 4 * tree.t_max_ms();
  const TimeMs step = std::max<TimeMs>(1, span / std::max(1, rounds));

  auto writer_fn = [&](const std::vector<SensorId>& mine) {
    Reading r;
    for (int round = 0; round < rounds; ++round) {
      const TimeMs at = static_cast<TimeMs>(round) * step;
      for (SensorId sid : mine) {
        r.sensor = sid;
        r.timestamp = at;
        r.expiry = at + workload.sensors[sid].expiry_ms;
        r.value = static_cast<double>((sid * 37 + round * 101) % 997);
        tree.InsertReading(r);
      }
    }
  };

  Stopwatch wall;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads - 1));
  for (int k = 1; k < threads; ++k) {
    pool.emplace_back(writer_fn, std::cref(partitions[static_cast<size_t>(k)]));
  }
  writer_fn(partitions[0]);
  for (std::thread& t : pool) t.join();

  WriterScalingOutcome out;
  out.wall_ms = wall.ElapsedMillis();
  out.inserts = static_cast<int64_t>(workload.sensors.size()) * rounds;
  out.inserts_per_sec =
      out.wall_ms > 0.0
          ? static_cast<double>(out.inserts) * 1000.0 / out.wall_ms
          : 0.0;
  out.rolls = tree.maintenance().rolls.load();
  out.late_dropped = tree.maintenance().late_readings_dropped.load();
  out.evicted = tree.maintenance().readings_evicted.load();
  out.recomputes = tree.maintenance().slot_recomputes.load();
  out.sync =
      SyncStatsDelta(SyncStatsRegistry::Instance().Snapshot(), sync_before);
  out.shard_level = tree.writer_shard_level();
  const std::vector<ColrTree::ShardOccupancy> occupancy =
      tree.ShardOccupancies();
  out.shards = occupancy.size();
  size_t max_readings = 0;
  size_t total_readings = 0;
  for (const ColrTree::ShardOccupancy& o : occupancy) {
    max_readings = std::max(max_readings, o.readings);
    total_readings += o.readings;
  }
  out.shard_balance =
      total_readings > 0 ? static_cast<double>(max_readings) *
                               static_cast<double>(occupancy.size()) /
                               static_cast<double>(total_readings)
                         : 0.0;
  const Status consistency = tree.CheckCacheConsistency();
  out.consistent = consistency.ok();
  if (!out.consistent) {
    std::fprintf(stderr, "cache consistency FAILED at quiescence: %s\n",
                 consistency.ToString().c_str());
  }
  return out;
}

const char* ModeLabel(int shard_level) {
  switch (shard_level) {
    case 0:
      return "serialized";
    case -1:
      return "sharded";
    case 1:
      return "sharded-L1";
    case 2:
      return "sharded-L2";
    default:
      return "sharded-LN";
  }
}

int WriterScalingMain(const BenchConfig& cfg, int pinned_threads) {
  PrintHeader("Writer scaling",
              "InsertReading throughput vs collector threads", cfg);
  // The paper-scale orchestration mode is a contention *diagnosis*:
  // force the sync-stats instrumentation on so every cell can name its
  // hottest lock site.
  if (cfg.full) SyncStatsRegistry::Enable();
  LiveLocalWorkload workload = GenerateLiveLocal(cfg.WorkloadOptions());

  std::vector<int> thread_counts;
  if (pinned_threads > 0) {
    thread_counts.push_back(pinned_threads);
    if (pinned_threads != 8) thread_counts.push_back(8);
  } else {
    thread_counts = {1, 2, 4, 8};
  }
  // Serialized baseline first, then the sharded configurations. The
  // default run compares baseline vs auto sharding; --full sweeps
  // explicit shard levels so the contention report localizes where
  // the old write mutex's time goes as sharding deepens.
  const std::vector<int> shard_levels =
      cfg.full ? std::vector<int>{0, 1, 2} : std::vector<int>{0, -1};
  // Enough rounds that each run crosses several window rolls.
  const int rounds =
      std::max(4, static_cast<int>(160000 / std::max<size_t>(
                                                1, workload.sensors.size())));

  const bool stats_on = SyncStatsEnabled();
  std::printf("%-10s %-10s | %10s | %12s | %6s %7s %9s %6s | %-10s%s\n",
              "mode", "threads", "wall ms", "inserts/sec", "rolls", "late",
              "evicted", "recomp", "consistent",
              stats_on ? " | shards bal  | hottest site (share)" : "");
  std::vector<std::string> json_rows;
  double serialized_at_max = 0.0;
  double sharded_at_max = 0.0;
  SyncStatsSnapshot sweep_sync;
  const int max_threads =
      *std::max_element(thread_counts.begin(), thread_counts.end());
  for (const int shard_level : shard_levels) {
    for (int threads : thread_counts) {
      WriterScalingOutcome out =
          RunWriterScaling(workload, threads, shard_level, rounds);
      std::printf(
          "%-10s %-10d | %10.1f | %12.0f | %6lld %7lld %9lld %6lld | %-10s",
          ModeLabel(shard_level), threads, out.wall_ms, out.inserts_per_sec,
          static_cast<long long>(out.rolls),
          static_cast<long long>(out.late_dropped),
          static_cast<long long>(out.evicted),
          static_cast<long long>(out.recomputes),
          out.consistent ? "yes" : "NO");
      if (stats_on) {
        const int hot = out.sync.HottestSite();
        std::printf(" | %4zu %5.2f | %s (%.1f%%)", out.shards,
                    out.shard_balance,
                    hot >= 0 ? SyncSiteName(static_cast<SyncSite>(hot))
                             : "none",
                    hot >= 0 ? 100.0 * out.sync.ContentionShare(
                                           static_cast<SyncSite>(hot))
                             : 0.0);
      }
      std::printf("\n");
      json_rows.push_back(WriterScalingJsonRow(
          threads, shard_level == 0, out.shard_level, out.inserts,
          out.wall_ms, out.inserts_per_sec, out.rolls, out.late_dropped,
          out.evicted, out.recomputes, out.consistent,
          SyncStatsJsonBlock(out.sync)));
      if (threads == max_threads) {
        if (shard_level == 0) {
          serialized_at_max = out.inserts_per_sec;
        } else {
          sharded_at_max = std::max(sharded_at_max, out.inserts_per_sec);
        }
      }
      if (!out.consistent) return 1;
    }
  }
  WriteJsonReport(cfg, "writer_scaling", json_rows);
  if (stats_on) sweep_sync = SyncStatsRegistry::Instance().Snapshot();

  std::printf("\n%s\n", SyncStatsSummaryLine(sweep_sync).c_str());
  if (serialized_at_max > 0.0) {
    const unsigned cores = std::thread::hardware_concurrency();
    std::printf("\nsharded/serialized speedup at %d threads: %.2fx "
                "(expectation: >= 2x on a host with >= %d cores)\n",
                max_threads, sharded_at_max / serialized_at_max,
                max_threads);
    if (cores < 2) {
      std::printf("note: this host exposes %u core(s); collector threads "
                  "are time-sliced, so lock-protocol scaling cannot "
                  "manifest as wall-clock speedup here.\n",
                  cores);
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::FromArgs(argc, argv);
  bool writer_scaling = false;
  bool flash_crowd = false;
  int collector_threads = 0;
  double speedup = 6000.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--writer-scaling") == 0) {
      writer_scaling = true;
    } else if (std::strncmp(argv[i], "--collector-threads=", 20) == 0) {
      collector_threads = std::atoi(argv[i] + 20);
      writer_scaling = true;
    } else if (std::strcmp(argv[i], "--flash-crowd") == 0) {
      flash_crowd = true;
    } else if (std::strncmp(argv[i], "--speedup=", 10) == 0) {
      speedup = std::atof(argv[i] + 10);
    }
  }
  if (writer_scaling) return WriterScalingMain(cfg, collector_threads);
  if (flash_crowd) return FlashCrowdMain(cfg, speedup);
  PrintHeader("Concurrent portal", "queries/sec vs client streams", cfg);

  LiveLocalWorkload workload = GenerateLiveLocal(cfg.WorkloadOptions());
  const std::vector<std::string> texts = BuildQueryTexts(workload);

  const int stream_counts[] = {1, 2, 4, 8, 16};
  std::vector<std::string> json_rows;

  std::printf("%-8s | %10s | %12s | %8s | %10s\n", "streams", "wall ms",
              "queries/sec", "errors", "probes");
  for (int streams : stream_counts) {
    RunOutcome out = RunStreams(workload, texts, streams);
    std::printf("%-8d | %10.1f | %12.1f | %8lld | %10lld\n", streams,
                out.wall_ms, out.qps, static_cast<long long>(out.errors),
                static_cast<long long>(out.probes));
    json_rows.push_back(JsonObject()
                            .Field("streams", streams)
                            .Field("wall_ms", out.wall_ms)
                            .Field("qps", out.qps)
                            .Field("errors", out.errors)
                            .Field("probes", out.probes)
                            .Done());
  }
  WriteJsonReport(cfg, "concurrent_portal", json_rows);

  std::printf("\nexpectation: qps grows monotonically from 1 to 4 "
              "streams.\n");
  return 0;
}

}  // namespace
}  // namespace colr::bench

int main(int argc, char** argv) { return colr::bench::Main(argc, argv); }
