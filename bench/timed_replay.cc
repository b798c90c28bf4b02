// Timed moving-clock replay: replays the Live-Local trace at a wall
// time speedup through replay::RunTimedReplay — a collector thread
// continuously probes sensors, inserts readings and advances the
// window while 1..16 query streams execute against it. This is the
// only harness in which window rolls, slot expunges, store evictions
// and late-reading drops happen *during* query execution rather than
// between queries, so it exercises the maintenance path the frozen
// clock drivers cannot.
//
// Reported per stream count: queries/sec, per-query latency p50/p99,
// and the tree's maintenance counters (rolls, expunged/evicted
// readings, late drops, slot recomputes). A run is only meaningful if
// rolls_per_tmax >= 1 — the window must roll at least once per t_max
// of trace time once the clock truly moves.

#include <cstdio>
#include <cstring>

#include "bench_common.h"
#include "common/thread_pool.h"
#include "portal/portal.h"
#include "replay/timed_replay.h"

namespace colr::bench {
namespace {

struct ReplayArgs {
  int streams = 0;  // 0 = sweep {1, 2, 4, 8, 16}
  double speedup = 600.0;
  /// Concurrent collector threads ingesting disjoint catalog
  /// partitions (the tree's sharded write path).
  int collector_threads = 1;

  static ReplayArgs FromArgs(int argc, char** argv) {
    ReplayArgs out;
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], "--streams=", 10) == 0) {
        out.streams = std::atoi(argv[i] + 10);
      } else if (std::strncmp(argv[i], "--speedup=", 10) == 0) {
        out.speedup = std::atof(argv[i] + 10);
      } else if (std::strncmp(argv[i], "--collector-threads=", 20) == 0) {
        out.collector_threads = std::atoi(argv[i] + 20);
      }
    }
    return out;
  }
};

replay::TimedReplayReport RunOnce(const LiveLocalWorkload& workload,
                                  double speedup, int streams,
                                  int collector_threads) {
  ReplayClock clock;
  SensorNetwork::Options nopts;
  nopts.simulated_latency_scale = 1e-3;
  SensorNetwork network(workload.sensors, &clock, nopts);
  network.set_value_fn(MakeRestaurantWaitingTimeFn());

  ColrTree::Options topts;
  topts.cache_capacity = workload.sensors.size() / 4;
  ColrTree tree(workload.sensors, topts);

  ColrEngine::Options eopts;
  eopts.mode = ColrEngine::Mode::kColr;
  eopts.track_availability = true;
  eopts.availability_refresh_ms = 5 * kMsPerMinute;
  ColrEngine engine(&tree, &network, eopts);
  portal::SensorPortal portal(&tree, &engine);

  replay::TimedReplayOptions ropts;
  ropts.speedup = speedup;
  ropts.streams = streams;
  ropts.collector_threads = collector_threads;
  replay::TimedReplayReport report =
      replay::RunTimedReplay(portal, tree, network, workload, clock, ropts);

  const Status consistency = tree.CheckCacheConsistency();
  if (!consistency.ok()) {
    std::fprintf(stderr, "cache consistency FAILED at quiescence: %s\n",
                 consistency.ToString().c_str());
    // Surface as an error in the report so --json consumers see it.
    ++report.errors;
  }
  return report;
}

int Main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::FromArgs(argc, argv);
  ReplayArgs rargs = ReplayArgs::FromArgs(argc, argv);
  PrintHeader("Timed replay", "moving-clock serving under concurrency", cfg);

  LiveLocalWorkload workload = GenerateLiveLocal(cfg.WorkloadOptions());
  std::printf("speedup: %.0fx trace time (trace %.0f min -> ~%.1f s wall), "
              "%d collector thread(s)\n\n",
              rargs.speedup,
              static_cast<double>(2 * kMsPerHour) / kMsPerMinute,
              static_cast<double>(2 * kMsPerHour) / rargs.speedup / 1000.0,
              rargs.collector_threads);

  std::vector<int> stream_counts;
  if (rargs.streams > 0) {
    stream_counts.push_back(rargs.streams);
  } else {
    stream_counts = {1, 2, 4, 8, 16};
  }

  std::printf("%-8s | %9s | %8s %8s | %6s %9s %9s %7s | %10s\n", "streams",
              "qps", "p50 ms", "p99 ms", "rolls", "expunged", "evicted",
              "late", "roll/tmax");
  std::vector<std::string> json_rows;
  for (int streams : stream_counts) {
    replay::TimedReplayReport r =
        RunOnce(workload, rargs.speedup, streams, rargs.collector_threads);
    std::printf(
        "%-8d | %9.1f | %8.2f %8.2f | %6lld %9lld %9lld %7lld | %10.2f\n",
        streams, r.qps, r.p50_latency_ms, r.p99_latency_ms,
        static_cast<long long>(r.maintenance.rolls.load()),
        static_cast<long long>(r.maintenance.readings_expunged.load()),
        static_cast<long long>(r.maintenance.readings_evicted.load()),
        static_cast<long long>(r.maintenance.late_readings_dropped.load()),
        r.rolls_per_tmax);
    JsonObject row;
    row.Field("streams", streams)
        .Field("collector_threads", rargs.collector_threads)
        .Field("speedup", rargs.speedup)
        .Field("queries", r.queries)
        .Field("errors", r.errors)
        .Field("wall_ms", r.wall_ms)
        .Field("qps", r.qps)
        .Field("p50_latency_ms", r.p50_latency_ms)
        .Field("p99_latency_ms", r.p99_latency_ms)
        .Field("max_latency_ms", r.max_latency_ms)
        .Field("collector_ticks", r.collector_ticks)
        .Field("collector_probes", r.collector_probes)
        .Field("collector_inserts", r.collector_inserts)
        .Field("inserts_per_sec", r.inserts_per_sec)
        .Field("rolls", r.maintenance.rolls.load())
        .Field("slots_rolled", r.maintenance.slots_rolled.load())
        .Field("readings_expunged", r.maintenance.readings_expunged.load())
        .Field("readings_evicted", r.maintenance.readings_evicted.load())
        .Field("late_readings_dropped",
               r.maintenance.late_readings_dropped.load())
        .Field("slot_recomputes", r.maintenance.slot_recomputes.load())
        .Field("rolls_per_tmax", r.rolls_per_tmax);
    // Per-run lock-contention deltas; stats disabled -> empty block
    // -> no "sync" field.
    const std::string sync_json = SyncStatsJsonBlock(r.sync);
    if (!sync_json.empty()) row.Nested("sync", sync_json);
    json_rows.push_back(row.Done());
    if (r.sync.enabled) {
      std::printf("  %s\n", SyncStatsSummaryLine(r.sync).c_str());
    }
    if (r.errors > 0) {
      std::fprintf(stderr, "streams=%d: %lld errors\n", streams,
                   static_cast<long long>(r.errors));
    }
  }
  WriteJsonReport(cfg, "timed_replay", json_rows);

  std::printf(
      "\nreading: every row must show rolls_per_tmax >= 1 (the window\n"
      "rolls at least once per t_max of trace time) and 0 errors —\n"
      "CheckCacheConsistency() runs at quiescence after every row.\n");
  return 0;
}

}  // namespace
}  // namespace colr::bench

int main(int argc, char** argv) { return colr::bench::Main(argc, argv); }
