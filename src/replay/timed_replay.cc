#include "replay/timed_replay.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <string>
#include <thread>

#include "common/sync.h"

namespace colr::replay {
namespace {

std::vector<std::string> BuildQueryTexts(const LiveLocalWorkload& workload,
                                         const TimedReplayOptions& options,
                                         size_t count) {
  std::vector<std::string> texts;
  texts.reserve(count);
  const long long staleness_min =
      std::max<long long>(1, options.staleness_ms / kMsPerMinute);
  char buf[256];
  for (size_t i = 0; i < count; ++i) {
    const Rect& r = workload.queries[i].region;
    const int sample =
        (options.exact_every > 0 &&
         i % static_cast<size_t>(options.exact_every) == 0)
            ? 0
            : options.sample_size;
    std::snprintf(buf, sizeof(buf),
                  "SELECT count(*) FROM sensor S "
                  "WHERE S.location WITHIN RECT(%.6f, %.6f, %.6f, %.6f) "
                  "AND S.time BETWEEN now()-%lld AND now() mins "
                  "CLUSTER LEVEL %d SAMPLESIZE %d",
                  r.min_x, r.min_y, r.max_x, r.max_y, staleness_min,
                  options.cluster_level, sample);
    texts.push_back(buf);
  }
  return texts;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/// Per-run counter deltas: `after - before`, so a warm-started tree's
/// lifetime totals don't leak into the report.
ColrTree::MaintenanceCounters CounterDelta(
    const ColrTree::MaintenanceCounters& after,
    const ColrTree::MaintenanceCounters& before) {
  ColrTree::MaintenanceCounters d;
  d.rolls = after.rolls.load() - before.rolls.load();
  d.slots_rolled = after.slots_rolled.load() - before.slots_rolled.load();
  d.readings_expunged =
      after.readings_expunged.load() - before.readings_expunged.load();
  d.readings_evicted =
      after.readings_evicted.load() - before.readings_evicted.load();
  d.late_readings_dropped = after.late_readings_dropped.load() -
                            before.late_readings_dropped.load();
  d.slot_recomputes =
      after.slot_recomputes.load() - before.slot_recomputes.load();
  d.slot_recompute_retries = after.slot_recompute_retries.load() -
                             before.slot_recompute_retries.load();
  return d;
}

}  // namespace

TimedReplayReport RunTimedReplay(portal::SensorPortal& portal,
                                 ColrTree& tree, SensorNetwork& network,
                                 const LiveLocalWorkload& workload,
                                 ReplayClock& clock,
                                 const TimedReplayOptions& options) {
  TimedReplayReport report;
  const size_t count =
      options.max_queries >= 0
          ? std::min<size_t>(static_cast<size_t>(options.max_queries),
                             workload.queries.size())
          : workload.queries.size();
  if (count == 0 || network.size() == 0) return report;

  TimeMs trace_start = workload.queries[0].at;
  TimeMs trace_end = trace_start;
  for (size_t i = 0; i < count; ++i) {
    trace_start = std::min(trace_start, workload.queries[i].at);
    trace_end = std::max(trace_end, workload.queries[i].at);
  }
  report.trace_span_ms = trace_end - trace_start;

  const std::vector<std::string> texts =
      BuildQueryTexts(workload, options, count);

  // Snapshot the tree's lifetime maintenance counters and the
  // process-wide sync stats so the report covers only what *this run*
  // did (a warm-started tree keeps its history).
  const ColrTree::MaintenanceCounters maintenance_before = tree.maintenance();
  const SyncStatsSnapshot sync_before =
      SyncStatsRegistry::Instance().Snapshot();

  // Align the window to the trace start before any thread launches,
  // then let time move at the requested rate.
  clock.Restart(trace_start, options.speedup);
  tree.AdvanceTo(clock.NowMs());

  std::atomic<bool> done{false};
  Mutex done_mutex{SyncSite::kReplayDone};
  // _any variant: waits on the annotated Mutex capability directly.
  std::condition_variable_any done_cv;
  std::atomic<int64_t> ticks{0};
  std::atomic<int64_t> probes{0};
  std::atomic<int64_t> inserts{0};

  // Collectors: the portal's background ingestion loop. Each tick
  // rolls the window to the current replay time, probes the next
  // round-robin chunk of the collector's catalog partition and inserts
  // whatever answered — so rolls, expunges and slot updates happen
  // *while* query streams traverse. With collector_threads > 1 the
  // partitions ingest concurrently, exercising the tree's sharded
  // write path.
  const int collectors = std::max(1, options.collector_threads);
  auto collector_fn = [&](size_t part_begin, size_t part_end) {
    const size_t part_size = part_end - part_begin;
    if (part_size == 0) return;
    const size_t chunk =
        std::min<size_t>(std::max(1, options.probes_per_tick), part_size);
    const double tick_wall_ms =
        static_cast<double>(std::max<TimeMs>(1, options.collector_interval_ms)) /
        clock.speedup();
    size_t cursor = 0;
    std::vector<SensorId> batch(chunk);
    while (!done.load(std::memory_order_acquire)) {
      tree.AdvanceTo(clock.NowMs());
      for (size_t i = 0; i < chunk; ++i) {
        batch[i] = static_cast<SensorId>(part_begin + cursor);
        cursor = (cursor + 1) % part_size;
      }
      // The collector loop *is* the sensor-side ingest (pushing
      // readings into the tree), not a query-driven probe; no
      // single-flight semantics apply.
      // colr-lint: allow(probe-path): collector ingest, not a query probe
      SensorNetwork::BatchResult res = network.ProbeBatch(batch);
      for (const Reading& r : res.readings) tree.InsertReading(r);
      ticks.fetch_add(1, std::memory_order_relaxed);
      probes.fetch_add(static_cast<int64_t>(batch.size()),
                       std::memory_order_relaxed);
      inserts.fetch_add(static_cast<int64_t>(res.readings.size()),
                        std::memory_order_relaxed);
      // The predicate only reads the `done` atomic (no guarded state),
      // so a lambda is fine here; the lock passed to wait_for is the
      // annotated Mutex itself.
      MutexLock lock(done_mutex, SyncSite::kReplayDone);
      done_cv.wait_for(
          done_mutex, std::chrono::duration<double, std::milli>(tick_wall_ms),
          [&] { return done.load(std::memory_order_acquire); });
    }
  };
  std::vector<std::thread> collector_threads;
  collector_threads.reserve(static_cast<size_t>(collectors));
  const size_t num_sensors = network.size();
  for (int c = 0; c < collectors; ++c) {
    const size_t begin = num_sensors * static_cast<size_t>(c) /
                         static_cast<size_t>(collectors);
    const size_t end = num_sensors * static_cast<size_t>(c + 1) /
                       static_cast<size_t>(collectors);
    collector_threads.emplace_back(collector_fn, begin, end);
  }

  // Query streams: shared cursor over the trace; each query sleeps
  // until the replay clock reaches its arrival time, then executes
  // with its ordinal-derived deterministic context.
  std::atomic<size_t> next{0};
  std::atomic<int64_t> errors{0};
  std::vector<double> latencies(count, 0.0);
  auto stream_fn = [&] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < count;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      const double wait_ms = clock.WallMsUntil(workload.queries[i].at);
      if (wait_ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(wait_ms));
      }
      ExecutionContext ctx(DeriveSeed(options.seed, static_cast<uint64_t>(i)));
      Stopwatch watch;
      const auto result = portal.ExecuteOne(texts[i], ctx);
      latencies[i] = watch.ElapsedMillis();
      if (!result.ok()) errors.fetch_add(1, std::memory_order_relaxed);
    }
  };

  Stopwatch wall;
  const int streams = std::max(1, options.streams);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(streams - 1));
  for (int t = 0; t + 1 < streams; ++t) threads.emplace_back(stream_fn);
  stream_fn();  // the caller is stream 0
  for (std::thread& t : threads) t.join();

  {
    MutexLock lock(done_mutex, SyncSite::kReplayDone);
    done.store(true, std::memory_order_release);
  }
  done_cv.notify_all();
  for (std::thread& t : collector_threads) t.join();
  // Quiescence: one final roll to the current replay time so the
  // caller's CheckCacheConsistency() sees a settled window.
  tree.AdvanceTo(clock.NowMs());

  report.wall_ms = wall.ElapsedMillis();
  report.queries = static_cast<int64_t>(count);
  report.errors = errors.load();
  report.qps = report.wall_ms > 0.0
                   ? static_cast<double>(count) * 1000.0 / report.wall_ms
                   : 0.0;
  std::sort(latencies.begin(), latencies.end());
  report.p50_latency_ms = Percentile(latencies, 0.50);
  report.p99_latency_ms = Percentile(latencies, 0.99);
  report.max_latency_ms = latencies.empty() ? 0.0 : latencies.back();
  report.collector_ticks = ticks.load();
  report.collector_probes = probes.load();
  report.collector_inserts = inserts.load();
  report.inserts_per_sec =
      report.wall_ms > 0.0
          ? static_cast<double>(report.collector_inserts) * 1000.0 /
                report.wall_ms
          : 0.0;
  report.maintenance = CounterDelta(tree.maintenance(), maintenance_before);
  report.sync =
      SyncStatsDelta(SyncStatsRegistry::Instance().Snapshot(), sync_before);
  const TimeMs t_max = tree.t_max_ms();
  if (t_max > 0 && report.trace_span_ms > 0) {
    report.rolls_per_tmax =
        static_cast<double>(report.maintenance.rolls.load()) /
        (static_cast<double>(report.trace_span_ms) /
         static_cast<double>(t_max));
  }
  return report;
}

}  // namespace colr::replay
