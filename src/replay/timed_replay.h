#ifndef COLR_REPLAY_TIMED_REPLAY_H_
#define COLR_REPLAY_TIMED_REPLAY_H_

#include <cstdint>
#include <vector>

#include "common/clock.h"
#include "common/sync_stats.h"
#include "core/tree.h"
#include "portal/portal.h"
#include "sensor/network.h"
#include "workload/live_local.h"

namespace colr::replay {

/// Moving-clock replay driver: replays a Live-Local query trace
/// through the portal at a wall-time speedup while a collector thread
/// continuously probes sensors, inserts their readings and advances
/// the window off the same ReplayClock. Unlike the frozen-clock
/// drivers (Testbed::Replay advances time between queries; the
/// concurrent_portal bench pins it at the end of the trace), this is
/// the regime a live portal actually runs in: window rolls, slot
/// expunges, store evictions and cache-table recomputes all interleave
/// with in-flight lookups.
///
/// Pacing: query i sleeps until the replay clock reaches its trace
/// timestamp, then executes on one of `streams` concurrent streams
/// with its own deterministic ExecutionContext (DeriveSeed(seed, i)).
/// The collector ticks every `collector_interval_ms` of trace time,
/// probing a round-robin chunk of the catalog — continuous ingestion
/// concurrent with range queries.
struct TimedReplayOptions {
  /// Trace milliseconds per wall millisecond (e.g. 600 replays a
  /// 2-hour trace in 12 s).
  double speedup = 600.0;
  /// Concurrent query streams; 1 = the calling thread only.
  int streams = 4;
  /// Trace time between collector ticks (probe + insert + AdvanceTo).
  TimeMs collector_interval_ms = 30 * kMsPerSecond;
  /// Concurrent collector threads. Each owns a contiguous partition of
  /// the sensor catalog and round-robins within it — the multi-
  /// collector regime whose InsertReading calls exercise the tree's
  /// sharded write path.
  int collector_threads = 1;
  /// Sensors probed per collector tick (round-robin over the
  /// collector's partition; per thread when collector_threads > 1).
  int probes_per_tick = 64;
  /// Freshness bound applied to every replayed query.
  TimeMs staleness_ms = 5 * kMsPerMinute;
  /// Sample size of sampled queries; every `exact_every`-th query is
  /// exact (SAMPLESIZE 0) like the concurrent_portal mix.
  int sample_size = 40;
  int exact_every = 4;
  int cluster_level = 2;
  uint64_t seed = 0xC0FFEEu;
  /// Cap on replayed queries; negative = the whole trace.
  int max_queries = -1;
};

struct TimedReplayReport {
  int64_t queries = 0;
  int64_t errors = 0;
  double wall_ms = 0.0;
  double qps = 0.0;
  /// Per-query wall latency percentiles (portal entry to result).
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  /// Collector-side ingestion counters.
  int64_t collector_ticks = 0;
  int64_t collector_probes = 0;
  int64_t collector_inserts = 0;
  /// Collector insert throughput over the run's wall time.
  double inserts_per_sec = 0.0;
  /// The tree's maintenance counters accumulated *by this run*: the
  /// difference between the post-quiescence counters and a snapshot
  /// taken at replay start, so a warm-started (pre-rolled, pre-filled)
  /// tree does not inflate rolls, expunges or rolls_per_tmax.
  ColrTree::MaintenanceCounters maintenance;
  /// Per-run lock-contention deltas of the process-wide registry when
  /// sync stats are enabled (sync_stats.h; all zeros otherwise).
  SyncStatsSnapshot sync;
  /// Trace span covered by the replay (first to last query arrival).
  TimeMs trace_span_ms = 0;
  /// Window rolls per t_max of trace time — >= 1 once the clock truly
  /// moves, since the window must roll at least once per t_max.
  double rolls_per_tmax = 0.0;
};

/// Runs the replay. `clock` must be the clock the network (and thus
/// the engine behind `portal`) reads; it is Restart()ed to the trace
/// start before any thread launches. Blocks until the trace is
/// replayed and the collector has quiesced; the caller can then assert
/// tree.CheckCacheConsistency().
TimedReplayReport RunTimedReplay(portal::SensorPortal& portal,
                                 ColrTree& tree, SensorNetwork& network,
                                 const LiveLocalWorkload& workload,
                                 ReplayClock& clock,
                                 const TimedReplayOptions& options);

}  // namespace colr::replay

#endif  // COLR_REPLAY_TIMED_REPLAY_H_
