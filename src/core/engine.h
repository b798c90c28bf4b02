#ifndef COLR_CORE_ENGINE_H_
#define COLR_CORE_ENGINE_H_

#include <memory>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "core/flat_cache.h"
#include "core/probe_scheduler.h"
#include "core/query.h"
#include "core/sampling.h"
#include "core/tree.h"
#include "sensor/availability.h"
#include "sensor/network.h"

namespace colr {

/// Per-query execution state: the RNG stream driving this query's
/// sampling decisions plus nothing else — all remaining per-query
/// state already lives in the QueryResult being built. Contexts are
/// cheap to construct; concurrent drivers make one per query, seeded
/// deterministically from the engine seed and a query ordinal
/// (DeriveSeed), so a run's outcome depends on the (seed, ordinal)
/// assignment but never on thread scheduling.
class ExecutionContext {
 public:
  /// Context owning its own RNG (concurrent execution).
  explicit ExecutionContext(uint64_t seed) : owned_(seed), rng_(&owned_) {}
  /// Context borrowing an external RNG stream. The sequential
  /// Execute() overload borrows the engine's persistent RNG so
  /// single-threaded runs consume exactly the pre-concurrency stream.
  explicit ExecutionContext(Rng* rng) : owned_(0), rng_(rng) {}

  Rng& rng() { return *rng_; }

 private:
  Rng owned_;
  Rng* rng_;
};

/// Query execution over a COLR-Tree, in the four configurations the
/// paper evaluates (§VII-B/C):
///
///   kRTree     — plain R-tree behaviour: no caching, no sampling;
///                every in-region sensor is probed per query.
///   kFlatCache — raw readings cached in a flat store that is scanned
///                per query; no index, no aggregates, no sampling.
///   kHierCache — COLR-Tree slot caches with the standard range
///                lookup: fully-cached subtrees answer from their
///                aggregates, everything else is probed. No sampling.
///   kColr      — the full system: slot caches + layered sampling.
///
/// The engine is the boundary between query processing and data
/// collection: it owns the probe batching (parallel within a batch),
/// cache population with collected readings, and all instrumentation.
///
/// Thread safety: the engine itself is an immutable plan/traversal
/// core over thread-safe components. Execute(query, ctx) may be called
/// from many threads at once — per-query mutable state lives in the
/// ExecutionContext, the QueryResult and a per-thread scratch that
/// range queries reuse (deduper marks, probe buffer); cumulative
/// counters are atomics. The convenience overload Execute(query)
/// borrows the engine's persistent RNG and is therefore for
/// single-threaded (sequential) use only; it reproduces the
/// pre-concurrency behaviour bit for bit.
class ColrEngine {
 public:
  enum class Mode { kRTree, kFlatCache, kHierCache, kColr };

  static const char* ModeName(Mode mode);

  struct Options {
    Mode mode = Mode::kColr;
    bool oversample = true;
    bool redistribute = true;
    /// Let layered sampling consult the slot caches (line 9/15 of
    /// Algorithm 1). Off = sample as if nothing were cached (ablation).
    bool sampling_use_cache = true;
    /// Compute stats.region_sensor_count per query (costs one exact
    /// count traversal; used by the Fig. 3/6 harnesses).
    bool fill_region_count = false;
    /// Learn per-sensor availability online from probe outcomes
    /// (EWMA) and refresh the tree's per-node means periodically —
    /// keeps the oversampling factor honest when registered
    /// availability metadata is wrong or drifts (§V-A "historical
    /// availability").
    bool track_availability = false;
    /// Clock time between availability refreshes of the tree, off the
    /// engine's clock (simulated or replay). Clock-driven rather than
    /// query-count-driven so the refresh cadence is decoupled from the
    /// workload rate: a burst of queries doesn't thrash the tree's
    /// node means, and a trickle doesn't starve them.
    TimeMs availability_refresh_ms = kMsPerMinute;
    /// Probe scheduling between the engine and the network: cross-
    /// query single-flight coalescing (always on — it is invisible to
    /// a single query stream), plus the optional token-bucket rate
    /// limiter and admission bound (both off by default).
    ProbeScheduler::Options probe;
    uint64_t seed = 0xC0FFEEu;
  };

  ColrEngine(ColrTree* tree, SensorNetwork* network, Options options);

  ColrEngine(const ColrEngine&) = delete;
  ColrEngine& operator=(const ColrEngine&) = delete;

  /// Executes a portal query at the network clock's current time using
  /// the engine's own RNG stream. Sequential use only (one caller at a
  /// time); bit-identical to the pre-concurrency engine.
  QueryResult Execute(const Query& query);

  /// Thread-safe execution with caller-supplied per-query state.
  QueryResult Execute(const Query& query, ExecutionContext& ctx);

  /// Deterministic per-query seed for concurrent drivers: mixes the
  /// engine seed with the query's ordinal position in the workload.
  uint64_t QuerySeed(uint64_t ordinal) const {
    return DeriveSeed(options_.seed, ordinal);
  }

  /// The engine's base seed — the seed axis remote-serving layers
  /// (net::PortalServer) inherit so server-side query streams stay on
  /// the same deterministic footing as the engine's own.
  uint64_t seed() const { return options_.seed; }

  const ColrTree& tree() const { return *tree_; }
  Mode mode() const { return options_.mode; }

  /// Snapshot of the counters accumulated over all executed queries.
  QueryStats cumulative() const;
  void ResetCumulative();

  /// The online availability estimator (nullptr unless
  /// Options::track_availability).
  const AvailabilityTracker* availability_tracker() const {
    return tracker_.get();
  }

  /// The scheduler every engine probe goes through (single-flight /
  /// rate-limit / admission counters live here).
  const ProbeScheduler& probe_scheduler() const { return *scheduler_; }

 private:
  /// Test hook (tests/engine_test.cc): drives ProbeBatch directly to
  /// pin down per-occurrence availability accounting for batches with
  /// duplicated sensor ids.
  friend struct ColrEngineTestPeer;

  struct ProbeAccounting {
    /// Probes actually issued to the network on this query's behalf;
    /// this is what stats.sensors_probed reports, so summed over all
    /// queries it equals the network's probe counter exactly.
    int64_t attempted = 0;
    /// Readings collected for this query (issued + joined + reused).
    int64_t succeeded = 0;
    int64_t coalesced = 0;
    int64_t reused = 0;
    int64_t shed = 0;
    /// Sum of the sequential batches' collection latencies (each
    /// already the max over its parallel probes and joined flights) —
    /// the query's total simulated data-collection time. A
    /// single-batch query's total equals its max.
    TimeMs total_latency_ms = 0;
    /// Wall-clock time spent inside the simulated network; excluded
    /// from processing_ms (a real deployment overlaps collection with
    /// processing, and the simulator's CPU cost is an artifact).
    double sim_wall_ms = 0.0;
  };

  /// Cumulative counters (one per core/query_counters.inc row),
  /// atomic so concurrent FinishQuery calls merge without a lock.
  /// Snapshot via cumulative().
  template <typename T>
  using AtomicOf = std::conditional_t<std::is_floating_point_v<T>,
                                      AtomicDouble, AtomicCounter<T>>;
  struct Cumulative {
#define COLR_QUERY_COUNTER(type, name) AtomicOf<type> name;
#include "core/query_counters.inc"
  };

  std::vector<Reading> ProbeBatch(const std::vector<SensorId>& ids,
                                  ProbeAccounting* acct);

  /// Moves a finished query's probe accounting into its stats
  /// (collection latency = total over sequential batches; negative
  /// processing skew surfaced, never silently clamped).
  static void FinishProbeStats(const ProbeAccounting& acct,
                               double elapsed_ms, QueryStats* stats);

  QueryResult ExecuteColr(const Query& query, TimeMs now, Rng& rng);
  /// Shared by kRTree (use_cache = false) and kHierCache (true).
  QueryResult ExecuteRange(const Query& query, TimeMs now, bool use_cache);
  QueryResult ExecuteFlat(const Query& query, TimeMs now);

  void FinishQuery(const Query& query, TimeMs now, QueryResult* result);

  ColrTree* tree_;
  SensorNetwork* network_;
  /// All probes flow through here (never network_->ProbeBatch
  /// directly; the probe-path lint pins that).
  std::unique_ptr<ProbeScheduler> scheduler_;
  const Clock* clock_;
  Options options_;
  /// The sequential-path RNG (borrowed by Execute(query)'s context).
  Rng rng_;
  std::unique_ptr<FlatCache> flat_ COLR_PT_GUARDED_BY(flat_mutex_);
  /// FlatCache is a plain scan structure; concurrent flat-mode queries
  /// serialize their cache access here (probing still overlaps).
  mutable Mutex flat_mutex_{SyncSite::kEngineFlat};
  std::unique_ptr<AvailabilityTracker> tracker_;
  /// Clock timestamp of the last availability refresh; the CAS in
  /// FinishQuery elects exactly one refresher per due interval.
  std::atomic<TimeMs> last_availability_refresh_ms_ = 0;
  Cumulative cumulative_;
};

}  // namespace colr

#endif  // COLR_CORE_ENGINE_H_
