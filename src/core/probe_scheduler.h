#ifndef COLR_CORE_PROBE_SCHEDULER_H_
#define COLR_CORE_PROBE_SCHEDULER_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/clock.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "sensor/network.h"

namespace colr {

/// Per-query guard for the paper's ≤1-probe contract *within* one
/// query: ExecuteRange offers every probe candidate here before adding
/// it to a leaf batch. The first offer of a sensor is admitted; any
/// repeat (a sensor reachable under two visited groups, or already
/// served from another group's cache slice) is dropped and counted, so
/// one query can never probe — or double-count — the same sensor
/// twice no matter how the visited groups overlap.
///
/// One mark per sensor id, stamped with the current query's
/// generation: Begin() forgets every mark by bumping the generation,
/// so a deduper reused across queries allocates only when the catalog
/// it sees grows, never per query.
class ProbeDeduper {
 public:
  /// Starts a query over sensor ids [0, num_sensors): forgets every
  /// mark and zeroes the duplicate count. Must precede Admit/MarkServed.
  void Begin(size_t num_sensors) {
    if (marks_.size() < num_sensors) marks_.resize(num_sensors, 0);
    if (++generation_ == 0) {
      // Wrapped: a stale stamp could equal a reused generation.
      std::fill(marks_.begin(), marks_.end(), 0);
      generation_ = 1;
    }
    duplicates_ = 0;
  }
  /// True exactly once per sensor id since Begin().
  bool Admit(SensorId id) {
    if (marks_[id] != generation_) {
      marks_[id] = generation_;
      return true;
    }
    ++duplicates_;
    return false;
  }
  /// Marks a sensor as already answered (e.g. served from cache) so a
  /// later Admit() for it is rejected.
  void MarkServed(SensorId id) { marks_[id] = generation_; }
  int64_t duplicates_dropped() const { return duplicates_; }

 private:
  std::vector<uint32_t> marks_;
  uint32_t generation_ = 0;
  int64_t duplicates_ = 0;
};

/// The boundary between query execution and the sensor network: every
/// engine probe goes through here (scripts/lint.py rule `probe-path`
/// bans direct SensorNetwork::ProbeBatch calls elsewhere). Three
/// mechanisms, all per sensor:
///
///   single-flight    While a probe for sensor s is in the network on
///                    behalf of one query, every other query wanting s
///                    joins that flight instead of issuing its own
///                    probe, and shares the fan-out result. This is
///                    the paper's ≤1-probe-per-sensor-per-Δ guarantee
///                    extended from one query stream to the whole
///                    serving fleet: N concurrent queries over a hot
///                    viewport cost one probe wave, not N.
///
///   token bucket     Each sensor accumulates probe tokens at
///                    1 / token_refill_ms (clock time, so replays and
///                    simulations behave identically). A request that
///                    finds the bucket empty is served from the
///                    sensor's last completed probe if it is younger
///                    than reuse_window_ms, otherwise shed. Off by
///                    default.
///
///   admission bound  A cap on sensor-probes outstanding in the
///                    network across all queries; requests beyond it
///                    are shed with load-shedding stats rather than
///                    queueing without bound. Off by default.
///
/// With all options at their defaults a single-threaded caller gets
/// bit-identical behaviour to calling the network directly: every id
/// leads its own probe, in request order, one network batch per call —
/// the golden determinism fingerprints do not move.
///
/// Locking: per-sensor state lives in fixed stripes (sensor id mod
/// kStripes), each an annotated Mutex instrumented as
/// SyncSite::kProbeFlight plus a condition_variable_any for flight
/// completion. A thread holds at most one stripe at a time and never
/// calls the network while holding one; joiners wait only after their
/// own lead batch has been published, so waits can only be on *other*
/// threads' flights and every leader makes progress unconditionally —
/// no cycle is possible. The stripes sit outside ColrTree's lock
/// hierarchy entirely (DESIGN.md §8).
class ProbeScheduler {
 public:
  struct Options {
    /// Bucket capacity (burst size) per sensor.
    double tokens_max = 1.0;
    /// Clock ms for one token to come back; <= 0 disables rate
    /// limiting entirely (the default — the cache layer above is the
    /// intended steady-state limiter, this is flash-crowd armor).
    TimeMs token_refill_ms = 0;
    /// Rate-limited requests reuse the sensor's last completed probe
    /// result when it is at most this old (clock ms); <= 0 = never
    /// reuse, always shed.
    TimeMs reuse_window_ms = 0;
    /// Max sensor-probes outstanding in the network at once; 0 =
    /// unbounded.
    size_t max_outstanding_probes = 0;
  };

  /// Issues one batch to the underlying collection substrate. The
  /// production backend is SensorNetwork::ProbeBatch; tests substitute
  /// lockstep fakes. Readings must come back in request order (a
  /// subsequence of the ids, one per successful occurrence), as
  /// SensorNetwork::ProbeBatch documents: the scheduler matches them
  /// to the ids it led in one forward walk.
  using Backend =
      std::function<SensorNetwork::BatchResult(const std::vector<SensorId>&)>;

  /// Production scheduler over a live network (clock and catalog size
  /// are taken from it).
  ProbeScheduler(SensorNetwork* network, const Options& options);
  /// Test constructor: explicit backend, clock and sensor count.
  ProbeScheduler(Backend backend, const Clock* clock, size_t num_sensors,
                 const Options& options);

  ProbeScheduler(const ProbeScheduler&) = delete;
  ProbeScheduler& operator=(const ProbeScheduler&) = delete;

  /// Result of one scheduled batch, with the probes partitioned by how
  /// they were satisfied. readings = issued ++ joined ++ reused, the
  /// issued ones being its first issued_readings entries;
  /// requested == issued_ids.size() + coalesced + reused + shed always
  /// holds.
  struct BatchOutcome {
    /// Every reading collected for the caller (issued + joined +
    /// reused), issued ones first in network order.
    std::vector<Reading> readings;
    /// Ids this call actually sent to the network, in request order
    /// (duplicate occurrences preserved — the network counts each).
    std::vector<SensorId> issued_ids;
    /// Length of the prefix of `readings` the network returned for
    /// issued_ids, in request order; the caller's availability
    /// accounting covers exactly these.
    size_t issued_readings = 0;
    size_t requested = 0;
    /// Requests that joined another query's in-flight probe.
    size_t coalesced = 0;
    /// Requests served from a sensor's last completed probe (rate
    /// limiter hit within the reuse window).
    size_t reused = 0;
    /// Requests dropped (rate limiter outside the reuse window,
    /// admission bound, or an id outside the catalog).
    size_t shed = 0;
    /// Collection latency of this call: the issued batch's simulated
    /// latency, maxed with the latencies of every joined flight
    /// (joining means waiting out the tail of someone else's probe).
    TimeMs latency_ms = 0;
  };

  /// Schedules one probe batch. Thread-safe; blocks until every
  /// issued and joined probe has completed.
  BatchOutcome ProbeBatch(const std::vector<SensorId>& ids);

  /// Cumulative scheduler counters (relaxed atomics; exact when read
  /// at quiescent points).
  struct Stats {
    int64_t requested = 0;
    int64_t issued = 0;
    int64_t coalesced = 0;
    int64_t reused = 0;
    int64_t shed_rate_limited = 0;
    /// Admission bound hits plus ids outside the catalog (neither
    /// reaches the backend).
    int64_t shed_admission = 0;
    int64_t batches = 0;
  };
  Stats stats() const;

  const Options& options() const { return options_; }

 private:
  /// Few enough to keep the table cold-cache friendly, enough that 16
  /// query streams rarely collide on unrelated sensors.
  static constexpr size_t kStripes = 64;

  struct Stripe {
    Mutex mu{SyncSite::kProbeFlight};
    /// _any variant: waits on the annotated Mutex capability directly
    /// (same idiom as thread_pool.h).
    std::condition_variable_any cv;
    /// Joiners blocked on cv (guarded by mu); a publish with none
    /// skips notify_all.
    int waiters = 0;
  };

  /// Per-sensor scheduling state. Guarded by the sensor's stripe — a
  /// runtime-keyed association the static analysis cannot follow
  /// (same contract as StripedMutex; enforced by TSan).
  struct SensorState {
    /// Ticket of the ProbeBatch call whose probe for this sensor is in
    /// the network right now; 0 = none. A call that finds its own
    /// ticket is seeing a repeat occurrence of an id it leads.
    uint64_t flight_ticket = 0;
    /// Completed-flight counter; joiners capture it at classification
    /// and wait until it advances.
    uint64_t flights_done = 0;
    /// Leader-private while a flight is open: occurrences of this
    /// sensor in the lead batch not yet matched to their outcome (the
    /// flight publishes when it reaches 0), and 1 + the index in the
    /// batch's readings of its last success so far (0 = none yet).
    uint32_t pending_occurrences = 0;
    uint32_t staged_reading = 0;
    /// Last completed probe outcome (valid once has_result), written
    /// only when a flight publishes.
    bool has_result = false;
    bool last_success = false;
    /// Token bucket (lazily initialized to tokens_max on first use).
    bool tokens_init = false;
    Reading last_reading{};
    TimeMs last_latency_ms = 0;
    TimeMs last_done_ms = 0;
    double tokens = 0.0;
    TimeMs token_stamp_ms = 0;
  };
  // One entry per catalog sensor (370k at Live-Local scale), so its
  // size is resident memory: new fields must fit existing padding.
  static_assert(sizeof(SensorState) <= 96, "SensorState grew");

  Stripe& StripeFor(SensorId id) {
    return stripes_[static_cast<size_t>(id) % kStripes];
  }
  /// Refills s's bucket up to now (requires the sensor's stripe).
  void RefillTokens(SensorState* s, TimeMs now) const;
  /// Reserves one outstanding-probe slot; false when the admission
  /// bound is hit.
  bool ReserveOutstanding();

  Backend backend_;
  const Clock* clock_;
  Options options_;
  Stripe stripes_[kStripes];
  /// Indexed by sensor id; elements guarded by the id's stripe. The
  /// vector itself is immutable after construction.
  std::vector<SensorState> states_;
  std::atomic<size_t> outstanding_{0};
  /// Source of per-call flight tickets; 0 is reserved for "no flight".
  std::atomic<uint64_t> next_ticket_{1};

  AtomicCounter<int64_t> requested_ = 0;
  AtomicCounter<int64_t> issued_ = 0;
  AtomicCounter<int64_t> coalesced_ = 0;
  AtomicCounter<int64_t> reused_ = 0;
  AtomicCounter<int64_t> shed_rate_limited_ = 0;
  AtomicCounter<int64_t> shed_admission_ = 0;
  AtomicCounter<int64_t> batches_ = 0;
};

}  // namespace colr

#endif  // COLR_CORE_PROBE_SCHEDULER_H_
