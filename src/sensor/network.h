#ifndef COLR_SENSOR_NETWORK_H_
#define COLR_SENSOR_NETWORK_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "sensor/sensor.h"

namespace colr {

class ThreadPool;

/// Simulated wide-area sensor network. This is the substitute for the
/// live Internet-connected sensors the paper probes (DESIGN.md §1):
/// each probe is a pull ("most publicly deployed sensors do not
/// support pushing"), succeeds with the sensor's availability
/// probability, costs simulated latency, and is counted — probe counts
/// and sensing-load uniformity are the paper's headline metrics.
///
/// Thread-safe: probes may be issued from many query threads at once.
/// Cumulative counters (including the per-sensor probe counts behind
/// Theorem 2's load-uniformity analysis) are atomics; the Bernoulli /
/// latency draws share one RNG behind a mutex so the sequential
/// behaviour — and with it every seed-fixed experiment — is
/// bit-identical to the pre-concurrency engine when probes are issued
/// from a single thread.
class SensorNetwork {
 public:
  struct Options {
    /// Fixed per-probe round-trip component.
    TimeMs probe_latency_base_ms = 80;
    /// Mean of the exponential jitter added per probe.
    TimeMs probe_latency_jitter_ms = 60;
    /// Failed probes hit a timeout instead of the regular RTT.
    TimeMs probe_timeout_ms = 400;
    uint64_t seed = 0xC01Au;
    /// When > 0, ProbeBatch converts the batch's simulated collection
    /// latency into real wall time (sleeping latency_ms * scale) so
    /// serving benchmarks reproduce the I/O-bound regime of a portal
    /// probing live web sensors. 0 (the default) keeps the simulator
    /// instantaneous for replays and tests.
    double simulated_latency_scale = 0.0;
  };

  /// Produces a reading value for a sensor at a given time. Installed
  /// by workloads (restaurant waiting times, water discharge, ...).
  /// Must be pure (it is invoked concurrently from probe threads).
  using ValueFn = std::function<double(const SensorInfo&, TimeMs)>;

  SensorNetwork(std::vector<SensorInfo> sensors, const Clock* clock);
  SensorNetwork(std::vector<SensorInfo> sensors, const Clock* clock,
                Options options);

  SensorNetwork(const SensorNetwork&) = delete;
  SensorNetwork& operator=(const SensorNetwork&) = delete;

  void set_value_fn(ValueFn fn) { value_fn_ = std::move(fn); }

  /// No-op, kept only because perfbench/colr_bench.cc still calls it.
  /// ProbeBatch runs every batch on the caller: the batch sleeps once
  /// for its largest latency, so fanning its probes or its value fills
  /// over a pool buys nothing. Delete with that last caller.
  void set_thread_pool(ThreadPool* /*pool*/) {}

  struct ProbeResult {
    bool success = false;
    Reading reading;
    TimeMs latency_ms = 0;
  };

  /// Probes a single sensor. Success is a Bernoulli trial on the
  /// sensor's availability; on success the reading carries the current
  /// simulated time and the sensor's expiry period.
  ProbeResult Probe(SensorId id);

  struct BatchResult {
    std::vector<Reading> readings;
    size_t attempted = 0;
    /// Latency of the whole batch assuming the portal probes the batch
    /// in parallel: the maximum of the individual probe latencies.
    TimeMs latency_ms = 0;
  };

  /// Probes all sensors in `ids` in parallel. The whole batch draws its
  /// outcomes under one RNG section, id by id, so it yields exactly the
  /// readings, latencies and counters of probing the ids one at a time
  /// with Probe (readings ordered by position in `ids`, batch latency =
  /// max individual latency).
  BatchResult ProbeBatch(const std::vector<SensorId>& ids);

  size_t size() const { return sensors_.size(); }
  const Clock* clock() const { return clock_; }
  const std::vector<SensorInfo>& sensors() const { return sensors_; }
  const SensorInfo& sensor(SensorId id) const { return sensors_[id]; }

  struct Counters {
    AtomicCounter<int64_t> probes = 0;
    AtomicCounter<int64_t> successes = 0;
    AtomicCounter<int64_t> batches = 0;
  };
  const Counters& counters() const { return counters_; }
  /// Number of times each sensor has been probed; the input to the
  /// sensing-load-uniformity analysis (Theorem 2). Snapshot of the
  /// live atomic counters.
  std::vector<uint32_t> per_sensor_probes() const;
  uint32_t probe_count(SensorId id) const {
    return per_sensor_probes_[id].load(std::memory_order_relaxed);
  }
  void ResetCounters();

 private:
  /// Counts one probe of `id` and draws its outcome, success then
  /// latency (the draw order every seed-fixed experiment pins). The
  /// reading's value is left 0; callers fill it from value_fn_ after
  /// the RNG section.
  ProbeResult DrawProbe(SensorId id) COLR_REQUIRES(rng_mutex_);
  TimeMs DrawLatency(bool success) COLR_REQUIRES(rng_mutex_);

  std::vector<SensorInfo> sensors_;
  const Clock* clock_;
  Options options_;
  /// Guards rng_ — the only non-atomic mutable shared state.
  Mutex rng_mutex_{SyncSite::kNetworkRng};
  Rng rng_ COLR_GUARDED_BY(rng_mutex_);
  ValueFn value_fn_;
  Counters counters_;
  std::vector<std::atomic<uint32_t>> per_sensor_probes_;
};

/// Builds `n` sensors uniformly placed in `extent` with the given
/// expiry durations (one per sensor, cycled if shorter) and constant
/// availability. Convenience for tests and small examples.
std::vector<SensorInfo> MakeUniformSensors(int n, const Rect& extent,
                                           TimeMs expiry_ms,
                                           double availability, Rng& rng);

}  // namespace colr

#endif  // COLR_SENSOR_NETWORK_H_
