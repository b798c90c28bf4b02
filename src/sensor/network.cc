#include "sensor/network.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace colr {

SensorNetwork::SensorNetwork(std::vector<SensorInfo> sensors,
                             const Clock* clock)
    : SensorNetwork(std::move(sensors), clock, Options()) {}

SensorNetwork::SensorNetwork(std::vector<SensorInfo> sensors,
                             const Clock* clock, Options options)
    : sensors_(std::move(sensors)),
      clock_(clock),
      options_(options),
      rng_(options.seed),
      per_sensor_probes_(sensors_.size()) {
  // Default value model: a deterministic hash of (sensor, time bucket)
  // so tests get stable but non-constant values.
  value_fn_ = [](const SensorInfo& s, TimeMs now) {
    const uint64_t h = (static_cast<uint64_t>(s.id) * 0x9E3779B97F4A7C15ull) ^
                       static_cast<uint64_t>(now / kMsPerMinute);
    return static_cast<double>(h % 1000) / 10.0;
  };
}

SensorNetwork::ProbeResult SensorNetwork::DrawProbe(SensorId id) {
  ProbeResult result;
  if (id >= sensors_.size()) return result;
  const SensorInfo& info = sensors_[id];
  ++counters_.probes;
  per_sensor_probes_[id].fetch_add(1, std::memory_order_relaxed);
  result.success = rng_.Bernoulli(info.availability);
  result.latency_ms = DrawLatency(result.success);
  if (result.success) {
    ++counters_.successes;
    const TimeMs now = clock_->NowMs();
    result.reading = Reading{info.id, now, now + info.expiry_ms, 0.0};
  }
  return result;
}

SensorNetwork::ProbeResult SensorNetwork::Probe(SensorId id) {
  ProbeResult result;
  {
    MutexLock lock(rng_mutex_, SyncSite::kNetworkRng);
    result = DrawProbe(id);
  }
  if (result.success) {
    result.reading.value =
        value_fn_(sensors_[id], result.reading.timestamp);
  }
  return result;
}

SensorNetwork::BatchResult SensorNetwork::ProbeBatch(
    const std::vector<SensorId>& ids) {
  BatchResult batch;
  batch.attempted = ids.size();
  ++counters_.batches;
  batch.readings.reserve(ids.size());
  {
    // One RNG section for the whole batch: success then latency, id by
    // id — the same stream as probing the ids one at a time.
    MutexLock lock(rng_mutex_, SyncSite::kNetworkRng);
    for (SensorId id : ids) {
      const ProbeResult r = DrawProbe(id);
      batch.latency_ms = std::max(batch.latency_ms, r.latency_ms);
      if (r.success) batch.readings.push_back(r.reading);
    }
  }
  for (Reading& r : batch.readings) {
    r.value = value_fn_(sensors_[r.sensor], r.timestamp);
  }
  if (options_.simulated_latency_scale > 0.0 && batch.latency_ms > 0) {
    // One sleep per batch (not per probe): the batch already runs its
    // probes in parallel, so its real-time cost is the max latency.
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        static_cast<double>(batch.latency_ms) *
        options_.simulated_latency_scale));
  }
  return batch;
}

std::vector<uint32_t> SensorNetwork::per_sensor_probes() const {
  std::vector<uint32_t> out;
  out.reserve(per_sensor_probes_.size());
  for (const auto& c : per_sensor_probes_) {
    out.push_back(c.load(std::memory_order_relaxed));
  }
  return out;
}

void SensorNetwork::ResetCounters() {
  counters_.probes = 0;
  counters_.successes = 0;
  counters_.batches = 0;
  for (auto& c : per_sensor_probes_) {
    c.store(0, std::memory_order_relaxed);
  }
}

TimeMs SensorNetwork::DrawLatency(bool success) {
  if (!success) return options_.probe_timeout_ms;
  const double jitter =
      options_.probe_latency_jitter_ms > 0
          ? rng_.Exponential(1.0 / static_cast<double>(
                                       options_.probe_latency_jitter_ms))
          : 0.0;
  return options_.probe_latency_base_ms + static_cast<TimeMs>(jitter);
}

std::vector<SensorInfo> MakeUniformSensors(int n, const Rect& extent,
                                           TimeMs expiry_ms,
                                           double availability, Rng& rng) {
  std::vector<SensorInfo> sensors;
  sensors.reserve(n);
  for (int i = 0; i < n; ++i) {
    SensorInfo s;
    s.id = static_cast<SensorId>(i);
    s.location = {rng.Uniform(extent.min_x, extent.max_x),
                  rng.Uniform(extent.min_y, extent.max_y)};
    s.expiry_ms = expiry_ms;
    s.availability = availability;
    sensors.push_back(s);
  }
  return sensors;
}

}  // namespace colr
