#include <algorithm>
#include <numeric>

#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "sensor/expiry_model.h"
#include "sensor/network.h"
#include "sensor/sensor.h"

namespace colr {
namespace {

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

TEST(ReadingTest, ValidityWindow) {
  Reading r{0, 1000, 5000, 1.0};
  EXPECT_TRUE(r.ValidAt(1000));
  EXPECT_TRUE(r.ValidAt(4999));
  EXPECT_FALSE(r.ValidAt(5000));
  EXPECT_FALSE(r.ValidAt(9999));
}

// ---------------------------------------------------------------------------
// Expiry models
// ---------------------------------------------------------------------------

TEST(ExpiryModelTest, Names) {
  EXPECT_STREQ(ExpiryModelName(ExpiryModel::kUniform), "Uniform");
  EXPECT_STREQ(ExpiryModelName(ExpiryModel::kUsgs), "USGS");
  EXPECT_STREQ(ExpiryModelName(ExpiryModel::kWeather), "Weather");
}

TEST(ExpiryModelTest, FractionsInUnitInterval) {
  Rng rng(1);
  for (ExpiryModel m : {ExpiryModel::kUniform, ExpiryModel::kUsgs,
                        ExpiryModel::kWeather}) {
    for (int i = 0; i < 5000; ++i) {
      const double f = SampleExpiryFraction(m, rng);
      EXPECT_GT(f, 0.0);
      EXPECT_LE(f, 1.0);
    }
  }
}

TEST(ExpiryModelTest, UniformMeanIsHalf) {
  Rng rng(2);
  RunningStat stat;
  for (int i = 0; i < 50000; ++i) {
    stat.Add(SampleExpiryFraction(ExpiryModel::kUniform, rng));
  }
  EXPECT_NEAR(stat.mean(), 0.5, 0.01);
}

TEST(ExpiryModelTest, UsgsSkewsLongWeatherSkewsShort) {
  Rng rng(3);
  RunningStat usgs, weather;
  for (int i = 0; i < 20000; ++i) {
    usgs.Add(SampleExpiryFraction(ExpiryModel::kUsgs, rng));
    weather.Add(SampleExpiryFraction(ExpiryModel::kWeather, rng));
  }
  EXPECT_GT(usgs.mean(), 0.75);   // long validities dominate
  EXPECT_LT(weather.mean(), 0.3);  // short validities dominate
}

TEST(ExpiryModelTest, DurationsScaledToTmax) {
  Rng rng(4);
  const TimeMs t_max = 10 * kMsPerMinute;
  auto durations =
      SampleExpiryDurations(ExpiryModel::kUniform, 1000, t_max, rng);
  EXPECT_EQ(durations.size(), 1000u);
  for (TimeMs d : durations) {
    EXPECT_GE(d, 1);
    EXPECT_LE(d, t_max);
  }
}

// ---------------------------------------------------------------------------
// SensorNetwork
// ---------------------------------------------------------------------------

class SensorNetworkTest : public ::testing::Test {
 protected:
  SensorNetworkTest() {
    Rng rng(5);
    sensors_ = MakeUniformSensors(100, Rect::FromCorners(0, 0, 10, 10),
                                  kMsPerMinute, 1.0, rng);
  }
  SimClock clock_;
  std::vector<SensorInfo> sensors_;
};

TEST_F(SensorNetworkTest, ProbeProducesTimestampedReading) {
  clock_.AdvanceMs(1234);
  SensorNetwork net(sensors_, &clock_);
  auto result = net.Probe(7);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.reading.sensor, 7u);
  EXPECT_EQ(result.reading.timestamp, 1234);
  EXPECT_EQ(result.reading.expiry, 1234 + kMsPerMinute);
  EXPECT_GT(result.latency_ms, 0);
}

TEST_F(SensorNetworkTest, ProbeOutOfRangeFails) {
  SensorNetwork net(sensors_, &clock_);
  EXPECT_FALSE(net.Probe(1000).success);
}

TEST_F(SensorNetworkTest, AvailabilityGovernsSuccessRate) {
  for (auto& s : sensors_) s.availability = 0.6;
  SensorNetwork net(sensors_, &clock_);
  int success = 0;
  constexpr int kProbes = 20000;
  for (int i = 0; i < kProbes; ++i) {
    success += net.Probe(static_cast<SensorId>(i % 100)).success ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(success) / kProbes, 0.6, 0.02);
  EXPECT_EQ(net.counters().probes, kProbes);
  EXPECT_EQ(net.counters().successes, success);
}

TEST_F(SensorNetworkTest, BatchLatencyIsMaxOfProbes) {
  SensorNetwork net(sensors_, &clock_);
  std::vector<SensorId> ids(20);
  std::iota(ids.begin(), ids.end(), 0);
  auto batch = net.ProbeBatch(ids);
  EXPECT_EQ(batch.attempted, 20u);
  EXPECT_EQ(batch.readings.size(), 20u);  // availability = 1.0
  SensorNetwork::Options opts;
  EXPECT_GE(batch.latency_ms, opts.probe_latency_base_ms);
}

// A batch draws the same RNG stream as probing its ids one at a time
// (success then latency, id by id), with or without a pool attached, so
// neither batching nor a pool can move any seed-fixed result.
// Duplicates and an out-of-catalog id included; 602 ids, so a fan-out
// over the pool above any small-batch threshold would show here.
TEST_F(SensorNetworkTest, SequentialBatchDrawsTheSingleProbeStream) {
  for (auto& s : sensors_) s.availability = 0.6;
  std::vector<SensorId> ids;
  for (SensorId i = 0; i < 600; ++i) ids.push_back((i * 7) % 50);
  ids.push_back(1000);
  ids.push_back(3);
  ThreadPool pool(4);
  for (ThreadPool* attached : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(attached == nullptr ? "no pool" : "pool of 4");
    SensorNetwork batched(sensors_, &clock_);
    batched.set_thread_pool(attached);
    SensorNetwork single(sensors_, &clock_);
    const SensorNetwork::BatchResult batch = batched.ProbeBatch(ids);

    std::vector<Reading> expected;
    TimeMs max_latency = 0;
    for (SensorId id : ids) {
      const SensorNetwork::ProbeResult r = single.Probe(id);
      max_latency = std::max(max_latency, r.latency_ms);
      if (r.success) expected.push_back(r.reading);
    }
    ASSERT_EQ(batch.readings.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(batch.readings[i].sensor, expected[i].sensor);
      EXPECT_EQ(batch.readings[i].timestamp, expected[i].timestamp);
      EXPECT_EQ(batch.readings[i].expiry, expected[i].expiry);
      EXPECT_DOUBLE_EQ(batch.readings[i].value, expected[i].value);
    }
    EXPECT_EQ(batch.latency_ms, max_latency);
    EXPECT_EQ(batched.counters().probes, single.counters().probes);
    EXPECT_EQ(batched.counters().successes, single.counters().successes);
    EXPECT_EQ(batched.per_sensor_probes(), single.per_sensor_probes());
  }
}

TEST_F(SensorNetworkTest, FailedProbeCostsTimeout) {
  for (auto& s : sensors_) s.availability = 0.0;
  SensorNetwork::Options opts;
  SensorNetwork net(sensors_, &clock_, opts);
  auto result = net.Probe(0);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.latency_ms, opts.probe_timeout_ms);
}

TEST_F(SensorNetworkTest, PerSensorProbeCounting) {
  SensorNetwork net(sensors_, &clock_);
  net.Probe(3);
  net.Probe(3);
  net.Probe(4);
  EXPECT_EQ(net.per_sensor_probes()[3], 2u);
  EXPECT_EQ(net.per_sensor_probes()[4], 1u);
  EXPECT_EQ(net.per_sensor_probes()[5], 0u);
  net.ResetCounters();
  EXPECT_EQ(net.per_sensor_probes()[3], 0u);
  EXPECT_EQ(net.counters().probes, 0);
}

TEST_F(SensorNetworkTest, CustomValueFunction) {
  SensorNetwork net(sensors_, &clock_);
  net.set_value_fn([](const SensorInfo& s, TimeMs) {
    return static_cast<double>(s.id) * 2.0;
  });
  auto result = net.Probe(21);
  ASSERT_TRUE(result.success);
  EXPECT_DOUBLE_EQ(result.reading.value, 42.0);
}

TEST(MakeUniformSensorsTest, PlacesInsideExtent) {
  Rng rng(6);
  const Rect extent = Rect::FromCorners(-5, -5, 5, 5);
  auto sensors = MakeUniformSensors(500, extent, kMsPerMinute, 0.8, rng);
  ASSERT_EQ(sensors.size(), 500u);
  for (size_t i = 0; i < sensors.size(); ++i) {
    EXPECT_EQ(sensors[i].id, i);
    EXPECT_TRUE(extent.Contains(sensors[i].location));
    EXPECT_DOUBLE_EQ(sensors[i].availability, 0.8);
  }
}

}  // namespace
}  // namespace colr
