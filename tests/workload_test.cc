#include <algorithm>
#include <set>

#include "common/stats.h"
#include "gtest/gtest.h"
#include "workload/live_local.h"
#include "workload/usgs_field.h"

namespace colr {
namespace {

LiveLocalOptions SmallOptions() {
  LiveLocalOptions opts;
  opts.num_sensors = 5000;
  opts.num_queries = 2000;
  opts.num_cities = 50;
  return opts;
}

TEST(LiveLocalTest, GeneratesRequestedCounts) {
  LiveLocalWorkload w = GenerateLiveLocal(SmallOptions());
  EXPECT_EQ(w.sensors.size(), 5000u);
  EXPECT_EQ(w.queries.size(), 2000u);
  EXPECT_EQ(w.city_centers.size(), 50u);
}

TEST(LiveLocalTest, SensorsInsideExtentWithValidMetadata) {
  LiveLocalOptions opts = SmallOptions();
  LiveLocalWorkload w = GenerateLiveLocal(opts);
  for (size_t i = 0; i < w.sensors.size(); ++i) {
    const SensorInfo& s = w.sensors[i];
    EXPECT_EQ(s.id, i);
    EXPECT_TRUE(opts.extent.Contains(s.location));
    EXPECT_GE(s.expiry_ms, opts.expiry_min_ms);
    EXPECT_LE(s.expiry_ms, opts.expiry_max_ms + 1);
    EXPECT_GE(s.availability, opts.availability_floor);
    EXPECT_LE(s.availability, 1.0);
  }
}

TEST(LiveLocalTest, QueriesSortedInTimeWithinDuration) {
  LiveLocalOptions opts = SmallOptions();
  LiveLocalWorkload w = GenerateLiveLocal(opts);
  TimeMs prev = 0;
  for (const auto& q : w.queries) {
    EXPECT_GE(q.at, prev);
    EXPECT_LE(q.at, opts.duration_ms);
    prev = q.at;
    EXPECT_FALSE(q.region.IsEmpty());
  }
}

TEST(LiveLocalTest, SpatialSkew) {
  // Zipf city weighting: the densest cell of a coarse grid should hold
  // far more than the uniform share of sensors.
  LiveLocalWorkload w = GenerateLiveLocal(SmallOptions());
  constexpr int kGrid = 10;
  std::vector<int> cells(kGrid * kGrid, 0);
  const Rect& e = w.extent;
  for (const auto& s : w.sensors) {
    int cx = std::min(kGrid - 1, static_cast<int>((s.location.x - e.min_x) /
                                                  e.Width() * kGrid));
    int cy = std::min(kGrid - 1, static_cast<int>((s.location.y - e.min_y) /
                                                  e.Height() * kGrid));
    ++cells[cy * kGrid + cx];
  }
  const int max_cell = *std::max_element(cells.begin(), cells.end());
  EXPECT_GT(max_cell, 5000 / (kGrid * kGrid) * 4);
}

TEST(LiveLocalTest, TemporalLocalityOfQueries) {
  // With repeat_probability > 0 a sizable fraction of regions recur.
  LiveLocalOptions opts = SmallOptions();
  opts.repeat_probability = 0.4;
  LiveLocalWorkload w = GenerateLiveLocal(opts);
  std::set<std::pair<double, double>> unique;
  for (const auto& q : w.queries) {
    unique.insert({q.region.min_x, q.region.min_y});
  }
  EXPECT_LT(unique.size(), w.queries.size() * 0.8);
}

TEST(LiveLocalTest, ZoomLevelsSpanScales) {
  LiveLocalOptions opts = SmallOptions();
  LiveLocalWorkload w = GenerateLiveLocal(opts);
  double min_w = 1e9, max_w = 0;
  for (const auto& q : w.queries) {
    min_w = std::min(min_w, q.region.Width());
    max_w = std::max(max_w, q.region.Width());
  }
  // Widths should span at least five octaves.
  EXPECT_GT(max_w / min_w, 32.0);
}

TEST(LiveLocalTest, DeterministicForSeed) {
  LiveLocalWorkload a = GenerateLiveLocal(SmallOptions());
  LiveLocalWorkload b = GenerateLiveLocal(SmallOptions());
  ASSERT_EQ(a.sensors.size(), b.sensors.size());
  for (size_t i = 0; i < a.sensors.size(); ++i) {
    EXPECT_EQ(a.sensors[i].location.x, b.sensors[i].location.x);
  }
  for (size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_TRUE(a.queries[i].region == b.queries[i].region);
  }
}

TEST(LiveLocalTest, RestaurantValueFnStableAndPositive) {
  auto fn = MakeRestaurantWaitingTimeFn(1);
  SensorInfo s;
  s.id = 17;
  const double v1 = fn(s, 1000);
  const double v2 = fn(s, 1000);
  EXPECT_DOUBLE_EQ(v1, v2);
  EXPECT_GE(v1, 0.0);
  // Different sensors differ (hash-based baseline).
  SensorInfo s2;
  s2.id = 18;
  EXPECT_NE(fn(s2, 1000), v1);
}

// ---------------------------------------------------------------------------
// UsgsField
// ---------------------------------------------------------------------------

TEST(UsgsFieldTest, SensorsAndFieldBasics) {
  UsgsField field;
  EXPECT_EQ(field.sensors().size(), 200u);
  for (const auto& s : field.sensors()) {
    EXPECT_TRUE(field.options().extent.Contains(s.location));
  }
  const double avg = field.TrueAverage(0);
  EXPECT_GT(avg, field.options().base_discharge * 0.9);
}

TEST(UsgsFieldTest, SpatialCorrelation) {
  // Nearby points have similar values; far points may differ a lot.
  UsgsField field;
  RunningStat near_diff, far_diff;
  Rng rng(5);
  const Rect& e = field.options().extent;
  for (int i = 0; i < 2000; ++i) {
    Point p{rng.Uniform(e.min_x, e.max_x), rng.Uniform(e.min_y, e.max_y)};
    Point q_near{p.x + 0.01, p.y + 0.01};
    Point q_far{rng.Uniform(e.min_x, e.max_x),
                rng.Uniform(e.min_y, e.max_y)};
    near_diff.Add(std::abs(field.FieldValue(p, 0) -
                           field.FieldValue(q_near, 0)));
    far_diff.Add(std::abs(field.FieldValue(p, 0) -
                          field.FieldValue(q_far, 0)));
  }
  EXPECT_LT(near_diff.mean() * 10.0, far_diff.mean());
}

TEST(UsgsFieldTest, CoefficientOfVariationRealistic) {
  // The error-vs-sample-size curve shape depends on CV ≈ 0.3-0.6.
  UsgsField field;
  RunningStat values;
  for (const auto& s : field.sensors()) {
    values.Add(field.FieldValue(s.location, 0));
  }
  const double cv = values.stddev() / values.mean();
  EXPECT_GT(cv, 0.2);
  EXPECT_LT(cv, 0.8);
}

TEST(UsgsFieldTest, ValueFnNoiseSmall) {
  UsgsField field;
  auto fn = field.ValueFn();
  RunningStat rel;
  for (const auto& s : field.sensors()) {
    const double noisy = fn(s, 0);
    const double clean = field.FieldValue(s.location, 0);
    rel.Add(std::abs(noisy - clean) / clean);
  }
  EXPECT_LT(rel.max(), field.options().noise_fraction + 1e-9);
}

TEST(UsgsFieldTest, TemporalModulation) {
  UsgsField field;
  const double v0 = field.TrueAverage(0);
  // Quarter period of the 6-hour modulation cycle: peak amplitude.
  const double v1 = field.TrueAverage(3 * kMsPerHour / 2);
  EXPECT_NE(v0, v1);
  // Modulation bounded by ±15%.
  EXPECT_NEAR(v1 / v0, 1.0, 0.35);
}

}  // namespace
}  // namespace colr
