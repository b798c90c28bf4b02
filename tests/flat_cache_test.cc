#include "core/flat_cache.h"

#include "common/rng.h"
#include "gtest/gtest.h"
#include "sensor/network.h"

namespace colr {
namespace {

constexpr TimeMs kMin = kMsPerMinute;

class FlatCacheTest : public ::testing::Test {
 protected:
  FlatCacheTest() {
    Rng rng(1);
    sensors_ = MakeUniformSensors(500, Rect::FromCorners(0, 0, 100, 100),
                                  5 * kMin, 1.0, rng);
  }

  Reading ReadingFor(int i, TimeMs ts, double v = 1.0) {
    return Reading{sensors_[i].id, ts, ts + sensors_[i].expiry_ms, v};
  }

  std::vector<SensorInfo> sensors_;
};

TEST_F(FlatCacheTest, EmptyCacheReportsEverythingMissing) {
  FlatCache cache(&sensors_, kMin, 10 * kMin, 0);
  const QueryRegion region =
      QueryRegion::FromRect(Rect::FromCorners(0, 0, 50, 50));
  auto lookup = cache.Query(region, 0, 5 * kMin);
  EXPECT_EQ(lookup.scanned, 500);
  EXPECT_TRUE(lookup.cached.empty());
  int expected = 0;
  for (const auto& s : sensors_) {
    if (region.Contains(s.location)) ++expected;
  }
  EXPECT_EQ(static_cast<int>(lookup.missing.size()), expected);
}

TEST_F(FlatCacheTest, CachedReadingsServedWhileFresh) {
  FlatCache cache(&sensors_, kMin, 10 * kMin, 0);
  for (int i = 0; i < 500; ++i) {
    cache.Insert(ReadingFor(i, 0));
  }
  EXPECT_EQ(cache.size(), 500u);
  const QueryRegion region =
      QueryRegion::FromRect(Rect::FromCorners(0, 0, 100, 100));
  auto fresh = cache.Query(region, kMin, 5 * kMin);
  EXPECT_EQ(fresh.cached.size(), 500u);
  EXPECT_TRUE(fresh.missing.empty());

  // Beyond validity + staleness: nothing usable.
  auto stale = cache.Query(region, 12 * kMin, kMin);
  EXPECT_TRUE(stale.cached.empty());
  EXPECT_EQ(stale.missing.size(), 500u);
}

TEST_F(FlatCacheTest, CapacityBoundsSize) {
  FlatCache cache(&sensors_, kMin, 10 * kMin, 50);
  for (int i = 0; i < 500; ++i) {
    cache.Insert(ReadingFor(i, 0));
  }
  EXPECT_LE(cache.size(), 50u);
}

TEST_F(FlatCacheTest, AdvanceToExpungesOldSlots) {
  FlatCache cache(&sensors_, kMin, 10 * kMin, 0);
  cache.Insert(ReadingFor(0, 0));
  EXPECT_EQ(cache.size(), 1u);
  cache.AdvanceTo(2 * kMsPerHour);
  EXPECT_EQ(cache.size(), 0u);
}

// Regression: a reading whose expiry slot already left the window used
// to be cached, and at capacity the eviction skipped it as the new
// reading and evicted the live one instead — the query then served
// nothing.
TEST_F(FlatCacheTest, DeadReadingDoesNotEvictLiveOne) {
  FlatCache cache(&sensors_, kMin, 10 * kMin, /*capacity=*/1);  // 11 slots
  // A live reading expiring in slot 25: the window becomes 15..25.
  cache.Insert(Reading{sensors_[0].id, 20 * kMin, 25 * kMin + 1, 7.0});
  // A dead one expiring in slot 5, long out of the window.
  cache.Insert(Reading{sensors_[1].id, 0, 5 * kMin + 1, 9.0});
  EXPECT_EQ(cache.size(), 1u);
  const QueryRegion everywhere =
      QueryRegion::FromRect(Rect::FromCorners(0, 0, 100, 100));
  const auto lookup = cache.Query(everywhere, 20 * kMin, 0);
  ASSERT_EQ(lookup.cached.size(), 1u);
  EXPECT_EQ(lookup.cached[0].sensor, sensors_[0].id);
  EXPECT_DOUBLE_EQ(lookup.cached[0].value, 7.0);
}

TEST_F(FlatCacheTest, IgnoresSensorsOutsideTheCatalog) {
  FlatCache cache(&sensors_, kMin, 10 * kMin, 0);
  cache.Insert(Reading{static_cast<SensorId>(sensors_.size()), 0, kMin, 1.0});
  cache.Insert(Reading{kInvalidSensorId, 0, kMin, 1.0});
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(FlatCacheTest, PolygonRegionFilter) {
  FlatCache cache(&sensors_, kMin, 10 * kMin, 0);
  const QueryRegion region = QueryRegion::FromPolygon(
      Polygon({{0, 0}, {100, 0}, {0, 100}}));  // lower-left triangle
  auto lookup = cache.Query(region, 0, 5 * kMin);
  for (SensorId sid : lookup.missing) {
    EXPECT_TRUE(region.Contains(sensors_[sid].location));
  }
  EXPECT_LT(lookup.missing.size(), 500u);
  EXPECT_GT(lookup.missing.size(), 100u);
}

}  // namespace
}  // namespace colr
