#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/lock_rank.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/sync.h"
#include "common/sync_stats.h"
#include "common/status.h"
#include "gtest/gtest.h"

namespace colr {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("sensor 42");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "sensor 42");
  EXPECT_EQ(s.ToString(), "NotFound: sensor 42");
}

TEST(StatusTest, FactoryCodesAreDistinct) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(), Status::NotFound("").code(),
      Status::OutOfRange("").code(),      Status::AlreadyExists("").code(),
      Status::FailedPrecondition("").code(), Status::IoError("").code(),
      Status::Unavailable("").code(),     Status::Internal("").code()};
  EXPECT_EQ(codes.size(), 8u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, OkStatusNormalizedToInternalError) {
  Result<int> r = Status::OK();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

Status FailsIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status UsesReturnIfError(int x) {
  COLR_RETURN_IF_ERROR(FailsIfNegative(x));
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_FALSE(UsesReturnIfError(-1).ok());
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformIntBounded) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformInt(17), 17u);
  }
}

TEST(RngTest, UniformIntRoughlyUniform) {
  Rng rng(99);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.UniformInt(kBuckets)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, 500);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(5);
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  RunningStat stat;
  for (int i = 0; i < 100000; ++i) {
    stat.Add(rng.Gaussian(5.0, 2.0));
  }
  EXPECT_NEAR(stat.mean(), 5.0, 0.05);
  EXPECT_NEAR(stat.stddev(), 2.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  RunningStat stat;
  for (int i = 0; i < 100000; ++i) {
    stat.Add(rng.Exponential(0.5));
  }
  EXPECT_NEAR(stat.mean(), 2.0, 0.05);
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(17);
  constexpr int kN = 100;
  std::vector<int> counts(kN, 0);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t z = rng.Zipf(kN, 1.0);
    ASSERT_LT(z, static_cast<uint64_t>(kN));
    ++counts[z];
  }
  // Rank 0 should dominate rank 9 by roughly 10x (s = 1).
  EXPECT_GT(counts[0], counts[9] * 5);
  // And every rank should be hit at least once for s=1, n=100, 1e5.
  EXPECT_GT(counts[kN - 1], 0);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(23);
  auto sample = rng.SampleWithoutReplacement(1000, 50);
  std::set<uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(sample.size(), 50u);
  EXPECT_EQ(unique.size(), 50u);
  for (uint64_t v : sample) EXPECT_LT(v, 1000u);
}

TEST(RngTest, SampleWithoutReplacementAllWhenKExceedsN) {
  Rng rng(29);
  auto sample = rng.SampleWithoutReplacement(10, 50);
  std::set<uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(sample.size(), 10u);
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, SampleWithoutReplacementUniform) {
  Rng rng(31);
  constexpr int kN = 20;
  std::vector<int> counts(kN, 0);
  for (int rep = 0; rep < 20000; ++rep) {
    for (uint64_t v : rng.SampleWithoutReplacement(kN, 5)) {
      ++counts[v];
    }
  }
  // Each index has inclusion probability 5/20 = 0.25.
  for (int c : counts) {
    EXPECT_NEAR(c, 5000, 300);
  }
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

TEST(ClockTest, SimClockAdvances) {
  SimClock clock(100);
  EXPECT_EQ(clock.NowMs(), 100);
  clock.AdvanceMs(50);
  EXPECT_EQ(clock.NowMs(), 150);
  clock.SetMs(120);  // never goes backwards
  EXPECT_EQ(clock.NowMs(), 150);
  clock.SetMs(500);
  EXPECT_EQ(clock.NowMs(), 500);
}

TEST(ClockTest, WallClockMonotonic) {
  WallClock clock;
  const TimeMs a = clock.NowMs();
  const TimeMs b = clock.NowMs();
  EXPECT_LE(a, b);
}

TEST(ClockTest, ReplayClockAdvancesFromTraceStart) {
  ReplayClock clock(/*trace_start=*/5000, /*speedup=*/1000.0);
  const TimeMs a = clock.NowMs();
  EXPECT_GE(a, 5000);
  EXPECT_EQ(clock.trace_start(), 5000);
  EXPECT_DOUBLE_EQ(clock.speedup(), 1000.0);
  // At 1000x a few real ms move trace time by seconds; only assert
  // monotonicity and a loose lower bound to stay timing-robust.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const TimeMs b = clock.NowMs();
  EXPECT_GT(b, a);
  EXPECT_GE(b - a, 1000);  // >= 1 real ms elapsed
}

TEST(ClockTest, ReplayClockRestartReanchors) {
  ReplayClock clock(0, 1.0);
  clock.Restart(/*trace_start=*/42000, /*speedup=*/500.0);
  EXPECT_EQ(clock.trace_start(), 42000);
  EXPECT_DOUBLE_EQ(clock.speedup(), 500.0);
  EXPECT_GE(clock.NowMs(), 42000);
  // Restart without a speedup keeps the previous rate.
  clock.Restart(0);
  EXPECT_DOUBLE_EQ(clock.speedup(), 500.0);
}

TEST(ClockTest, ReplayClockWallMsUntil) {
  ReplayClock clock(0, 100.0);
  // 10 s of trace time is <= 100 ms of wall time at 100x (and > 0).
  const double wait = clock.WallMsUntil(10 * kMsPerSecond);
  EXPECT_GT(wait, 0.0);
  EXPECT_LE(wait, 100.0);
  // Past trace instants need no wait.
  EXPECT_LE(clock.WallMsUntil(-kMsPerSecond), 0.0);
}

// ---------------------------------------------------------------------------
// RunningStat / BinnedStat
// ---------------------------------------------------------------------------

TEST(StatsTest, RunningStatBasics) {
  RunningStat s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.Add(v);
  EXPECT_EQ(s.count(), 4);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(StatsTest, RunningStatMergeMatchesCombined) {
  Rng rng(3);
  RunningStat a, b, all;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Gaussian();
    if (i % 2 == 0) {
      a.Add(v);
    } else {
      b.Add(v);
    }
    all.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(StatsTest, BinnedStatBinsGeometrically) {
  BinnedStat bins(1.0, 1000.0, 3);
  EXPECT_EQ(bins.BinIndex(1.0), 0);
  EXPECT_EQ(bins.BinIndex(5.0), 0);
  EXPECT_EQ(bins.BinIndex(50.0), 1);
  EXPECT_EQ(bins.BinIndex(500.0), 2);
  EXPECT_EQ(bins.BinIndex(5000.0), 2);
  bins.Add(5.0, 10.0);
  bins.Add(6.0, 20.0);
  EXPECT_EQ(bins.bin(0).count(), 2);
  EXPECT_DOUBLE_EQ(bins.bin(0).mean(), 15.0);
}

// ---------------------------------------------------------------------------
// Lock-rank registry (common/lock_rank.h <- common/lock_order.inc)
// ---------------------------------------------------------------------------

TEST(LockRankTest, SiteNameCoversEveryEnumValue) {
  std::set<std::string> names;
  for (int i = 0; i < kNumSyncSites; ++i) {
    const char* name = SyncSiteName(static_cast<SyncSite>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "") << "site " << i;
    EXPECT_STRNE(name, "unknown") << "site " << i;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_STREQ(SyncSiteName(static_cast<SyncSite>(-1)), "unknown");
  EXPECT_STREQ(SyncSiteName(static_cast<SyncSite>(kNumSyncSites)), "unknown");
}

TEST(LockRankTest, RanksAreUniqueAndEdgesMonotone) {
  std::set<LockRank> ranks;
  for (int i = 0; i < kNumSyncSites; ++i) {
    EXPECT_TRUE(ranks.insert(LockRankOf(static_cast<SyncSite>(i))).second)
        << "duplicate rank for " << SyncSiteName(static_cast<SyncSite>(i));
  }
  for (const LockOrderEdge& e : kLockOrderEdges) {
    EXPECT_LT(LockRankOf(e.held), LockRankOf(e.acquired))
        << SyncSiteName(e.held) << " -> " << SyncSiteName(e.acquired);
  }
}

TEST(LockRankTest, EdgeDeclaredMatchesEdgeList) {
  for (int h = 0; h < kNumSyncSites; ++h) {
    for (int a = 0; a < kNumSyncSites; ++a) {
      const SyncSite held = static_cast<SyncSite>(h);
      const SyncSite acquired = static_cast<SyncSite>(a);
      bool listed = false;
      for (const LockOrderEdge& e : kLockOrderEdges) {
        listed |= e.held == held && e.acquired == acquired;
      }
      EXPECT_EQ(LockOrderEdgeDeclared(held, acquired), listed)
          << SyncSiteName(held) << " -> " << SyncSiteName(acquired);
      if (h == a) {
        EXPECT_FALSE(listed) << "self-edge " << SyncSiteName(held);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sync-stats wait histogram
// ---------------------------------------------------------------------------

TEST(SyncStatsHistTest, BucketFunctionIsMonotoneAndClamped) {
  EXPECT_EQ(SyncWaitBucket(0), 0);   // uncontended
  EXPECT_EQ(SyncWaitBucket(1), 1);   // first contended bucket
  int prev = 0;
  for (int64_t ns = 1; ns < (int64_t{1} << 40); ns *= 2) {
    const int b = SyncWaitBucket(ns);
    EXPECT_GE(b, prev);
    EXPECT_LT(b, kSyncWaitBuckets);
    prev = b;
  }
  EXPECT_EQ(SyncWaitBucket(std::numeric_limits<int64_t>::max()),
            kSyncWaitBuckets - 1);
}

TEST(SyncStatsHistTest, BucketsSumToAcquisitionsDrivenThroughTimedLock) {
  SyncStatsRegistry::Enable();
  const SyncStatsSnapshot before = SyncStatsRegistry::Instance().Snapshot();

  Mutex mu(SyncSite::kProbeFlight);
  // Uncontended acquisitions land in bucket 0 via the try_lock fast
  // path.
  for (int i = 0; i < 100; ++i) {
    MutexLock lock(mu, SyncSite::kProbeFlight);
  }
  // Force at least one contended acquisition: the helper holds the
  // lock until the main thread is provably blocked inside lock().
  {
    std::atomic<bool> helper_has_lock{false};
    std::thread helper([&] {
      mu.lock();
      helper_has_lock.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      mu.unlock();
    });
    while (!helper_has_lock.load()) std::this_thread::yield();
    MutexLock lock(mu, SyncSite::kProbeFlight);
    helper.join();
  }

  const SyncStatsSnapshot delta = SyncStatsDelta(
      SyncStatsRegistry::Instance().Snapshot(), before);
  const SyncSiteStats& s =
      delta.sites[static_cast<size_t>(SyncSite::kProbeFlight)];
  EXPECT_GE(s.acquisitions, 101);
  EXPECT_GE(s.contended, 0);
  EXPECT_LE(s.contended, s.acquisitions);
  int64_t hist_sum = 0;
  for (int b = 0; b < kSyncWaitBuckets; ++b) hist_sum += s.wait_hist[b];
  EXPECT_EQ(hist_sum, s.acquisitions)
      << "wait histogram must partition the acquisition count";
  // Bucket 0 is exactly the uncontended count; contended waits (>0 ns)
  // land in buckets >= 1.
  EXPECT_EQ(s.wait_hist[0], s.acquisitions - s.contended);
}

}  // namespace
}  // namespace colr
