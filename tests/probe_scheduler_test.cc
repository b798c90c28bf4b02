// Tests for the probe scheduler: single-flight coalescing under the
// deterministic lockstep harness, token-bucket rate limiting against a
// SimClock, admission-bound shedding, and the single-threaded
// passthrough contract the golden fingerprints rely on.

#include "core/probe_scheduler.h"

#include <atomic>
#include <barrier>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "concurrent_harness.h"

namespace colr {
namespace {

Reading MakeReading(SensorId id, TimeMs t, double value) {
  Reading r;
  r.sensor = id;
  r.timestamp = t;
  r.expiry = t + kMsPerMinute;
  r.value = value;
  return r;
}

// ---------------------------------------------------------------------------
// Single-threaded passthrough: defaults must be invisible.
// ---------------------------------------------------------------------------

// With default options and one caller, the scheduler is a wire: every
// id is issued to the backend in request order (duplicates included —
// the network's per-occurrence accounting depends on it), one backend
// batch per call.
TEST(ProbeSchedulerTest, SequentialCallsPassThroughVerbatim) {
  SimClock clock(0);
  std::vector<std::vector<SensorId>> backend_batches;
  ProbeScheduler sched(
      [&](const std::vector<SensorId>& ids) {
        backend_batches.push_back(ids);
        SensorNetwork::BatchResult res;
        res.attempted = ids.size();
        res.latency_ms = 100;
        for (SensorId id : ids) {
          res.readings.push_back(MakeReading(id, 0, 1.0));
        }
        return res;
      },
      &clock, /*num_sensors=*/8, ProbeScheduler::Options{});

  ProbeScheduler::BatchOutcome out = sched.ProbeBatch({0, 1, 1, 2});
  ASSERT_EQ(backend_batches.size(), 1u);
  EXPECT_EQ(backend_batches[0], (std::vector<SensorId>{0, 1, 1, 2}));
  EXPECT_EQ(out.issued_ids, (std::vector<SensorId>{0, 1, 1, 2}));
  EXPECT_EQ(out.readings.size(), 4u);
  EXPECT_EQ(out.issued_readings, 4u);
  EXPECT_EQ(out.requested, 4u);
  EXPECT_EQ(out.coalesced, 0u);
  EXPECT_EQ(out.reused, 0u);
  EXPECT_EQ(out.shed, 0u);
  EXPECT_EQ(out.latency_ms, 100);

  // Second call for the same sensors issues again: nothing in flight,
  // no rate limiter configured.
  out = sched.ProbeBatch({2, 0});
  ASSERT_EQ(backend_batches.size(), 2u);
  EXPECT_EQ(backend_batches[1], (std::vector<SensorId>{2, 0}));

  const ProbeScheduler::Stats stats = sched.stats();
  EXPECT_EQ(stats.requested, 6);
  EXPECT_EQ(stats.issued, 6);
  EXPECT_EQ(stats.coalesced, 0);
  EXPECT_EQ(stats.batches, 2);
}

TEST(ProbeSchedulerTest, EmptyBatchIsANoop) {
  SimClock clock(0);
  int backend_calls = 0;
  ProbeScheduler sched(
      [&](const std::vector<SensorId>&) {
        ++backend_calls;
        return SensorNetwork::BatchResult{};
      },
      &clock, 4, ProbeScheduler::Options{});
  ProbeScheduler::BatchOutcome out = sched.ProbeBatch({});
  EXPECT_EQ(backend_calls, 0);
  EXPECT_EQ(out.requested, 0u);
  EXPECT_TRUE(out.readings.empty());
}

// ---------------------------------------------------------------------------
// Single-flight under the deterministic lockstep harness.
// ---------------------------------------------------------------------------

// Two barriered query streams slam the same hot sensor. The leader's
// backend call blocks until the scheduler reports the other stream has
// joined the flight, so the interleaving is pinned: exactly one
// network probe happens per Δ no matter which thread wins the race,
// and both streams receive the fan-out reading.
TEST(ProbeSchedulerTest, LockstepStreamsShareOneFlight) {
  SimClock clock(0);
  std::atomic<int> backend_calls{0};
  ProbeScheduler* sched_ptr = nullptr;
  ProbeScheduler sched(
      [&](const std::vector<SensorId>& ids) {
        backend_calls.fetch_add(1);
        // Hold the flight open until the other stream has coalesced
        // onto it (it registers as a joiner before waiting).
        while (sched_ptr->stats().coalesced < 1) {
          std::this_thread::yield();
        }
        SensorNetwork::BatchResult res;
        res.attempted = ids.size();
        res.latency_ms = 250;
        for (SensorId id : ids) {
          res.readings.push_back(MakeReading(id, 0, 42.0));
        }
        return res;
      },
      &clock, /*num_sensors=*/4, ProbeScheduler::Options{});
  sched_ptr = &sched;

  constexpr SensorId kHot = 2;
  std::barrier gate(2);
  std::vector<ProbeScheduler::BatchOutcome> outcomes(2);
  testing::RunThreads(2, [&](int t) {
    gate.arrive_and_wait();
    outcomes[static_cast<size_t>(t)] = sched.ProbeBatch({kHot});
  });

  // Exactly one network probe for the hot sensor.
  EXPECT_EQ(backend_calls.load(), 1);
  const ProbeScheduler::Stats stats = sched.stats();
  EXPECT_EQ(stats.requested, 2);
  EXPECT_EQ(stats.issued, 1);
  EXPECT_EQ(stats.coalesced, 1);
  EXPECT_EQ(stats.batches, 1);

  // Both streams got the same fan-out reading; one led, one joined.
  int leaders = 0;
  int joiners = 0;
  for (const ProbeScheduler::BatchOutcome& out : outcomes) {
    ASSERT_EQ(out.readings.size(), 1u);
    EXPECT_EQ(out.readings[0].sensor, kHot);
    EXPECT_DOUBLE_EQ(out.readings[0].value, 42.0);
    EXPECT_EQ(out.latency_ms, 250);
    if (out.issued_ids.size() == 1) {
      ++leaders;
    } else if (out.coalesced == 1) {
      EXPECT_TRUE(out.issued_ids.empty());
      EXPECT_EQ(out.issued_readings, 0u);
      ++joiners;
    }
  }
  EXPECT_EQ(leaders, 1);
  EXPECT_EQ(joiners, 1);
}

// A duplicated occurrence inside one call must NOT join its own
// flight: the network deliberately probes every occurrence. The
// sensor's published result is its last success (read back through
// the reuse window), even when a later occurrence failed.
TEST(ProbeSchedulerTest, DuplicateOccurrenceLeadsItsOwnProbe) {
  SimClock clock(0);
  std::vector<size_t> batch_sizes;
  ProbeScheduler::Options opts;
  opts.token_refill_ms = kMsPerMinute;
  opts.reuse_window_ms = kMsPerMinute;
  ProbeScheduler sched(
      [&](const std::vector<SensorId>& ids) {
        batch_sizes.push_back(ids.size());
        SensorNetwork::BatchResult res;
        res.attempted = ids.size();
        // The first two occurrences succeed, the rest fail.
        for (size_t i = 0; i < ids.size() && i < 2; ++i) {
          res.readings.push_back(MakeReading(ids[i], 0, 10.0 + i));
        }
        return res;
      },
      &clock, 4, opts);
  ProbeScheduler::BatchOutcome out = sched.ProbeBatch({3, 3, 3});
  ASSERT_EQ(batch_sizes.size(), 1u);
  EXPECT_EQ(batch_sizes[0], 3u);
  EXPECT_EQ(out.issued_ids.size(), 3u);
  EXPECT_EQ(out.issued_readings, 2u);
  EXPECT_EQ(out.coalesced, 0u);

  // The token is spent: the next request reuses the published result.
  out = sched.ProbeBatch({3});
  EXPECT_EQ(batch_sizes.size(), 1u);
  EXPECT_EQ(out.reused, 1u);
  ASSERT_EQ(out.readings.size(), 1u);
  EXPECT_DOUBLE_EQ(out.readings[0].value, 11.0);
}

// Duplicates from a *second* call join the open flight; they do not
// lead. The per-call ticket is what tells "my flight" (a repeat that
// leads, above) from "another call's flight". Stream A leads the hot
// sensor and blocks in the backend; stream B then asks for it twice.
TEST(ProbeSchedulerTest, DuplicatesFromASecondCallJoin) {
  SimClock clock(0);
  std::atomic<int> backend_calls{0};
  std::atomic<bool> leader_in_backend{false};
  ProbeScheduler* sched_ptr = nullptr;
  ProbeScheduler sched(
      [&](const std::vector<SensorId>& ids) {
        backend_calls.fetch_add(1);
        leader_in_backend.store(true);
        // Hold A's flight open until both of B's occurrences joined it,
        // or B issued a batch of its own (a failure, not a hang).
        while (sched_ptr->stats().coalesced < 2 && backend_calls.load() < 2) {
          std::this_thread::yield();
        }
        SensorNetwork::BatchResult res;
        res.attempted = ids.size();
        res.latency_ms = 250;
        for (SensorId id : ids) {
          res.readings.push_back(MakeReading(id, 0, 42.0));
        }
        return res;
      },
      &clock, /*num_sensors=*/4, ProbeScheduler::Options{});
  sched_ptr = &sched;

  constexpr SensorId kHot = 1;
  ProbeScheduler::BatchOutcome a;
  ProbeScheduler::BatchOutcome b;
  testing::RunThreads(2, [&](int t) {
    if (t == 0) {
      a = sched.ProbeBatch({kHot});
      return;
    }
    while (!leader_in_backend.load()) std::this_thread::yield();
    b = sched.ProbeBatch({kHot, kHot});
  });

  EXPECT_EQ(backend_calls.load(), 1);
  EXPECT_EQ(a.issued_ids, (std::vector<SensorId>{kHot}));
  EXPECT_TRUE(b.issued_ids.empty());
  EXPECT_EQ(b.coalesced, 2u);
  ASSERT_EQ(b.readings.size(), 2u);
  for (const Reading& r : b.readings) {
    EXPECT_EQ(r.sensor, kHot);
    EXPECT_DOUBLE_EQ(r.value, 42.0);
  }
  EXPECT_EQ(b.latency_ms, 250);
  const ProbeScheduler::Stats stats = sched.stats();
  EXPECT_EQ(stats.requested, 3);
  EXPECT_EQ(stats.issued, 1);
  EXPECT_EQ(stats.coalesced, 2);
}

// An id past the catalog is shed before classification: it never
// reaches the backend nor indexes the per-sensor table, and
// requested = issued + coalesced + reused + shed still holds.
TEST(ProbeSchedulerTest, IdsOutsideTheCatalogAreShed) {
  SimClock clock(0);
  std::vector<std::vector<SensorId>> backend_batches;
  ProbeScheduler sched(
      [&](const std::vector<SensorId>& ids) {
        backend_batches.push_back(ids);
        SensorNetwork::BatchResult res;
        res.attempted = ids.size();
        for (SensorId id : ids) {
          res.readings.push_back(MakeReading(id, 0, 1.0));
        }
        return res;
      },
      &clock, /*num_sensors=*/4, ProbeScheduler::Options{});

  ProbeScheduler::BatchOutcome out = sched.ProbeBatch({1, 7});
  ASSERT_EQ(backend_batches.size(), 1u);
  EXPECT_EQ(backend_batches[0], (std::vector<SensorId>{1}));
  EXPECT_EQ(out.issued_ids, (std::vector<SensorId>{1}));
  EXPECT_EQ(out.shed, 1u);
  ASSERT_EQ(out.readings.size(), 1u);
  EXPECT_EQ(out.readings[0].sensor, 1u);

  // Nothing in range: no backend call at all.
  out = sched.ProbeBatch({4, kInvalidSensorId});
  EXPECT_EQ(backend_batches.size(), 1u);
  EXPECT_EQ(out.shed, 2u);
  EXPECT_TRUE(out.readings.empty());

  const ProbeScheduler::Stats stats = sched.stats();
  EXPECT_EQ(stats.requested, 4);
  EXPECT_EQ(stats.issued, 1);
  EXPECT_EQ(stats.shed_admission, 3);
  EXPECT_EQ(stats.requested,
            stats.issued + stats.coalesced + stats.reused +
                stats.shed_rate_limited + stats.shed_admission);
}

// ---------------------------------------------------------------------------
// Token-bucket rate limiting (SimClock-driven, fully deterministic).
// ---------------------------------------------------------------------------

TEST(ProbeSchedulerTest, TokenBucketReusesThenRefills) {
  SimClock clock(0);
  int backend_calls = 0;
  ProbeScheduler::Options opts;
  opts.tokens_max = 1.0;
  opts.token_refill_ms = kMsPerMinute;  // one probe per sensor-minute
  opts.reuse_window_ms = 5 * kMsPerMinute;
  ProbeScheduler sched(
      [&](const std::vector<SensorId>& ids) {
        ++backend_calls;
        SensorNetwork::BatchResult res;
        res.attempted = ids.size();
        res.latency_ms = 90;
        for (SensorId id : ids) {
          res.readings.push_back(
              MakeReading(id, clock.NowMs(), 7.0 + backend_calls));
        }
        return res;
      },
      &clock, 4, opts);

  // First request spends the sensor's token.
  ProbeScheduler::BatchOutcome out = sched.ProbeBatch({1});
  EXPECT_EQ(backend_calls, 1);
  EXPECT_EQ(out.issued_ids.size(), 1u);

  // Bucket empty, last result fresh: served from the completed probe,
  // no network traffic.
  out = sched.ProbeBatch({1});
  EXPECT_EQ(backend_calls, 1);
  EXPECT_EQ(out.reused, 1u);
  EXPECT_TRUE(out.issued_ids.empty());
  ASSERT_EQ(out.readings.size(), 1u);
  EXPECT_DOUBLE_EQ(out.readings[0].value, 8.0);  // the first probe's value

  // A full refill interval later the bucket has a token again.
  clock.AdvanceMs(kMsPerMinute);
  out = sched.ProbeBatch({1});
  EXPECT_EQ(backend_calls, 2);
  EXPECT_EQ(out.issued_ids.size(), 1u);
  EXPECT_EQ(out.reused, 0u);

  const ProbeScheduler::Stats stats = sched.stats();
  EXPECT_EQ(stats.issued, 2);
  EXPECT_EQ(stats.reused, 1);
  EXPECT_EQ(stats.shed_rate_limited, 0);
}

TEST(ProbeSchedulerTest, RateLimitedRequestOutsideReuseWindowIsShed) {
  SimClock clock(0);
  int backend_calls = 0;
  ProbeScheduler::Options opts;
  opts.tokens_max = 1.0;
  opts.token_refill_ms = 10 * kMsPerMinute;
  opts.reuse_window_ms = kMsPerSecond;  // tight: stale results shed
  ProbeScheduler sched(
      [&](const std::vector<SensorId>& ids) {
        ++backend_calls;
        SensorNetwork::BatchResult res;
        res.attempted = ids.size();
        for (SensorId id : ids) {
          res.readings.push_back(MakeReading(id, clock.NowMs(), 1.0));
        }
        return res;
      },
      &clock, 4, opts);

  EXPECT_EQ(sched.ProbeBatch({0}).issued_ids.size(), 1u);
  // Outside the reuse window, bucket still empty: shed, no reading.
  clock.AdvanceMs(2 * kMsPerSecond);
  ProbeScheduler::BatchOutcome out = sched.ProbeBatch({0});
  EXPECT_EQ(backend_calls, 1);
  EXPECT_EQ(out.shed, 1u);
  EXPECT_TRUE(out.readings.empty());
  EXPECT_EQ(sched.stats().shed_rate_limited, 1);
}

// ---------------------------------------------------------------------------
// Admission bound.
// ---------------------------------------------------------------------------

TEST(ProbeSchedulerTest, AdmissionBoundShedsBeyondOutstandingCap) {
  SimClock clock(0);
  std::vector<size_t> batch_sizes;
  ProbeScheduler::Options opts;
  opts.max_outstanding_probes = 2;
  ProbeScheduler sched(
      [&](const std::vector<SensorId>& ids) {
        batch_sizes.push_back(ids.size());
        SensorNetwork::BatchResult res;
        res.attempted = ids.size();
        for (SensorId id : ids) {
          res.readings.push_back(MakeReading(id, 0, 1.0));
        }
        return res;
      },
      &clock, 8, opts);

  ProbeScheduler::BatchOutcome out = sched.ProbeBatch({0, 1, 2, 3, 4});
  ASSERT_EQ(batch_sizes.size(), 1u);
  EXPECT_EQ(batch_sizes[0], 2u);
  EXPECT_EQ(out.issued_ids, (std::vector<SensorId>{0, 1}));
  EXPECT_EQ(out.shed, 3u);
  EXPECT_EQ(sched.stats().shed_admission, 3);

  // The slots were released when the batch completed: the next call
  // admits again.
  out = sched.ProbeBatch({5, 6});
  EXPECT_EQ(out.issued_ids.size(), 2u);
  EXPECT_EQ(out.shed, 0u);
}

// ---------------------------------------------------------------------------
// Engine-level invariants under free-running concurrency (TSan leg).
// ---------------------------------------------------------------------------

// Many query streams over the stress rig: whatever the interleaving,
// issued probes must equal the network's probe counter, and the
// scheduler's partition must account for every request.
TEST(ProbeSchedulerStressTest, EngineInvariantsHoldUnderConcurrency) {
  testing::EngineStressRig rig(/*cache_capacity=*/300);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20;
  testing::RunQueryStreams(rig, kThreads, kPerThread,
                           [](int, int, const QueryResult&) {});

  const QueryStats cum = rig.engine->cumulative();
  const ProbeScheduler::Stats sched = rig.engine->probe_scheduler().stats();
  EXPECT_EQ(sched.issued,
            static_cast<int64_t>(rig.network->counters().probes));
  EXPECT_EQ(sched.issued, cum.sensors_probed);
  EXPECT_EQ(sched.coalesced, cum.probes_coalesced);
  EXPECT_EQ(sched.requested,
            sched.issued + sched.coalesced + sched.reused +
                sched.shed_rate_limited + sched.shed_admission);
  EXPECT_DOUBLE_EQ(cum.processing_skew_ms, 0.0);
}

// Same rig with the rate limiter and admission bound armed: the run
// must stay consistent (and shed counters populated in stats) rather
// than deadlock or drop accounting.
TEST(ProbeSchedulerStressTest, ArmedLimitsKeepAccountingConsistent) {
  testing::EngineStressRig rig(/*cache_capacity=*/300);
  ColrEngine::Options eopts;
  eopts.mode = ColrEngine::Mode::kColr;
  eopts.probe.token_refill_ms = kMsPerMinute;
  eopts.probe.reuse_window_ms = 2 * kMsPerMinute;
  eopts.probe.max_outstanding_probes = 64;
  ColrEngine engine(rig.tree.get(), rig.network.get(), eopts);

  testing::RunThreads(6, [&](int t) {
    for (int i = 0; i < 15; ++i) {
      ExecutionContext ctx(
          engine.QuerySeed(static_cast<uint64_t>(t) * 15 + i));
      engine.Execute(rig.MakeQuery(t, i), ctx);
    }
  });

  const QueryStats cum = engine.cumulative();
  const ProbeScheduler::Stats sched = engine.probe_scheduler().stats();
  EXPECT_EQ(sched.issued,
            static_cast<int64_t>(rig.network->counters().probes));
  EXPECT_EQ(sched.requested,
            sched.issued + sched.coalesced + sched.reused +
                sched.shed_rate_limited + sched.shed_admission);
  EXPECT_EQ(cum.probes_reused, sched.reused);
  EXPECT_EQ(cum.probes_shed,
            sched.shed_rate_limited + sched.shed_admission);
  // The frozen clock never refills a bucket, so repeat traffic over
  // the hot viewports must actually exercise the limiter.
  EXPECT_GT(sched.reused + sched.shed_rate_limited, 0);
}

}  // namespace
}  // namespace colr
