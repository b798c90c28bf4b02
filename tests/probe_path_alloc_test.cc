// Allocation budget for the probe path (ColrEngine::ExecuteRange →
// ProbeScheduler::ProbeBatch → SensorNetwork::ProbeBatch). A warmed
// kRTree-mode engine writes no cache and samples nothing, so every heap
// allocation a query makes is on the probe path. The budget allows a
// few per leaf batch and per query but none per probed sensor: a
// container keyed or grown per probed sensor shows up here as a count,
// which repeats exactly from run to run, not as noise in a timing.
//
// Counts come from a replaced global operator new, armed only inside
// the measured window.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "gtest/gtest.h"
#include "core/engine.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_allocations{0};

void* CountedAlloc(std::size_t size, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    // aligned_alloc wants a size that is a multiple of the alignment.
    p = std::aligned_alloc(align, (size + align - 1) / align * align);
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace colr {
namespace {

constexpr TimeMs kMin = kMsPerMinute;

// Heap allocations per probed sensor the budget allows: about twice
// the 0.33 measured on the workload below, where a leaf batch of ~13
// probes costs two allocations (the led ids and the readings).
constexpr double kAllocationsPerProbeBudget = 0.65;

TEST(ProbePathAllocTest, RangeQueriesAllocateNothingPerProbedSensor) {
  SimClock clock(60 * kMin);
  Rng rng(18);
  SensorNetwork network(
      MakeUniformSensors(4000, Rect::FromCorners(0, 0, 100, 100), 5 * kMin,
                         /*availability=*/0.8, rng),
      &clock);
  ColrTree::Options topts;
  topts.slot_delta_ms = kMin;
  topts.t_max_ms = 5 * kMin;
  ColrTree tree(network.sensors(), topts);
  ColrEngine::Options eopts;
  eopts.mode = ColrEngine::Mode::kRTree;
  ColrEngine engine(&tree, &network, eopts);

  std::vector<Query> queries;
  for (int i = 0; i < 24; ++i) {
    const double lo = 3.0 * (i % 12);
    const double side = 20.0 + 2.5 * i;
    Query q;
    q.region = QueryRegion::FromRect(
        Rect::FromCorners(lo, lo, lo + side, lo + side));
    q.staleness_ms = 5 * kMin;
    q.cluster_level = 2;
    queries.push_back(q);
  }
  auto run = [&] {
    int64_t probes = 0;
    for (const Query& q : queries) {
      probes += engine.Execute(q).stats.sensors_probed;
    }
    return probes;
  };

  run();  // Warm-up: per-thread scratch and lazily sized state.
  g_allocations.store(0);
  g_counting.store(true);
  const int64_t probes = run();
  g_counting.store(false);
  const int64_t allocations = g_allocations.load();

  ASSERT_GT(probes, 10000);
  const double per_probe =
      static_cast<double>(allocations) / static_cast<double>(probes);
  std::printf("%lld allocations for %lld probed sensors over %zu queries: "
              "%.3f per probed sensor, %.1f per query\n",
              static_cast<long long>(allocations),
              static_cast<long long>(probes), queries.size(), per_probe,
              static_cast<double>(allocations) /
                  static_cast<double>(queries.size()));
  EXPECT_LT(per_probe, kAllocationsPerProbeBudget);
}

}  // namespace
}  // namespace colr
