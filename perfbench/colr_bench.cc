// colr_perfbench: the repository benchmark (NOTES.md explains the
// workloads and how to read the output). For one workload it times the
// public call that workload's client makes, checks the system's
// invariants, and prints every metric with its unit. The last stdout
// line is one JSON object that perfbench/run.py turns into the result.
//
//   colr_perfbench --workload colr_replay|hier_replay|portal_wire
//                  --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//                  [--rate R]
//
// --trace 0 measures the end-to-end metrics with nothing recorded.
// --trace 1 runs equal sets of untraced and traced passes, then
// re-drives each layer's public functions in isolation with the inputs
// recorded in the last traced pass, and reports the per-layer metrics.
// --rate overrides portal_wire's offered rate, for capacity sweeps
// (NOTES.md); the benchmark itself always runs at kWireRate.

#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/sync_stats.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/probe_scheduler.h"
#include "core/query.h"
#include "core/sampling.h"
#include "core/tree.h"
#include "net/client.h"
#include "net/server.h"
#include "net/transport.h"
#include "net/wire.h"
#include "portal/parser.h"
#include "portal/portal.h"
#include "sensor/network.h"
#include "spans.h"
#include "workload/live_local.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER __VERSION__
#endif

namespace perfbench {
namespace {

using colr::ColrEngine;
using colr::ColrTree;
using colr::LiveLocalWorkload;
using colr::QueryResult;
using colr::QueryStats;
using colr::Reading;
using colr::SensorId;
using colr::TimeMs;

constexpr TimeMs kStalenessMs = 5 * colr::kMsPerMinute;
constexpr int kClusterLevel = 2;
/// Set-ups per run: setup_s is their median. Where one set-up is
/// cheap, a run keeps setting up until about kSetupSeconds are spent:
/// set-up time on a shared host swings by half within a second, so a
/// median needs samples from several seconds.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 100;
constexpr double kSetupSeconds = 2.5;
/// Replays make at least this many passes and report each query's best
/// time over them (KeepBest). The host has slow spells from a second to
/// minutes long. Two passes some seconds apart seldom both meet a short
/// one at the same query, while a single pass takes whatever share of
/// slow time its run had. A spell covering a whole run still moves it
/// (NOTES.md).
constexpr int kMinReplayPasses = 2;
/// Replay timings are reported at this memory latency (MemoryGauge): the
/// gauge's reading in the fast state of a 4-vCPU, 2.1 GHz Xeon host.
constexpr double kGaugeReferenceNs = 95.0;
/// MemoryGauge samples between queries at most this often.
constexpr int64_t kGaugeIntervalNs = 250000000;
/// portal_wire: server pool, client connections and the fixed offered
/// rate. A --rate sweep of this mix on a 4-vCPU host saturated at
/// 285-287 replies/s (NOTES.md), so 150/s is about half of that.
constexpr int kWirePoolThreads = 4;
constexpr int kWireConnections = 3;
constexpr double kWireRate = 150.0;
constexpr int kWireSampleSize = 40;
/// Reference target R for the isolated sampler on hier_replay, whose
/// own queries are exact.
constexpr int kReferenceSampleSize = 30;
/// Wall budget of each isolated-layer loop in the traced run.
constexpr double kIsolatedBudgetS = 0.4;
/// Cap on readings recorded for the isolated insert/probe replays.
constexpr size_t kMaxRecordedReadings = 400000;
/// Requests whose spans go to the trace file (phase spans always do).
constexpr int64_t kTraceFileRequests = 2000;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Spec {
  std::string name;
  int sensors = 0;
  int cities = 0;
  /// Trace length of the replays; portal_wire sizes its trace from the
  /// run length (one trace query per arrival).
  int queries = 0;
  ColrEngine::Mode mode = ColrEngine::Mode::kColr;
  /// SAMPLESIZE of every replay query (0 = exact).
  int sample_size = 0;
  /// SensorNetwork::Options::simulated_latency_scale.
  double latency_scale = 0.0;
  bool wire = false;
};

bool LookupSpec(const std::string& name, Spec* out) {
  Spec s;
  s.name = name;
  if (name == "colr_replay") {
    s.sensors = 370000;
    s.cities = 250;
    s.queries = 106000;
    s.mode = ColrEngine::Mode::kColr;
    s.sample_size = 30;
  } else if (name == "hier_replay") {
    s.sensors = 30000;
    s.cities = 120;
    s.queries = 10000;
    s.mode = ColrEngine::Mode::kHierCache;
  } else if (name == "portal_wire") {
    s.sensors = 30000;
    s.cities = 120;
    s.mode = ColrEngine::Mode::kColr;
    s.latency_scale = 1e-3;
    s.wire = true;
  } else {
    return false;
  }
  *out = s;
  return true;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string trace_dir;
  /// portal_wire offered rate; only a capacity sweep changes it.
  double rate = kWireRate;
};

/// Independent seed streams derived from --seed.
enum SeedStream : uint64_t {
  kNetworkSeed = 1,
  kEngineSeed = 2,
  kArrivalSeed = 3,
  kSamplerSeed = 4,
};

uint64_t StreamSeed(uint64_t seed, SeedStream stream) {
  return colr::DeriveSeed(seed, stream);
}

/// Every workload replays the paper's Live-Local trace as
/// GenerateLiveLocal makes it at this seed (the figure harnesses'
/// default): one fixed catalog and one fixed query trace, the way the
/// paper replays one recorded trace. --seed draws the probe outcomes,
/// the engine's sampling and the arrival times. Drawing the trace from
/// --seed too would make every metric swing with the random city layout
/// and zoom mix rather than with the code under test.
constexpr uint64_t kCatalogSeed = 20080407;

LiveLocalWorkload Generate(const Spec& spec, int queries) {
  colr::LiveLocalOptions o;
  o.num_sensors = spec.sensors;
  o.num_cities = spec.cities;
  o.num_queries = queries;
  o.seed = kCatalogSeed;
  return colr::GenerateLiveLocal(o);
}

/// The tree configuration every figure harness uses: fanout 8, 32
/// sensors per leaf, cache for a quarter of the catalog, Δ = t_max/4.
ColrTree::Options TreeOptions(const std::vector<colr::SensorInfo>& sensors) {
  ColrTree::Options o;
  o.cluster.fanout = 8;
  o.cluster.leaf_capacity = 32;
  o.cache_capacity = sensors.size() / 4;
  TimeMs t_max = 0;
  for (const colr::SensorInfo& s : sensors) t_max = std::max(t_max, s.expiry_ms);
  o.t_max_ms = t_max;
  o.slot_delta_ms = t_max / 4;
  return o;
}

std::string QueryText(const colr::Rect& r, int sample_size, bool select_star) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "SELECT %s FROM sensor S "
                "WHERE S.location WITHIN RECT(%.6f, %.6f, %.6f, %.6f) "
                "AND S.time BETWEEN now()-5 AND now() mins "
                "CLUSTER LEVEL %d SAMPLESIZE %d",
                select_star ? "*" : "count(*)", r.min_x, r.min_y, r.max_x,
                r.max_y, kClusterLevel, sample_size);
  return buf;
}

colr::Query MakeQuery(const colr::Rect& region, int sample_size) {
  colr::Query q;
  q.region = colr::QueryRegion::FromRect(region);
  q.staleness_ms = kStalenessMs;
  q.sample_size = sample_size;
  q.cluster_level = kClusterLevel;
  return q;
}

/// max(0, 1 - result / min(R, sensors in region)), R = infinity for an
/// exact query. Negative when the region holds no sensor (skipped).
double Shortfall(int64_t result_size, int sample_size, int region_count) {
  if (region_count <= 0) return -1.0;
  const int target =
      sample_size > 0 ? std::min(sample_size, region_count) : region_count;
  return std::max(0.0, 1.0 - static_cast<double>(result_size) /
                                 static_cast<double>(target));
}

// ---------------------------------------------------------------------------
// Report: metrics, invariants, host facts
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = kNaN;
  std::string unit;
  std::string detail;
};

class Report {
 public:
  void E2E(const std::string& name, double v, const std::string& unit,
           const std::string& detail = "") {
    e2e_.push_back({name, v, unit, detail});
  }
  void Layer(const std::string& name, double v, const std::string& unit,
             const std::string& detail = "") {
    layers_.push_back({name, v, unit, detail});
  }
  void Info(const std::string& key, const std::string& value) {
    info_lines_.push_back(key + "=" + value);
  }
  void Check(bool ok, const std::string& what) {
    ++checks_;
    if (ok) return;
    failures_.push_back(what);
    std::fprintf(stderr, "INVARIANT BROKEN: %s\n", what.c_str());
  }
  bool correct() const { return failures_.empty(); }

  int64_t attempted = 0;
  int64_t failed = 0;

  void Print() const {
    std::printf("host: ");
    for (const std::string& l : info_lines_) std::printf("%s  ", l.c_str());
    std::printf("\n");
    PrintTable("end-to-end metrics", e2e_);
    PrintTable("per-layer metrics", layers_);
    std::printf("queries attempted %lld, failed %lld\n",
                static_cast<long long>(attempted),
                static_cast<long long>(failed));
    std::printf("invariants: %d checked, %zu broken\n", checks_,
                failures_.size());
  }

  std::string Json() const {
    JsonObject o;
    o.Bool("correct", correct())
        .Int("attempted", attempted)
        .Int("failed", failed)
        .Raw("e2e", MetricsJson(e2e_))
        .Raw("layers", MetricsJson(layers_));
    return o.Done();
  }

 private:
  static void PrintTable(const char* title, const std::vector<Metric>& ms) {
    if (ms.empty()) return;
    std::printf("%s:\n", title);
    for (const Metric& m : ms) {
      std::printf("  %-34s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.detail.c_str());
    }
  }
  static std::string MetricsJson(const std::vector<Metric>& ms) {
    JsonObject o;
    for (const Metric& m : ms) {
      JsonObject v;
      v.Num("value", m.value).Str("unit", m.unit);
      o.Raw(m.name, v.Done());
    }
    return o.Done();
  }

  std::vector<Metric> e2e_;
  std::vector<Metric> layers_;
  std::vector<std::string> info_lines_;
  std::vector<std::string> failures_;
  int checks_ = 0;
};

std::string Fmt(const char* fmt, double a, double b = 0.0, double c = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

/// Median and tail of a latency sample, with its sample count stated.
void ReportLatency(Report& rep, const std::string& prefix,
                   const std::vector<double>& lat_ms, bool e2e) {
  const double p50 = Median(lat_ms);
  const Tail tail = TailPercentile(lat_ms);
  const double n = static_cast<double>(lat_ms.size());
  const std::string d50 = Fmt("(median, n=%.0f)", n);
  const std::string dtail =
      Fmt("(p%.4g, n=%.0f, %.0f beyond)", tail.percentile, n,
          static_cast<double>(tail.beyond));
  if (e2e) {
    rep.E2E(prefix + "p50_ms", p50, "ms", d50);
    rep.E2E(prefix + "p99_ms", tail.value, "ms", dtail);
  } else {
    rep.Layer(prefix + "p50_ms", p50, "ms", d50);
  }
}

double PeakRssMiB() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Times a chain of dependent loads that miss the caches. The shared
/// host this benchmark was tuned on has spells, from a second to
/// minutes long, in which memory-bound code runs up to ~1.6x slower
/// while arithmetic does not slow, and a whole run can sit in one spell.
/// So replay latencies are scaled by kGaugeReferenceNs / the gauge's
/// median reading over the same pass (NOTES.md). The buffer is flushed
/// before each walk, and the walk runs between queries, so the reading
/// depends on the host's memory system and not on what the program left
/// in the caches.
class MemoryGauge {
 public:
  MemoryGauge() : next_(kEntries) {
    // One random cycle through the 8 MiB buffer (Sattolo's shuffle), so
    // that no prefetcher can run ahead of the chain.
    for (uint32_t i = 0; i < kEntries; ++i) next_[i] = i;
    colr::Rng rng(kGaugeSeed);
    for (uint32_t i = kEntries - 1; i > 0; --i) {
      std::swap(next_[i], next_[rng.UniformInt(i)]);
    }
  }

  /// Walks the chain if kGaugeIntervalNs have passed since the last walk.
  void MaybeSample() {
    if (NowNs() - last_ns_ < kGaugeIntervalNs) return;
#if defined(__x86_64__) || defined(__i386__)
    for (size_t i = 0; i < next_.size(); i += kEntriesPerLine) {
      _mm_clflush(&next_[i]);
    }
    _mm_mfence();
#endif
    const int64_t t0 = NowNs();
    uint32_t at = 0;
    for (uint32_t i = 0; i < kLoads; ++i) at = next_[at];
    last_ns_ = NowNs();
    end_ += at;
    ns_per_load_.push_back(static_cast<double>(last_ns_ - t0) / kLoads);
  }

  /// Median ns per load since the last call, which starts a new set of
  /// readings.
  double TakeMedianNs() {
    const double m = Median(ns_per_load_);
    ns_per_load_.clear();
    return m;
  }

 private:
  static constexpr uint64_t kGaugeSeed = 0x6a09e667f3bcc909ULL;
  static constexpr uint32_t kEntries = 2u << 20;  // 8 MiB of uint32_t
  static constexpr uint32_t kEntriesPerLine = 16;
  static constexpr uint32_t kLoads = 100000;
  std::vector<uint32_t> next_;
  std::vector<double> ns_per_load_;
  int64_t last_ns_ = -kGaugeIntervalNs;
  /// Where the walks ended; keeps the loads from being optimised away.
  uint64_t end_ = 0;
};

// ---------------------------------------------------------------------------
// Rig: one engine configuration (+ server for portal_wire)
// ---------------------------------------------------------------------------

struct Rig {
  colr::SimClock clock;
  std::unique_ptr<colr::ThreadPool> pool;
  std::unique_ptr<colr::SensorNetwork> network;
  std::unique_ptr<ColrTree> tree;
  std::unique_ptr<ColrEngine> engine;
  std::unique_ptr<colr::portal::SensorPortal> portal;
  std::unique_ptr<colr::net::InProcTransport> transport;
  std::unique_ptr<colr::net::PortalServer> server;

  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() {
    if (server != nullptr) server->Stop();
  }
};

struct SetupTimes {
  std::vector<double> total_s;
  std::vector<double> gen_s;
  std::vector<double> build_s;
};

std::unique_ptr<Rig> BuildRig(const LiveLocalWorkload& w, const Spec& spec,
                              uint64_t seed, SetupTimes* times) {
  auto rig = std::make_unique<Rig>();
  if (spec.wire) {
    rig->pool = std::make_unique<colr::ThreadPool>(kWirePoolThreads);
  }
  colr::SensorNetwork::Options nopts;
  nopts.seed = StreamSeed(seed, kNetworkSeed);
  nopts.simulated_latency_scale = spec.latency_scale;
  rig->network =
      std::make_unique<colr::SensorNetwork>(w.sensors, &rig->clock, nopts);
  rig->network->set_value_fn(colr::MakeRestaurantWaitingTimeFn());
  if (rig->pool != nullptr) rig->network->set_thread_pool(rig->pool.get());

  const int64_t t0 = NowNs();
  rig->tree = std::make_unique<ColrTree>(w.sensors, TreeOptions(w.sensors));
  times->build_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);

  ColrEngine::Options eopts;
  eopts.mode = spec.mode;
  eopts.seed = StreamSeed(seed, kEngineSeed);
  rig->engine = std::make_unique<ColrEngine>(rig->tree.get(),
                                             rig->network.get(), eopts);
  rig->portal = std::make_unique<colr::portal::SensorPortal>(
      rig->tree.get(), rig->engine.get());
  if (spec.wire) {
    rig->transport = std::make_unique<colr::net::InProcTransport>();
    colr::net::PortalServer::Options sopts;
    sopts.max_inflight = 128;
    sopts.request_timeout_ms = 2000;
    rig->server = std::make_unique<colr::net::PortalServer>(
        rig->portal.get(), rig->pool.get(), sopts);
    const colr::Status st = rig->server->Start(rig->transport->CreateListener());
    if (!st.ok()) {
      std::fprintf(stderr, "server start failed: %s\n", st.ToString().c_str());
      return nullptr;
    }
  }
  return rig;
}

/// Generates the workload and builds its rig, timing both as one
/// set-up sample.
std::unique_ptr<Rig> SetUp(const Spec& spec, int queries, uint64_t seed,
                           SetupTimes* times,
                           std::unique_ptr<LiveLocalWorkload>* workload) {
  const int64_t t0 = NowNs();
  *workload = std::make_unique<LiveLocalWorkload>(Generate(spec, queries));
  const int64_t t1 = NowNs();
  times->gen_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  std::unique_ptr<Rig> rig = BuildRig(**workload, spec, seed, times);
  times->total_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  return rig;
}

/// More set-ups after the run, until setup_s has kMinSetups samples
/// and, where one set-up is cheap, about kSetupSeconds of them.
void TopUpSetups(const Spec& spec, int queries, uint64_t seed,
                 SetupTimes* times) {
  double spent = 0.0;
  for (double t : times->total_s) spent += t;
  while (times->total_s.size() < static_cast<size_t>(kMinSetups) ||
         (spent < kSetupSeconds &&
          times->total_s.size() < static_cast<size_t>(kMaxSetups))) {
    std::unique_ptr<LiveLocalWorkload> w;
    SetUp(spec, queries, seed, times, &w);
    spent += times->total_s.back();
  }
}

/// Invariants that must hold after any run on a quiescent rig.
/// `probes_from_results` is sensors_probed summed over every answer
/// the client received.
void CheckRig(Report& rep, const Rig& rig, int64_t probes_from_results,
              const std::string& phase) {
  const colr::Status st = rig.tree->CheckCacheConsistency();
  rep.Check(st.ok(), phase + ": ColrTree::CheckCacheConsistency: " +
                         st.ToString());
  const QueryStats cum = rig.engine->cumulative();
  const int64_t net_probes = rig.network->counters().probes.load();
  rep.Check(cum.sensors_probed == net_probes,
            phase + ": engine sensors_probed " +
                std::to_string(cum.sensors_probed) + " != network probes " +
                std::to_string(net_probes));
  rep.Check(cum.sensors_probed == probes_from_results,
            phase + ": engine sensors_probed " +
                std::to_string(cum.sensors_probed) +
                " != sum over answers " + std::to_string(probes_from_results));
  const colr::ProbeScheduler::Stats ss = rig.engine->probe_scheduler().stats();
  const int64_t accounted = ss.issued + ss.coalesced + ss.reused +
                            ss.shed_rate_limited + ss.shed_admission;
  rep.Check(ss.requested == accounted,
            phase + ": scheduler requested " + std::to_string(ss.requested) +
                " != issued+coalesced+reused+shed " +
                std::to_string(accounted));
  rep.Check(ss.issued == net_probes,
            phase + ": scheduler issued " + std::to_string(ss.issued) +
                " != network probes " + std::to_string(net_probes));
  rep.Check(cum.processing_skew_ms == 0.0,
            phase + ": processing_skew_ms " +
                std::to_string(cum.processing_skew_ms) + " != 0");
}

// ---------------------------------------------------------------------------
// Inputs recorded in the traced pass, for the isolated-layer replays
// ---------------------------------------------------------------------------

struct Inputs {
  std::vector<colr::Rect> regions;
  std::vector<int> sample_sizes;
  std::vector<std::string> texts;
  /// Freshly collected readings in the order the engine inserted them.
  std::vector<Reading> readings;
  /// Per query, the ids of its collected readings (non-empty only).
  std::vector<std::vector<SensorId>> batches;
  /// portal_wire: replies as the client decoded them.
  std::vector<colr::net::QueryReply> replies;
  TimeMs end_ms = 0;

  void RecordCollected(const std::vector<Reading>& collected) {
    if (collected.empty() || readings.size() >= kMaxRecordedReadings) return;
    readings.insert(readings.end(), collected.begin(), collected.end());
    std::vector<SensorId> ids;
    ids.reserve(collected.size());
    for (const Reading& r : collected) ids.push_back(r.sensor);
    batches.push_back(std::move(ids));
  }
};

// ---------------------------------------------------------------------------
// Closed-loop replay (colr_replay, hier_replay)
// ---------------------------------------------------------------------------

struct ReplayOutcome {
  /// Wall times scaled to kGaugeReferenceNs: raw time * scale.
  std::vector<double> latency_ms;
  double gauge_ns = 0.0;
  double scale = 1.0;
  /// Client time between one call's return and the next call.
  std::vector<double> gap_ms;
  QueryStats sum;
  int64_t inserts = 0;
  int64_t terminals = 0;
  std::vector<double> shortfall;
};

ReplayOutcome ReplayPass(Rig& rig, const LiveLocalWorkload& w,
                         const Spec& spec, bool count_regions, Tracer& tracer,
                         MemoryGauge& gauge, Inputs* rec) {
  ReplayOutcome out;
  out.latency_ms.reserve(w.queries.size());
  out.gap_ms.reserve(w.queries.size());
  int64_t prev_end = -1;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    const LiveLocalWorkload::QueryRecord& qr = w.queries[i];
    const int64_t req = static_cast<int64_t>(i);
    rig.clock.SetMs(qr.at);
    const colr::Query query = MakeQuery(qr.region, spec.sample_size);
    // The timed window holds the span calls too, so a traced pass's
    // latency carries the cost of recording them.
    const int64_t t0 = NowNs();
    const int32_t root = tracer.Begin("query", req);
    const int32_t exec = tracer.Begin("engine.Execute", req, root);
    const QueryResult r = rig.engine->Execute(query);
    tracer.End(exec);
    const int64_t t1 = NowNs();
    if (prev_end >= 0) {
      out.gap_ms.push_back(static_cast<double>(t0 - prev_end) / 1e6);
    }
    out.latency_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    out.sum.MergeCounters(r.stats);
    out.inserts += static_cast<int64_t>(r.collected.size());
    out.terminals += static_cast<int64_t>(r.stats.terminals.size());
    if (rec != nullptr) rec->RecordCollected(r.collected);
    if (count_regions) {
      ScopedSpan span(tracer, "tree.CountSensorsInRegion", req, root);
      const double s = Shortfall(r.stats.result_size, spec.sample_size,
                                 rig.tree->CountSensorsInRegion(qr.region));
      if (s >= 0.0) out.shortfall.push_back(s);
    }
    tracer.End(root);
    gauge.MaybeSample();
    prev_end = NowNs();
  }
  out.gauge_ns = gauge.TakeMedianNs();
  out.scale = kGaugeReferenceNs / out.gauge_ns;
  for (double& ms : out.latency_ms) ms *= out.scale;
  return out;
}

// ---------------------------------------------------------------------------
// Open loop over the wire (portal_wire)
// ---------------------------------------------------------------------------

struct WorkItem {
  int64_t index = 0;
  int64_t due_ns = 0;
};

/// The open-loop handoff: the dispatcher pushes each arrival when it
/// is due whether or not a connection is free, so time spent here
/// counts toward the request's latency.
class OpenQueue {
 public:
  void Push(WorkItem item) {
    {
      colr::MutexLock lock(mu_);
      items_.push_back(item);
    }
    cv_.notify_one();
  }
  void Close() {
    {
      colr::MutexLock lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }
  bool Pop(WorkItem* out) {
    colr::MutexLock lock(mu_);
    while (items_.empty() && !closed_) cv_.wait(mu_);
    if (items_.empty()) return false;
    *out = items_.front();
    items_.pop_front();
    return true;
  }

 private:
  colr::Mutex mu_;
  std::condition_variable_any cv_;
  std::deque<WorkItem> items_ COLR_GUARDED_BY(mu_);
  bool closed_ COLR_GUARDED_BY(mu_) = false;
};

struct Arrival {
  bool replied = false;
  bool ok = false;
  double latency_ms = 0.0;
  int64_t rows = 0;
  int64_t probes = 0;
  int64_t coalesced = 0;
  int64_t reused = 0;
  int64_t shed = 0;
  /// Readings behind the answer, read back from the reply body; -1
  /// when the body could not be read.
  int64_t result_size = -1;
  size_t reply_bytes = 0;
};

/// Readings behind a portal answer, read from its JSON body: the row
/// count of a SELECT *, else the sum of the groups' `sampled` column.
/// -1 when the body is not the relation shape RelationToJson writes.
int64_t ResultSizeFromBody(const std::string& body, bool select_star) {
  const size_t cols = body.find("\"columns\": [");
  const size_t rows = body.find("\"rows\": [");
  if (cols == std::string::npos || rows == std::string::npos) return -1;
  int sampled_col = -1;
  {
    int idx = 0;
    size_t p = cols + 12;
    while (p < rows && body[p] != ']') {
      const size_t q = body.find('"', p);
      if (q == std::string::npos || q >= rows) break;
      const size_t e = body.find('"', q + 1);
      if (e == std::string::npos) return -1;
      if (body.compare(q + 1, e - q - 1, "sampled") == 0) sampled_col = idx;
      ++idx;
      p = e + 1;
      while (p < rows && (body[p] == ',' || body[p] == ' ')) ++p;
    }
  }
  if (!select_star && sampled_col < 0) return -1;
  int64_t total = 0;
  size_t p = rows + 9;
  while (p < body.size()) {
    while (p < body.size() && (body[p] == ' ' || body[p] == ',')) ++p;
    if (p >= body.size()) return -1;
    if (body[p] == ']') return total;
    if (body[p] != '[') return -1;
    ++p;
    int col = 0;
    for (;;) {
      const size_t end = body.find_first_of(",]", p);
      if (end == std::string::npos) return -1;
      if (body[p] == '"') return -1;  // only numeric/null cells expected
      if (!select_star && col == sampled_col) {
        total += std::strtoll(body.c_str() + p, nullptr, 10);
      }
      p = end + 1;
      if (body[end] == ']') break;
      ++col;
      while (p < body.size() && body[p] == ' ') ++p;
    }
    if (select_star) ++total;
  }
  return -1;
}

struct WireOutcome {
  std::vector<Arrival> arrivals;
  std::vector<double> lag_ms;
  double wall_s = 0.0;
  int64_t protocol_errors = 0;
};

/// Offers one Poisson arrival per trace query, in trace order, at
/// `rate` per second; each arrival advances the SimClock to its trace
/// time when dispatched. `tracers` holds the dispatcher's tracer
/// followed by one per connection.
WireOutcome RunOpenLoop(Rig& rig, const LiveLocalWorkload& w,
                        const std::vector<std::string>& texts,
                        const std::vector<bool>& select_star, uint64_t seed,
                        double rate,
                        std::vector<std::unique_ptr<Tracer>>& tracers,
                        Inputs* rec) {
  // A Poisson process conditioned on its count: n arrival instants
  // uniform over n / rate seconds, so every run offers exactly the
  // nominal rate.
  const size_t n = texts.size();
  std::vector<int64_t> offset_ns(n);
  colr::Rng rng(StreamSeed(seed, kArrivalSeed));
  const double span_s = static_cast<double>(n) / rate;
  for (int64_t& o : offset_ns) {
    o = static_cast<int64_t>(rng.Uniform(0.0, span_s) * 1e9);
  }
  std::sort(offset_ns.begin(), offset_ns.end());

  WireOutcome out;
  out.arrivals.resize(n);
  out.lag_ms.reserve(n);
  std::vector<std::vector<colr::net::QueryReply>> kept(kWireConnections);
  std::vector<int64_t> protocol_errors(kWireConnections, 0);
  OpenQueue queue;
  const int64_t start_ns = NowNs() + 1000000;

  std::vector<std::thread> workers;
  workers.reserve(kWireConnections);
  for (int c = 0; c < kWireConnections; ++c) {
    workers.emplace_back([&, c] {
      Tracer& tr = *tracers[static_cast<size_t>(c) + 1];
      std::unique_ptr<colr::net::PortalClient> client;
      WorkItem item;
      while (queue.Pop(&item)) {
        const size_t i = static_cast<size_t>(item.index);
        const int32_t root = tr.BeginAt("request", item.index, -1, item.due_ns);
        tr.End(tr.BeginAt("loadgen.queue", item.index, root, item.due_ns));
        if (client == nullptr) {
          auto conn = rig.transport->Connect();
          if (!conn.ok()) {
            ++protocol_errors[static_cast<size_t>(c)];
            tr.End(root);
            continue;
          }
          client = std::make_unique<colr::net::PortalClient>(std::move(*conn));
        }
        const int32_t call = tr.Begin("client.Query", item.index, root);
        colr::Result<colr::net::QueryReply> reply = client->Query(texts[i]);
        tr.End(call);
        tr.End(root);
        Arrival& a = out.arrivals[i];
        a.latency_ms = static_cast<double>(NowNs() - item.due_ns) / 1e6;
        if (!reply.ok()) {
          ++protocol_errors[static_cast<size_t>(c)];
          client.reset();  // a broken stream cannot resync: redial
          continue;
        }
        a.replied = true;
        a.ok = reply->status == colr::net::WireStatus::kOk;
        a.rows = reply->rows;
        a.probes = reply->probes;
        a.coalesced = reply->probes_coalesced;
        a.reused = reply->probes_reused;
        a.shed = reply->probes_shed;
        a.reply_bytes = colr::net::kFrameHeaderBytes + reply->body_json.size();
        if (a.ok) a.result_size = ResultSizeFromBody(reply->body_json, select_star[i]);
        if (rec != nullptr) kept[static_cast<size_t>(c)].push_back(std::move(*reply));
      }
    });
  }

  Tracer& dispatcher = *tracers[0];
  for (size_t i = 0; i < n; ++i) {
    const int64_t due = start_ns + offset_ns[i];
    for (;;) {
      const int64_t lead = due - NowNs();
      if (lead <= 0) break;
      std::this_thread::sleep_for(std::chrono::nanoseconds(std::min<int64_t>(lead, 2000000)));
    }
    const int32_t span = dispatcher.BeginAt("loadgen.dispatch",
                                            static_cast<int64_t>(i), -1, due);
    rig.clock.SetMs(w.queries[i].at);
    queue.Push({static_cast<int64_t>(i), due});
    dispatcher.End(span);
    out.lag_ms.push_back(static_cast<double>(NowNs() - due) / 1e6);
  }
  queue.Close();
  for (std::thread& t : workers) t.join();
  out.wall_s = static_cast<double>(NowNs() - start_ns) / 1e9;
  for (int64_t e : protocol_errors) out.protocol_errors += e;
  if (rec != nullptr) {
    for (auto& v : kept) {
      for (auto& r : v) rec->replies.push_back(std::move(r));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Isolated-layer replays (traced run)
// ---------------------------------------------------------------------------

struct Timed {
  double us_per_unit = kNaN;
  int64_t ops = 0;
};

/// The j-th input a budgeted loop visits when inputs are taken evenly
/// from the whole run (golden-ratio sequence: any prefix of it covers
/// the trace evenly, not just its start).
size_t Spread(size_t j, size_t n) {
  const double golden = 0.6180339887498949;
  const double frac = static_cast<double>(j) * golden -
                      std::floor(static_cast<double>(j) * golden);
  return std::min(n - 1, static_cast<size_t>(frac * static_cast<double>(n)));
}

enum class Order { kInOrder, kSpread };

/// Runs op over the inputs until every input ran or the wall budget is
/// spent (at least one op). kInOrder visits 0, 1, 2, ... (stateful
/// replays); kSpread visits Spread(j, n). op returns the work units it
/// did (1 per call, or ids per batch); the result is µs per unit.
template <typename Op>
Timed TimeLoop(Tracer& phases, const char* span, size_t n, Order order,
               Op&& op, double budget_s = kIsolatedBudgetS) {
  Timed t;
  if (n == 0) return t;
  ScopedSpan s(phases, span, -1);
  int64_t units = 0;
  const int64_t start = NowNs();
  const int64_t budget = static_cast<int64_t>(budget_s * 1e9);
  size_t i = 0;
  do {
    units += op(order == Order::kSpread ? Spread(i, n) : i);
    ++i;
  } while (i < n && NowNs() - start < budget);
  const int64_t elapsed = NowNs() - start;
  t.ops = static_cast<int64_t>(i);
  if (units > 0) t.us_per_unit = static_cast<double>(elapsed) / 1e3 / static_cast<double>(units);
  return t;
}

std::string OpsDetail(const Timed& t) {
  return Fmt("(mean over %.0f calls)", static_cast<double>(t.ops));
}

/// Re-drives each layer's public functions with the recorded inputs.
/// Returns the mean sampling terminals per isolated ExecuteOne.
double IsolatedLayers(Report& rep, Rig& rig, const LiveLocalWorkload& w,
                      uint64_t seed, const Inputs& in, Tracer& phases,
                      SetupTimes* setups) {
  int64_t sink = 0;
  const ColrTree& tree = *rig.tree;

  // core/tree read side: arena traversal + SIMD overlap kernel.
  const Timed region = TimeLoop(phases, "isolated.tree.CountSensorsInRegion",
                                in.regions.size(), Order::kSpread, [&](size_t i) {
                                  sink += tree.CountSensorsInRegion(in.regions[i]);
                                  return 1;
                                });
  rep.Layer("tree.region_count_us", region.us_per_unit, "us", OpsDetail(region));

  // core/sampling: Algorithm 1 over the run's final cache state with a
  // stub probe function that answers every probe.
  {
    colr::Rng rng(StreamSeed(seed, kSamplerSeed));
    const TimeMs now = in.end_ms;
    const colr::LayeredSampler::ProbeFn stub =
        [&tree, now](const std::vector<SensorId>& ids) {
          std::vector<Reading> out;
          out.reserve(ids.size());
          for (SensorId id : ids) {
            out.push_back(Reading{id, now, now + tree.sensor(id).expiry_ms, 0.0});
          }
          return out;
        };
    const Timed t = TimeLoop(phases, "isolated.sampling.Run", in.regions.size(),
                             Order::kSpread, [&](size_t i) {
      colr::LayeredSampler::Options so;
      so.target = in.sample_sizes[i] > 0 ? in.sample_sizes[i]
                                         : kReferenceSampleSize;
      so.terminal_level = kClusterLevel;
      const colr::LayeredSampler::Result r = colr::LayeredSampler::Run(
          tree, colr::QueryRegion::FromRect(in.regions[i]), now, kStalenessMs,
          so, rng, stub);
      sink += static_cast<int64_t>(r.terminals.size());
      return 1;
    });
    rep.Layer("sampling.run_us", t.us_per_unit, "us", OpsDetail(t));
  }

  // core/probe_scheduler: the recorded batches against a no-op backend.
  {
    colr::SimClock clock(in.end_ms);
    colr::ProbeScheduler sched(
        [](const std::vector<SensorId>& ids) {
          colr::SensorNetwork::BatchResult r;
          r.attempted = ids.size();
          return r;
        },
        &clock, w.sensors.size(), colr::ProbeScheduler::Options());
    const Timed t = TimeLoop(phases, "isolated.sched.ProbeBatch",
                             in.batches.size(), Order::kInOrder, [&](size_t i) {
      sink += static_cast<int64_t>(sched.ProbeBatch(in.batches[i]).requested);
      return static_cast<int64_t>(in.batches[i].size());
    });
    rep.Layer("sched.batch_us_per_id", t.us_per_unit, "us", OpsDetail(t));
  }

  // sensor: the same batches through the production scheduler over a
  // fresh, instantaneous SensorNetwork.
  {
    colr::SimClock clock(in.end_ms);
    colr::SensorNetwork::Options nopts;
    nopts.seed = StreamSeed(seed, kNetworkSeed);
    colr::SensorNetwork network(w.sensors, &clock, nopts);
    network.set_value_fn(colr::MakeRestaurantWaitingTimeFn());
    colr::ProbeScheduler sched(&network, colr::ProbeScheduler::Options());
    const Timed t = TimeLoop(phases, "isolated.network.ProbeBatch",
                             in.batches.size(), Order::kInOrder, [&](size_t i) {
      sink += static_cast<int64_t>(sched.ProbeBatch(in.batches[i]).readings.size());
      return static_cast<int64_t>(in.batches[i].size());
    });
    rep.Layer("network.probe_us_per_id", t.us_per_unit, "us", OpsDetail(t));
  }

  // core/tree write side: the collected readings, in order, into a
  // fresh tree with the same options.
  {
    const int64_t t0 = NowNs();
    ColrTree fresh(w.sensors, TreeOptions(w.sensors));
    setups->build_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    const Timed t = TimeLoop(phases, "isolated.tree.InsertReading",
                             in.readings.size(), Order::kInOrder, [&](size_t i) {
      fresh.InsertReading(in.readings[i]);
      return 1;
    });
    rep.Layer("tree.insert_us", t.us_per_unit, "us", OpsDetail(t));
    const colr::Status st = fresh.CheckCacheConsistency();
    rep.Check(st.ok(), "isolated insert replay: CheckCacheConsistency: " +
                           st.ToString());
  }

  // portal: parse, plan, and single-threaded ExecuteOne on the traced rig.
  std::vector<colr::portal::ParsedQuery> parsed;
  parsed.reserve(in.texts.size());
  bool parse_ok = true;
  const Timed tparse = TimeLoop(phases, "isolated.portal.Parse", in.texts.size(),
                                Order::kSpread, [&](size_t i) {
    colr::Result<colr::portal::ParsedQuery> p = colr::portal::Parse(in.texts[i]);
    if (p.ok()) {
      parsed.push_back(std::move(*p));
    } else {
      parse_ok = false;
    }
    return 1;
  });
  rep.Check(parse_ok, "isolated portal::Parse rejected a generated query");
  rep.Layer("portal.parse_us", tparse.us_per_unit, "us", OpsDetail(tparse));
  bool plan_ok = true;
  const Timed tplan = TimeLoop(phases, "isolated.portal.PlanQuery", parsed.size(),
                               Order::kInOrder, [&](size_t i) {
    const colr::Result<colr::Query> q = rig.portal->PlanQuery(parsed[i], tree);
    plan_ok = plan_ok && q.ok();
    return 1;
  });
  rep.Check(plan_ok, "isolated PlanQuery failed on a generated query");
  rep.Layer("portal.plan_us", tplan.us_per_unit, "us", OpsDetail(tplan));

  if (rig.server != nullptr) rig.server->Stop();
  std::vector<colr::rel::Relation> relations;
  bool exec_ok = true;
  int64_t terminals = 0;
  const Timed texec = TimeLoop(phases, "isolated.portal.ExecuteOne",
                               in.texts.size(), Order::kSpread, [&](size_t i) {
    colr::ExecutionContext ctx(rig.engine->QuerySeed(1000000 + i));
    QueryStats stats;
    colr::Result<colr::rel::Relation> r =
        rig.portal->ExecuteOne(in.texts[i], ctx, &stats);
    terminals += static_cast<int64_t>(stats.terminals.size());
    if (r.ok()) {
      relations.push_back(std::move(*r));
    } else {
      exec_ok = false;
    }
    return 1;
  }, 2.0 * kIsolatedBudgetS);
  rep.Check(exec_ok, "isolated ExecuteOne failed on a generated query");
  rep.Layer("portal.execute_one_us", texec.us_per_unit, "us", OpsDetail(texec));

  // net: relation formatter and both frame codecs.
  std::vector<colr::net::QueryReply> replies = in.replies;
  std::vector<std::string> bodies;
  const Timed tjson = TimeLoop(phases, "isolated.wire.RelationToJson",
                               relations.size(), Order::kInOrder, [&](size_t i) {
    bodies.push_back(colr::net::RelationToJson(relations[i]));
    return 1;
  });
  rep.Layer("wire.relation_json_us", tjson.us_per_unit, "us", OpsDetail(tjson));
  if (replies.empty()) {
    for (size_t i = 0; i < bodies.size(); ++i) {
      colr::net::QueryReply r;
      r.request_id = i + 1;
      r.rows = static_cast<int64_t>(relations[i].rows.size());
      r.body_json = std::move(bodies[i]);
      replies.push_back(std::move(r));
    }
  }
  std::vector<std::string> qframes;
  const Timed teq = TimeLoop(phases, "isolated.wire.EncodeQueryFrame",
                             in.texts.size(), Order::kInOrder, [&](size_t i) {
    qframes.push_back(colr::net::EncodeQueryFrame({i + 1, in.texts[i]}));
    return 1;
  });
  bool codec_ok = true;
  const Timed tdq = TimeLoop(phases, "isolated.wire.DecodeQueryPayload",
                             qframes.size(), Order::kInOrder, [&](size_t i) {
    colr::net::QueryRequest req;
    const colr::Status st = colr::net::DecodeQueryPayload(
        std::string_view(qframes[i]).substr(colr::net::kFrameHeaderBytes), &req);
    codec_ok = codec_ok && st.ok() && req.text == in.texts[i];
    return 1;
  });
  std::vector<std::string> rframes;
  double reply_bytes = 0.0;
  const Timed ter = TimeLoop(phases, "isolated.wire.EncodeReplyFrame",
                             replies.size(), Order::kInOrder, [&](size_t i) {
    rframes.push_back(colr::net::EncodeReplyFrame(replies[i]));
    reply_bytes += static_cast<double>(rframes.back().size());
    return 1;
  });
  const Timed tdr = TimeLoop(phases, "isolated.wire.DecodeReplyPayload",
                             rframes.size(), Order::kInOrder, [&](size_t i) {
    colr::net::QueryReply r;
    const colr::Status st = colr::net::DecodeReplyPayload(
        std::string_view(rframes[i]).substr(colr::net::kFrameHeaderBytes), &r);
    codec_ok = codec_ok && st.ok() && r.body_json == replies[i].body_json &&
               r.rows == replies[i].rows;
    return 1;
  });
  rep.Check(codec_ok, "isolated wire codec round trip changed a frame");
  rep.Layer("wire.encode_query_us", teq.us_per_unit, "us", OpsDetail(teq));
  rep.Layer("wire.decode_query_us", tdq.us_per_unit, "us", OpsDetail(tdq));
  rep.Layer("wire.encode_reply_us", ter.us_per_unit, "us", OpsDetail(ter));
  rep.Layer("wire.decode_reply_us", tdr.us_per_unit, "us", OpsDetail(tdr));
  double rows = 0.0;
  for (const colr::net::QueryReply& r : replies) rows += static_cast<double>(r.rows);
  rep.Layer("portal.rows_per_query",
            replies.empty() ? kNaN : rows / static_cast<double>(replies.size()),
            "count", Fmt("(mean over %.0f replies)", static_cast<double>(replies.size())));
  rep.Layer("wire.reply_bytes_per_query",
            ter.ops > 0 ? reply_bytes / static_cast<double>(ter.ops) : kNaN,
            "bytes", Fmt("(mean over %.0f replies)", static_cast<double>(ter.ops)));
  // Printing the results the isolated loops computed keeps the calls
  // observable, so no optimizer may drop them.
  std::printf("isolated-replay checksum %lld\n", static_cast<long long>(sink));
  return texec.ops > 0 ? static_cast<double>(terminals) /
                             static_cast<double>(texec.ops)
                       : kNaN;
}

/// Lock-contention counters of the traced pass, one pair per site that
/// records acquisitions (SyncTimedLock / SyncTimedSharedLock sites).
void ReportSync(Report& rep, const colr::SyncStatsSnapshot& d, double queries) {
  for (int i = 0; i < colr::kNumSyncSites; ++i) {
    const colr::SyncSiteStats& s = d.sites[static_cast<size_t>(i)];
    const std::string site = colr::SyncSiteName(static_cast<colr::SyncSite>(i));
    const bool records = i <= static_cast<int>(colr::SyncSite::kProbeFlight);
    if (!records && s.acquisitions == 0) continue;
    rep.Layer("sync." + site + ".wait_ns_per_query",
              static_cast<double>(s.total_wait_ns) / queries, "ns",
              Fmt("(%.0f acquisitions)", static_cast<double>(s.acquisitions)));
    rep.Layer("sync." + site + ".contended_share",
              s.acquisitions > 0 ? static_cast<double>(s.contended) /
                                       static_cast<double>(s.acquisitions)
                                 : 0.0,
              "ratio", "(contended / acquisitions)");
  }
}

/// Per-layer counters read off the traced rig after its pass.
struct LayerCounters {
  QueryStats sum;
  int64_t queries = 0;
  int64_t inserts = 0;
  colr::ProbeScheduler::Stats sched;
  int64_t net_probes = 0;
  int64_t net_successes = 0;
  ColrTree::MaintenanceCounters maint;
};

void ReportCounters(Report& rep, const LayerCounters& c) {
  const double q = static_cast<double>(std::max<int64_t>(c.queries, 1));
  auto per = [q](int64_t v) { return static_cast<double>(v) / q; };
  const std::string dq = Fmt("(per query, %.0f queries)", q);
  rep.Layer("tree.nodes_per_query", per(c.sum.nodes_traversed), "count", dq);
  rep.Layer("tree.cached_nodes_per_query", per(c.sum.cached_nodes_accessed),
            "count", dq);
  rep.Layer("tree.slots_merged_per_query", per(c.sum.slots_merged), "count", dq);
  rep.Layer("tree.inserts_per_query", per(c.inserts), "count", dq);
  rep.Layer("tree.evictions_per_query", per(c.maint.readings_evicted), "count", dq);
  rep.Layer("tree.slot_recomputes_per_query", per(c.maint.slot_recomputes),
            "count", dq);
  rep.Layer("tree.rolls", static_cast<double>(c.maint.rolls.load()), "count");
  rep.Layer("tree.readings_expunged",
            static_cast<double>(c.maint.readings_expunged.load()), "count");
  rep.Layer("tree.late_readings_dropped",
            static_cast<double>(c.maint.late_readings_dropped.load()), "count");
  rep.Layer("sched.requested_per_query", per(c.sched.requested), "count", dq);
  rep.Layer("sched.coalesced_per_query", per(c.sched.coalesced), "count", dq);
  rep.Layer("network.success_ratio",
            c.net_probes > 0 ? static_cast<double>(c.net_successes) /
                                   static_cast<double>(c.net_probes)
                             : kNaN,
            "ratio", Fmt("(%.0f probes)", static_cast<double>(c.net_probes)));
}

LayerCounters ReadCounters(const Rig& rig, const QueryStats& sum,
                           int64_t queries, int64_t inserts) {
  LayerCounters c;
  c.sum = sum;
  c.queries = queries;
  c.inserts = inserts;
  c.sched = rig.engine->probe_scheduler().stats();
  c.net_probes = rig.network->counters().probes.load();
  c.net_successes = rig.network->counters().successes.load();
  c.maint = rig.tree->maintenance();
  return c;
}

std::string TracePath(const Args& args, const Spec& spec) {
  if (args.trace_dir.empty()) return "";
  return args.trace_dir + "/trace-" + spec.name + "-seed" +
         std::to_string(args.seed) + ".json";
}

void ReportSpans(const std::vector<const Tracer*>& tracers,
                 const std::string& path) {
  std::printf("spans (count, total ms, self ms):\n");
  for (const auto& [name, s] : SummarizeSpans(tracers)) {
    std::printf("  %-38s %9lld %12.3f %12.3f\n", name.c_str(),
                static_cast<long long>(s.count), s.total_ms, s.self_ms);
  }
  if (path.empty()) return;
  if (WriteChromeTrace(path, tracers, kTraceFileRequests)) {
    std::printf("trace written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write trace file %s\n", path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Workload drivers
// ---------------------------------------------------------------------------

void ReportSetup(Report& rep, const SetupTimes& st, bool e2e) {
  const std::string d =
      Fmt("(median of %.0f set-ups, min %.4f, max %.4f)",
          static_cast<double>(st.total_s.size()),
          *std::min_element(st.total_s.begin(), st.total_s.end()),
          *std::max_element(st.total_s.begin(), st.total_s.end()));
  if (e2e) {
    rep.E2E("setup_s", Median(st.total_s), "s", d);
  } else {
    rep.Layer("setup.workload_gen_s", Median(st.gen_s), "s", d);
    rep.Layer("setup.tree_build_s", Median(st.build_s), "s",
              Fmt("(median of %.0f builds)", static_cast<double>(st.build_s.size())));
  }
}

void RunReplay(const Spec& spec, const Args& args, Report& rep) {
  SetupTimes setups;
  const int64_t run_start = NowNs();
  // A traced run follows its untraced passes with as many traced ones,
  // so the tracing overhead compares two equal sets of passes.
  const double budget_ns = args.seconds * 1e9;
  Tracer off(false, 0);
  MemoryGauge gauge;

  // Untraced passes: each a fresh set-up plus the whole trace, repeated
  // while another pass fits in the run length (at least
  // kMinReplayPasses). Every pass replays the same inputs, so counts are
  // taken from the first and must repeat exactly, and `latency` keeps
  // each query's best time over the passes.
  std::vector<double> latency;
  ReplayOutcome first;
  int passes = 0;
  int64_t last_pass_ns = 0;
  do {
    const int64_t pass_start = NowNs();
    std::unique_ptr<LiveLocalWorkload> w;
    std::unique_ptr<Rig> rig = SetUp(spec, spec.queries, args.seed, &setups, &w);
    if (rig == nullptr) {
      rep.Check(false, "set-up failed");
      return;
    }
    ReplayOutcome p =
        ReplayPass(*rig, *w, spec, passes == 0, off, gauge, nullptr);
    CheckRig(rep, *rig, p.sum.sensors_probed, "pass " + std::to_string(passes));
    KeepBest(&latency, p.latency_ms);
    const double p50 = Median(p.latency_ms);
    std::printf("pass %d: set-up %.3f s, %zu queries, p50 %.6f ms (raw %.6f ms, "
                "gauge %.2f ns/load)\n",
                passes, setups.total_s.back(), p.latency_ms.size(), p50,
                p50 / p.scale, p.gauge_ns);
    rep.attempted += static_cast<int64_t>(p.latency_ms.size());
    if (passes == 0) {
      first = std::move(p);
    } else {
      rep.Check(p.sum.sensors_probed == first.sum.sensors_probed &&
                    p.sum.result_size == first.sum.result_size,
                "pass " + std::to_string(passes) +
                    " did not repeat the first pass's probes and answers");
    }
    ++passes;
    last_pass_ns = NowNs() - pass_start;
  } while (passes < kMinReplayPasses ||
           static_cast<double>(NowNs() - run_start + last_pass_ns) <= budget_ns);

  const double n = static_cast<double>(first.latency_ms.size());
  ReportLatency(rep, "query_", latency, true);
  rep.E2E("qps", 1000.0 / Mean(latency), "1/s",
          Fmt("(closed loop, best time of each of %.0f queries over %.0f passes)",
              static_cast<double>(latency.size()), passes));
  rep.E2E("probes_per_query", static_cast<double>(first.sum.sensors_probed) / n,
          "count", Fmt("(%.0f queries)", n));
  rep.E2E("collect_ms_per_query",
          static_cast<double>(first.sum.collection_latency_ms) / n, "sim_ms",
          Fmt("(%.0f queries)", n));
  rep.E2E("sample_shortfall", Mean(first.shortfall), "ratio",
          Fmt("(%.0f queries with sensors in region)",
              static_cast<double>(first.shortfall.size())));
  rep.E2E("peak_rss_mb", PeakRssMiB(), "MiB");

  if (!args.trace) {
    TopUpSetups(spec, spec.queries, args.seed, &setups);
    ReportSetup(rep, setups, true);
    return;
  }

  // Traced passes, as many as the untraced ones: spans at the
  // benchmark's calls and sync stats on. The last one records the
  // inputs for the isolated replays, and its counters are reported.
  colr::SyncStatsRegistry::Enable();
  Tracer tracer(true, 1);
  Tracer phases(true, 0);
  std::unique_ptr<LiveLocalWorkload> w;
  std::unique_ptr<Rig> rig;
  Inputs in;
  ReplayOutcome t;
  colr::SyncStatsSnapshot sync;
  std::vector<double> traced_latency;
  for (int p = 0; p < passes; ++p) {
    const bool last = p + 1 == passes;
    rig.reset();
    {
      ScopedSpan s(phases, "setup", -1);
      rig = SetUp(spec, spec.queries, args.seed, &setups, &w);
    }
    if (rig == nullptr) {
      rep.Check(false, "set-up failed");
      return;
    }
    const colr::SyncStatsSnapshot sync_before =
        colr::SyncStatsRegistry::Instance().Snapshot();
    {
      ScopedSpan s(phases, "traced_pass", -1);
      t = ReplayPass(*rig, *w, spec, true, tracer, gauge, last ? &in : nullptr);
    }
    sync = colr::SyncStatsDelta(colr::SyncStatsRegistry::Instance().Snapshot(),
                                sync_before);
    const std::string phase = "traced pass " + std::to_string(p);
    CheckRig(rep, *rig, t.sum.sensors_probed, phase);
    rep.Check(t.sum.sensors_probed == first.sum.sensors_probed,
              phase + " did not repeat the untraced passes' probes");
    rep.attempted += static_cast<int64_t>(t.latency_ms.size());
    KeepBest(&traced_latency, t.latency_ms);
  }

  ReportSetup(rep, setups, false);
  ReportCounters(rep,
                 ReadCounters(*rig, t.sum, static_cast<int64_t>(n), t.inserts));
  rep.Layer("sampling.terminals_per_query",
            static_cast<double>(t.terminals) / n, "count",
            Fmt("(per query, %.0f queries)", n));
  ReportSync(rep, sync, n);
  rep.Layer("server.shed", 0.0, "count", "(no server on this workload)");
  rep.Layer("server.timeouts", 0.0, "count", "(no server on this workload)");
  rep.Layer("server.bad_frames", 0.0, "count", "(no server on this workload)");
  rep.Layer("loadgen.lag_p99_ms", TailPercentile(t.gap_ms).value, "ms",
            "(closed loop: client time between calls)");

  for (const LiveLocalWorkload::QueryRecord& q : w->queries) {
    in.regions.push_back(q.region);
    in.sample_sizes.push_back(spec.sample_size);
    in.texts.push_back(QueryText(q.region, spec.sample_size, false));
  }
  in.end_ms = rig->clock.NowMs();
  IsolatedLayers(rep, *rig, *w, args.seed, in, phases, &setups);

  ReportLatency(rep, "traced.query_", traced_latency, false);
  rep.Layer("traced.qps", 1000.0 / Mean(traced_latency), "1/s",
            Fmt("(closed loop, best of %.0f passes)", passes));
  rep.Layer("trace.overhead_share",
            Median(traced_latency) / Median(latency) - 1.0, "ratio",
            Fmt("(traced p50 / untraced p50 - 1, %.0f passes each)", passes));
  rep.Layer("failed_frac", 0.0, "ratio");
  ReportSpans({&phases, &tracer},
              TracePath(args, spec));
}

/// The portal_wire query mix (the net_load texts), dealt by trace
/// index: a quarter exact, the rest SAMPLESIZE 40, one in sixteen of
/// those a SELECT *.
struct WireTexts {
  std::vector<std::string> texts;
  std::vector<int> sample_sizes;
  std::vector<bool> select_star;
};

WireTexts MakeWireTexts(const LiveLocalWorkload& w) {
  WireTexts t;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    const int sample = i % 4 == 0 ? 0 : kWireSampleSize;
    const bool star = i % 16 == 1;
    t.texts.push_back(QueryText(w.queries[i].region, sample, star));
    t.sample_sizes.push_back(sample);
    t.select_star.push_back(star);
  }
  return t;
}

struct WireMeasure {
  std::vector<double> latency_ms;
  double qps = 0.0;
  /// The rig and its workload, kept for the isolated replays when the
  /// run recorded inputs.
  std::unique_ptr<Rig> rig;
  std::unique_ptr<LiveLocalWorkload> workload;
};

/// One open-loop run on a fresh set-up: e2e metrics into `rep` when
/// `e2e`, invariants always.
WireMeasure WireRun(const Spec& spec, const Args& args, int arrivals,
                    SetupTimes* setups, Report& rep, bool e2e,
                    std::vector<std::unique_ptr<Tracer>>& tracers,
                    Inputs* rec) {
  std::unique_ptr<LiveLocalWorkload> w;
  std::unique_ptr<Rig> rig = SetUp(spec, arrivals, args.seed, setups, &w);
  WireMeasure m;
  if (rig == nullptr) {
    rep.Check(false, "portal_wire set-up failed");
    return m;
  }
  const WireTexts wt = MakeWireTexts(*w);
  const colr::SyncStatsSnapshot sync_before =
      colr::SyncStatsRegistry::Instance().Snapshot();
  const WireOutcome out =
      RunOpenLoop(*rig, *w, wt.texts, wt.select_star, args.seed, args.rate,
                  tracers, rec);
  const colr::SyncStatsSnapshot sync_after =
      colr::SyncStatsRegistry::Instance().Snapshot();

  int64_t replied = 0, ok = 0, probes = 0, coalesced = 0, reused = 0, shed = 0;
  std::vector<double> shortfall;
  bool bodies_ok = true;
  for (size_t i = 0; i < out.arrivals.size(); ++i) {
    const Arrival& a = out.arrivals[i];
    if (!a.replied) continue;
    ++replied;
    m.latency_ms.push_back(a.latency_ms);
    probes += a.probes;
    coalesced += a.coalesced;
    reused += a.reused;
    shed += a.shed;
    if (!a.ok) continue;
    ++ok;
    if (a.result_size < 0) {
      bodies_ok = false;
      continue;
    }
    const double s =
        Shortfall(a.result_size, wt.sample_sizes[i],
                  rig->tree->CountSensorsInRegion(w->queries[i].region));
    if (s >= 0.0) shortfall.push_back(s);
  }
  const int64_t n = static_cast<int64_t>(out.arrivals.size());
  rep.attempted += n;
  rep.failed += n - ok;
  m.qps = static_cast<double>(replied) / out.wall_s;

  const std::string phase = rec != nullptr ? "traced run" : "untraced run";
  rep.Check(replied == n && out.protocol_errors == 0,
            phase + ": " + std::to_string(replied) + "/" + std::to_string(n) +
                " arrivals answered, " + std::to_string(out.protocol_errors) +
                " protocol errors");
  rep.Check(bodies_ok, phase + ": a reply body was not a relation");
  const colr::net::PortalServer::Counters& sc = rig->server->counters();
  rep.Check(sc.queries_ok + sc.query_errors + sc.shed + sc.timeouts == n,
            phase + ": server dispositions do not add up to the arrivals");
  const QueryStats cum = rig->engine->cumulative();
  rep.Check(cum.probes_coalesced == coalesced && cum.probes_reused == reused &&
                cum.probes_shed == shed,
            phase + ": coalesced/reused/shed summed over replies differ from "
                    "the engine's cumulative counters");
  CheckRig(rep, *rig, probes, phase);

  if (e2e) {
    ReportLatency(rep, "query_", m.latency_ms, true);
    rep.E2E("qps", m.qps, "1/s",
            Fmt("(open loop, offered %.0f/s, %.0f arrivals)", args.rate,
                static_cast<double>(n)));
    rep.E2E("probes_per_query",
            static_cast<double>(probes) / static_cast<double>(replied), "count",
            Fmt("(%.0f replies)", static_cast<double>(replied)));
    rep.E2E("collect_ms_per_query",
            static_cast<double>(cum.collection_latency_ms) /
                static_cast<double>(std::max<int64_t>(ok, 1)),
            "sim_ms", Fmt("(%.0f answered queries)", static_cast<double>(ok)));
    rep.E2E("sample_shortfall", Mean(shortfall), "ratio",
            Fmt("(%.0f answers with sensors in region)",
                static_cast<double>(shortfall.size())));
  }
  if (rec != nullptr) {
    ReportCounters(rep, ReadCounters(*rig, cum, n, cum.probe_successes));
    ReportSync(rep, colr::SyncStatsDelta(sync_after, sync_before),
               static_cast<double>(n));
    rep.Layer("server.shed", static_cast<double>(sc.shed.load()), "count");
    rep.Layer("server.timeouts", static_cast<double>(sc.timeouts.load()), "count");
    rep.Layer("server.bad_frames", static_cast<double>(sc.bad_frames.load()),
              "count");
    rep.Layer("loadgen.lag_p99_ms", TailPercentile(out.lag_ms).value, "ms",
              Fmt("(dispatcher lateness, n=%.0f)",
                  static_cast<double>(out.lag_ms.size())));
    rep.Layer("failed_frac",
              static_cast<double>(n - ok) / static_cast<double>(n), "ratio");
    for (size_t i = 0; i < w->queries.size(); ++i) {
      rec->regions.push_back(w->queries[i].region);
      rec->sample_sizes.push_back(wt.sample_sizes[i]);
    }
    rec->texts = wt.texts;
    rec->end_ms = rig->clock.NowMs();
    m.rig = std::move(rig);
    m.workload = std::move(w);
  }
  return m;
}

std::vector<std::unique_ptr<Tracer>> MakeTracers(bool enabled) {
  std::vector<std::unique_ptr<Tracer>> t;
  for (int i = 0; i <= kWireConnections; ++i) {
    t.push_back(std::make_unique<Tracer>(enabled, i + 1));
  }
  return t;
}

void RunWire(const Spec& spec, const Args& args, Report& rep) {
  SetupTimes setups;
  // A traced run splits its length between the untraced and the traced
  // open loop, so both see the same number of arrivals.
  const double seconds = args.trace ? args.seconds / 2.0 : args.seconds;
  const int arrivals = std::max(200, static_cast<int>(args.rate * seconds));
  std::vector<std::unique_ptr<Tracer>> off = MakeTracers(false);
  const WireMeasure untraced = WireRun(spec, args, arrivals, &setups, rep, true,
                                       off, nullptr);
  rep.E2E("peak_rss_mb", PeakRssMiB(), "MiB");
  if (!args.trace) {
    TopUpSetups(spec, arrivals, args.seed, &setups);
    ReportSetup(rep, setups, true);
    return;
  }

  colr::SyncStatsRegistry::Enable();
  std::vector<std::unique_ptr<Tracer>> tracers = MakeTracers(true);
  Tracer phases(true, 0);
  Inputs in;
  WireMeasure traced;
  {
    ScopedSpan s(phases, "traced_run", -1);
    traced = WireRun(spec, args, arrivals, &setups, rep, false, tracers, &in);
  }
  if (traced.rig == nullptr) return;
  Rig& rig = *traced.rig;
  const LiveLocalWorkload& w = *traced.workload;
  {
    // The wire client never sees the collected readings, so the insert
    // and probe replays take theirs from the recorded queries re-run
    // through ColrEngine::Execute on an instantaneous stack.
    ScopedSpan s(phases, "record_readings", -1);
    Spec instant = spec;
    instant.latency_scale = 0.0;
    instant.wire = false;
    const std::unique_ptr<Rig> replay = BuildRig(w, instant, args.seed, &setups);
    for (size_t i = 0; i < w.queries.size(); ++i) {
      replay->clock.SetMs(w.queries[i].at);
      in.RecordCollected(
          replay->engine->Execute(MakeQuery(in.regions[i], in.sample_sizes[i]))
              .collected);
    }
  }
  ReportSetup(rep, setups, false);
  const double terminals =
      IsolatedLayers(rep, rig, w, args.seed, in, phases, &setups);
  rep.Layer("sampling.terminals_per_query", terminals, "count",
            "(isolated ExecuteOne)");
  ReportLatency(rep, "traced.query_", traced.latency_ms, false);
  rep.Layer("traced.qps", traced.qps, "1/s");
  rep.Layer("trace.overhead_share",
            Median(traced.latency_ms) / Median(untraced.latency_ms) - 1.0,
            "ratio", "(traced p50 / untraced p50 - 1)");
  std::vector<const Tracer*> all = {&phases};
  for (const auto& t : tracers) all.push_back(t.get());
  ReportSpans(all, TracePath(args, spec));
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--trace-dir") {
      a->trace_dir = v;
    } else if (k == "--rate") {
      a->rate = std::atof(v.c_str());
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0.0 && a->rate > 0.0;
}

/// Refuses builds whose timings would mislead: no optimisation, or a
/// sanitizer compiled in.
bool BuildIsMeasurable() {
  bool ok = true;
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr, "refusing to measure: unoptimised build\n");
  ok = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::fprintf(stderr, "refusing to measure: sanitizer build\n");
  ok = false;
#endif
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    std::fprintf(stderr, "refusing to measure: sanitizer flags '%s'\n",
                 PERFBENCH_CXX_FLAGS);
    ok = false;
  }
  return ok;
}

int Main(int argc, char** argv) {
  Args args;
  Spec spec;
  if (!ParseArgs(argc, argv, &args) || !LookupSpec(args.workload, &spec)) {
    std::fprintf(stderr,
                 "usage: %s --workload colr_replay|hier_replay|portal_wire "
                 "--seed N --seconds S --trace 0|1 [--trace-dir DIR] "
                 "[--rate R]\n",
                 argv[0]);
    return 2;
  }
  if (!BuildIsMeasurable()) return 3;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  Report rep;
  rep.Info("nproc", std::to_string(std::thread::hardware_concurrency()));
  rep.Info("compiler", PERFBENCH_COMPILER);
  rep.Info("build_type", PERFBENCH_BUILD_TYPE);
  rep.Info("cxx_flags", PERFBENCH_CXX_FLAGS);
  if (spec.wire) {
    RunWire(spec, args, rep);
  } else {
    RunReplay(spec, args, rep);
  }
  rep.Print();
  std::printf("%s\n", rep.Json().c_str());
  std::fflush(stdout);
  return rep.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
