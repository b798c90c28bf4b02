#ifndef COLR_BENCH_BENCH_COMMON_H_
#define COLR_BENCH_BENCH_COMMON_H_

// Shared scaffolding for the figure-reproduction harnesses. Each
// harness builds a Live-Local-like workload (DESIGN.md §1), replays it
// through one or more engine configurations, and prints the series the
// corresponding paper figure reports. Default scale runs in seconds;
// pass --full for paper-scale (370k sensors / 106k queries).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/stats.h"
#include "common/sync_stats.h"
#include "core/engine.h"
#include "core/query.h"
#include "core/tree.h"
#include "sensor/network.h"
#include "workload/live_local.h"

namespace colr::bench {

struct BenchConfig {
  int sensors = 30000;
  int queries = 2500;
  int cities = 120;
  uint64_t seed = 20080407;  // ICDE'08
  bool full = false;
  /// When non-empty, harnesses also write their series to this path as
  /// JSON (machine-readable companion to the printed tables).
  std::string json_path;

  static BenchConfig FromArgs(int argc, char** argv) {
    BenchConfig cfg;
    // --full is a set of defaults, not an override: apply it first
    // regardless of its position so `--sensors=1000 --full` and
    // `--full --sensors=1000` agree (explicit flags always win).
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--full") == 0) {
        cfg.full = true;
        cfg.sensors = 370000;
        cfg.queries = 106000;
        cfg.cities = 250;
      }
    }
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&arg](const char* prefix) -> const char* {
        const size_t len = std::strlen(prefix);
        return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len
                                                : nullptr;
      };
      // One declaration for the whole chain: a fresh `const char* v`
      // per else-if stays in scope for the rest of the chain and
      // shadows the previous one (-Wshadow).
      const char* v = nullptr;
      if (arg == "--full") {
        // Handled in the defaults pass above.
      } else if ((v = value("--sensors=")) != nullptr) {
        cfg.sensors = std::atoi(v);
      } else if ((v = value("--queries=")) != nullptr) {
        cfg.queries = std::atoi(v);
      } else if ((v = value("--cities=")) != nullptr) {
        cfg.cities = std::atoi(v);
      } else if ((v = value("--seed=")) != nullptr) {
        cfg.seed = std::strtoull(v, nullptr, 10);
      } else if ((v = value("--json=")) != nullptr) {
        cfg.json_path = v;
      } else if (arg == "--json" && i + 1 < argc) {
        cfg.json_path = argv[++i];
      } else if (arg == "--help" || arg == "-h") {
        std::printf(
            "usage: %s [--full] [--sensors=N] [--queries=N] [--cities=N] "
            "[--seed=S] [--json PATH]\n",
            argv[0]);
        std::exit(0);
      }
    }
    return cfg;
  }

  LiveLocalOptions WorkloadOptions() const {
    LiveLocalOptions opts;
    opts.num_sensors = sensors;
    opts.num_queries = queries;
    opts.num_cities = cities;
    opts.seed = seed;
    return opts;
  }
};

/// One engine configuration wired to a fresh tree + network + clock so
/// runs are independent.
class Testbed {
 public:
  Testbed(const LiveLocalWorkload& workload, ColrEngine::Mode mode,
          size_t cache_capacity, TimeMs slot_delta_ms = 0,
          bool fill_region_count = false)
      : workload_(workload) {
    network_ = std::make_unique<SensorNetwork>(workload.sensors, &clock_);
    network_->set_value_fn(MakeRestaurantWaitingTimeFn());
    ColrTree::Options topts;
    topts.cache_capacity = cache_capacity;
    topts.slot_delta_ms = slot_delta_ms;
    tree_ = std::make_unique<ColrTree>(workload.sensors, topts);
    ColrEngine::Options eopts;
    eopts.mode = mode;
    eopts.fill_region_count = fill_region_count;
    engine_ = std::make_unique<ColrEngine>(tree_.get(), network_.get(),
                                           eopts);
  }

  /// Replays the workload's query trace. `visit`, when set, sees every
  /// (query record, result).
  using VisitFn = std::function<void(
      const LiveLocalWorkload::QueryRecord&, const QueryResult&)>;
  void Replay(TimeMs staleness_ms, int sample_size, int cluster_level,
              const VisitFn& visit = nullptr, int max_queries = -1) {
    int n = 0;
    for (const auto& rec : workload_.queries) {
      if (max_queries >= 0 && n >= max_queries) break;
      ++n;
      clock_.SetMs(rec.at);
      Query q;
      q.region = QueryRegion::FromRect(rec.region);
      q.staleness_ms = staleness_ms;
      q.sample_size = sample_size;
      q.cluster_level = cluster_level;
      QueryResult result = engine_->Execute(q);
      if (visit) visit(rec, result);
    }
  }

  ColrEngine& engine() { return *engine_; }
  ColrTree& tree() { return *tree_; }
  SensorNetwork& network() { return *network_; }
  SimClock& clock() { return clock_; }

 private:
  const LiveLocalWorkload& workload_;
  SimClock clock_;
  std::unique_ptr<SensorNetwork> network_;
  std::unique_ptr<ColrTree> tree_;
  std::unique_ptr<ColrEngine> engine_;
};

/// Builds one JSON object incrementally: Field() for each key, then
/// Done() for the serialized `{...}`. Keys are emitted verbatim (the
/// harnesses use plain identifiers); string values get full RFC 8259
/// escaping and non-finite doubles become `null` (JSON has no
/// nan/inf), so every emitted object is valid JSON.
class JsonObject {
 public:
  JsonObject& Field(const char* key, double v) {
    if (!std::isfinite(v)) return Raw(key, "null");
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(key, buf);
  }
  JsonObject& Field(const char* key, int64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(v));
    return Raw(key, buf);
  }
  JsonObject& Field(const char* key, int v) {
    return Field(key, static_cast<int64_t>(v));
  }
  JsonObject& Field(const char* key, const char* v) {
    std::string escaped = "\"";
    for (const char* p = v; *p != '\0'; ++p) {
      const unsigned char c = static_cast<unsigned char>(*p);
      switch (c) {
        case '"': escaped += "\\\""; break;
        case '\\': escaped += "\\\\"; break;
        case '\n': escaped += "\\n"; break;
        case '\t': escaped += "\\t"; break;
        case '\r': escaped += "\\r"; break;
        default:
          if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            escaped += buf;
          } else {
            escaped += static_cast<char>(c);
          }
      }
    }
    escaped += '"';
    return Raw(key, escaped.c_str());
  }
  /// Embeds an already-serialized JSON value (object or array) under
  /// `key` verbatim. The caller is responsible for its validity —
  /// pass only output of JsonObject::Done() or the emitters below.
  JsonObject& Nested(const char* key, const std::string& raw_json) {
    return Raw(key, raw_json.c_str());
  }
  std::string Done() const { return first_ ? "{}" : body_ + "}"; }

 private:
  JsonObject& Raw(const char* key, const char* v) {
    body_ += first_ ? "{" : ", ";
    first_ = false;
    body_ += std::string("\"") + key + "\": " + v;
    return *this;
  }
  std::string body_;
  bool first_ = true;
};

/// Per-site lock-contention block for a `--json` row: "" when the
/// snapshot was taken with stats disabled (callers then omit the
/// field entirely), otherwise `{"hottest_site": ..., "total_wait_ns":
/// ..., "sites": [{site, acquisitions, contended, total_wait_ns,
/// max_wait_ns, contention_share, wait_hist[32]}, ...]}`. Each site's
/// wait_hist buckets sum to its acquisition count (bucket 0 holds the
/// uncontended acquisitions; bucket b >= 1 the waits in [2^(b-1),
/// 2^b) ns) — tests/bench_json_test pins that invariant.
inline std::string SyncStatsJsonBlock(const SyncStatsSnapshot& snap) {
  if (!snap.enabled) return "";
  std::string sites = "[";
  for (int i = 0; i < kNumSyncSites; ++i) {
    const SyncSite site = static_cast<SyncSite>(i);
    const SyncSiteStats& s = snap.sites[i];
    std::string hist = "[";
    for (int h = 0; h < kSyncWaitBuckets; ++h) {
      if (h > 0) hist += ", ";
      hist += std::to_string(s.wait_hist[h]);
    }
    hist += "]";
    JsonObject row;
    row.Field("site", SyncSiteName(site))
        .Field("acquisitions", s.acquisitions)
        .Field("contended", s.contended)
        .Field("total_wait_ns", s.total_wait_ns)
        .Field("max_wait_ns", s.max_wait_ns)
        .Field("contention_share", snap.ContentionShare(site))
        .Nested("wait_hist", hist);
    if (i > 0) sites += ", ";
    sites += row.Done();
  }
  sites += "]";
  const int hot = snap.HottestSite();
  JsonObject block;
  block
      .Field("hottest_site",
             hot >= 0 ? SyncSiteName(static_cast<SyncSite>(hot)) : "none")
      .Field("total_wait_ns", snap.TotalWaitNs())
      .Nested("sites", sites);
  return block.Done();
}

/// Human-readable one-line contention summary for bench stdout: names
/// the hottest site and each acquired site's share of the total wait.
inline std::string SyncStatsSummaryLine(const SyncStatsSnapshot& snap) {
  if (!snap.enabled) {
    return "contention: sync stats disabled (COLR_SYNC_STATS=1 to enable)";
  }
  const int hot = snap.HottestSite();
  if (hot < 0) return "contention: no lock acquisitions recorded";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "contention: hottest site %s (%.1f%% of %.3f ms total wait)",
                SyncSiteName(static_cast<SyncSite>(hot)),
                100.0 * snap.ContentionShare(static_cast<SyncSite>(hot)),
                static_cast<double>(snap.TotalWaitNs()) / 1e6);
  std::string out = buf;
  for (int i = 0; i < kNumSyncSites; ++i) {
    const SyncSite site = static_cast<SyncSite>(i);
    const SyncSiteStats& s = snap.sites[i];
    if (s.acquisitions == 0) continue;
    std::snprintf(buf, sizeof(buf), "; %s %lld/%lld contended (%.1f%%)",
                  SyncSiteName(site), static_cast<long long>(s.contended),
                  static_cast<long long>(s.acquisitions),
                  100.0 * snap.ContentionShare(site));
    out += buf;
  }
  return out;
}

/// One row of the writer-scaling sweep (bench/concurrent_portal
/// --writer-scaling): InsertReading throughput at a collector-thread
/// count and writer shard level (0 = serialized baseline). `sync_json`
/// is the SyncStatsJsonBlock for the run; empty (stats disabled) omits
/// the "sync" field entirely. Shared with tests/bench_json_test so the
/// emitted shape stays valid JSON.
inline std::string WriterScalingJsonRow(
    int collector_threads, bool serialized, int shard_level, int64_t inserts,
    double wall_ms, double inserts_per_sec, int64_t rolls,
    int64_t late_dropped, int64_t evicted, int64_t recomputes,
    bool consistent, const std::string& sync_json = std::string()) {
  JsonObject row;
  row.Field("collector_threads", collector_threads)
      .Field("writer_mode", serialized ? "serialized" : "sharded")
      .Field("writer_shard_level", shard_level)
      .Field("inserts", inserts)
      .Field("wall_ms", wall_ms)
      .Field("inserts_per_sec", inserts_per_sec)
      .Field("rolls", rolls)
      .Field("late_readings_dropped", late_dropped)
      .Field("readings_evicted", evicted)
      .Field("slot_recomputes", recomputes)
      .Field("consistent", consistent ? 1 : 0);
  if (!sync_json.empty()) row.Nested("sync", sync_json);
  return row.Done();
}

/// One row of the flash-crowd sweep (bench/concurrent_portal
/// --flash-crowd): the crowd trace replayed at a client-stream count
/// against a moving replay clock. probes_per_query is the headline —
/// cross-query single-flight must pull it *down* as streams rise
/// (more concurrent queries join each in-flight probe instead of
/// re-issuing it). Shared with tests/bench_json_test so the emitted
/// shape stays valid JSON.
inline std::string FlashCrowdJsonRow(int streams, int64_t queries,
                                     double wall_ms, double qps,
                                     int64_t errors, int64_t probes,
                                     double probes_per_query,
                                     int64_t coalesced, int64_t reused,
                                     int64_t shed) {
  JsonObject row;
  row.Field("streams", streams)
      .Field("queries", queries)
      .Field("wall_ms", wall_ms)
      .Field("qps", qps)
      .Field("errors", errors)
      .Field("probes", probes)
      .Field("probes_per_query", probes_per_query)
      .Field("probes_coalesced", coalesced)
      .Field("probes_reused", reused)
      .Field("probes_shed", shed);
  return row.Done();
}

/// One row of the open-loop serving sweep (bench/net_load): a fixed
/// seeded Poisson arrival schedule offered to the wire-protocol portal
/// server at a client-connection count. Latency is measured from each
/// request's *scheduled* arrival instant (open-loop: client-side
/// queueing counts), so when offered load crosses capacity p99
/// explodes instead of being hidden by a slowing client — the
/// closed-loop blind spot EXPERIMENTS.md's recipe demonstrates.
/// Shared with tests/bench_json_test so the emitted shape stays valid
/// JSON.
inline std::string NetLoadJsonRow(int connections, const char* transport,
                                  int64_t queries, double offered_qps,
                                  double qps, double p50_ms, double p99_ms,
                                  int64_t ok, int64_t shed, int64_t timeouts,
                                  int64_t query_errors,
                                  int64_t protocol_errors,
                                  int64_t reconnects) {
  JsonObject row;
  row.Field("connections", connections)
      .Field("transport", transport)
      .Field("queries", queries)
      .Field("offered_qps", offered_qps)
      .Field("qps", qps)
      .Field("p50_ms", p50_ms)
      .Field("p99_ms", p99_ms)
      .Field("ok", ok)
      .Field("shed", shed)
      .Field("timeouts", timeouts)
      .Field("query_errors", query_errors)
      .Field("protocol_errors", protocol_errors)
      .Field("reconnects", reconnects);
  return row.Done();
}

/// Writes a bench report as `{"bench": ..., "config": {...},
/// "series": [rows...]}` to cfg.json_path. No-op when --json was not
/// given. Each row is a serialized JsonObject.
inline void WriteJsonReport(const BenchConfig& cfg, const char* bench,
                            const std::vector<std::string>& rows) {
  if (cfg.json_path.empty()) return;
  std::FILE* f = std::fopen(cfg.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", cfg.json_path.c_str());
    return;
  }
  JsonObject config;
  config.Field("sensors", cfg.sensors)
      .Field("queries", cfg.queries)
      .Field("cities", cfg.cities)
      .Field("seed", static_cast<int64_t>(cfg.seed));
  std::fprintf(f, "{\"bench\": \"%s\", \"config\": %s, \"series\": [",
               bench, config.Done().c_str());
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "%s%s", i == 0 ? "" : ", ", rows[i].c_str());
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("json report written to %s\n", cfg.json_path.c_str());
}

inline void PrintHeader(const char* figure, const char* description,
                        const BenchConfig& cfg) {
  std::printf("=== %s: %s ===\n", figure, description);
  std::printf("workload: %d sensors, %d queries (seed %llu)%s\n\n",
              cfg.sensors, cfg.queries,
              static_cast<unsigned long long>(cfg.seed),
              cfg.full ? " [paper scale]" : "");
}

}  // namespace colr::bench

#endif  // COLR_BENCH_BENCH_COMMON_H_
