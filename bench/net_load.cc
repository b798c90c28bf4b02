// Open-loop load driver for the wire-protocol portal server
// (src/net/): a deterministic seeded Poisson arrival schedule is
// offered to the server over C client connections, and per-request
// latency is measured from the *scheduled* arrival instant — not from
// when a connection got around to sending. That is the open-loop
// discipline (Schroeder et al., "Open Versus Closed"): a closed-loop
// driver (bench/concurrent_portal) slows down with the server and so
// never shows the queueing collapse that real portal traffic — users
// arriving independently of each other — inflicts past saturation.
//
// The sweep runs the same schedule shape at 1/4/16/64 connections and
// reports qps, p50/p99 latency, and the server's shed/timeout counts
// under connection churn (workers tear down and redial every
// --churn-every requests). --transport=tcp (default) serves over real
// loopback sockets; --transport=inproc runs bit-identical protocol
// code over the deterministic in-process transport — that mode is the
// ctest/check.sh smoke, and the process exits nonzero on any protocol
// error or lost reply so CI can gate on it.
//
// Offered load: --rate=R sets the total arrival rate; the default
// (300/s, just under the 4-worker server's ~370 qps capacity on the
// default workload) keeps the offer fixed across cells so the sweep
// isolates the connection count: one serial connection collapses
// under a load that 16 connections absorb with flat latency. Push R
// past capacity to reproduce open-loop collapse at any connection
// count (EXPERIMENTS.md recipe).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "net/client.h"
#include "net/server.h"
#include "net/transport.h"
#include "portal/portal.h"

namespace colr::bench {
namespace {

constexpr int kSampleSize = 40;
constexpr int kServerPoolThreads = 4;

struct NetLoadConfig {
  BenchConfig base;
  std::string transport = "tcp";
  std::vector<int> connections = {1, 4, 16, 64};
  /// Total offered arrival rate (arrivals/sec); 0 = 300, fixed across
  /// cells so the connection count is the only axis.
  double rate = 0.0;
  /// Tear down and redial each worker's connection every N completed
  /// requests (connection churn); 0 disables.
  int churn_every = 100;
  int max_inflight = 128;
  TimeMs timeout_ms = 2000;
  /// Cap each cell's schedule so a cell lasts ~this many seconds at
  /// the offered rate (0 = no cap, run all base.queries arrivals).
  double cell_seconds = 4.0;
};

NetLoadConfig ParseArgs(int argc, char** argv) {
  NetLoadConfig cfg;
  cfg.base = BenchConfig::FromArgs(argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> const char* {
      const size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    const char* v = nullptr;
    if ((v = value("--transport=")) != nullptr) {
      cfg.transport = v;
    } else if ((v = value("--connections=")) != nullptr) {
      cfg.connections.clear();
      for (const char* p = v; *p != '\0';) {
        cfg.connections.push_back(std::atoi(p));
        while (*p != '\0' && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    } else if ((v = value("--rate=")) != nullptr) {
      cfg.rate = std::atof(v);
    } else if ((v = value("--churn-every=")) != nullptr) {
      cfg.churn_every = std::atoi(v);
    } else if ((v = value("--max-inflight=")) != nullptr) {
      cfg.max_inflight = std::atoi(v);
    } else if ((v = value("--timeout-ms=")) != nullptr) {
      cfg.timeout_ms = std::atoi(v);
    } else if ((v = value("--cell-seconds=")) != nullptr) {
      cfg.cell_seconds = std::atof(v);
    }
  }
  if (cfg.transport != "tcp" && cfg.transport != "inproc") {
    std::fprintf(stderr, "unknown --transport=%s (tcp|inproc)\n",
                 cfg.transport.c_str());
    std::exit(2);
  }
  return cfg;
}

std::vector<std::string> BuildQueryTexts(const LiveLocalWorkload& workload) {
  std::vector<std::string> texts;
  texts.reserve(workload.queries.size());
  char buf[256];
  size_t i = 0;
  for (const auto& rec : workload.queries) {
    const int sample = (i++ % 4 == 0) ? 0 : kSampleSize;
    std::snprintf(buf, sizeof(buf),
                  "SELECT count(*) FROM sensor S "
                  "WHERE S.location WITHIN RECT(%.6f, %.6f, %.6f, %.6f) "
                  "AND S.time BETWEEN now()-5 AND now() mins "
                  "CLUSTER LEVEL 2 SAMPLESIZE %d",
                  rec.region.min_x, rec.region.min_y, rec.region.max_x,
                  rec.region.max_y, sample);
    texts.push_back(buf);
  }
  return texts;
}

/// The open-loop handoff: the dispatcher pushes work at schedule time
/// regardless of whether any connection is free — the depth of this
/// queue *is* the overload signal, and the time spent in it counts
/// toward latency because scheduled_ms is stamped by the schedule,
/// not by the pop.
struct WorkItem {
  int text_index = 0;
  double scheduled_ms = 0.0;
};

class OpenQueue {
 public:
  void Push(WorkItem item) {
    {
      MutexLock lock(mu_);
      items_.push_back(item);
    }
    cv_.notify_one();
  }

  void CloseQueue() {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool Pop(WorkItem* out) {
    MutexLock lock(mu_);
    while (items_.empty() && !closed_) cv_.wait(mu_);
    if (items_.empty()) return false;
    *out = items_.front();
    items_.pop_front();
    return true;
  }

 private:
  Mutex mu_;
  std::condition_variable_any cv_;
  std::deque<WorkItem> items_ COLR_GUARDED_BY(mu_);
  bool closed_ COLR_GUARDED_BY(mu_) = false;
};

struct CellOutcome {
  int64_t replies = 0;
  int64_t ok = 0;
  int64_t shed = 0;
  int64_t timeouts = 0;
  int64_t query_errors = 0;
  int64_t protocol_errors = 0;
  int64_t reconnects = 0;
  double wall_ms = 0.0;
  std::vector<double> latencies_ms;
};

/// Engine + portal + server stack for one sweep cell (fresh per cell
/// so cells are independent).
class ServerRig {
 public:
  ServerRig(const LiveLocalWorkload& workload, const NetLoadConfig& cfg)
      : workload_(workload), pool_(kServerPoolThreads) {
    SensorNetwork::Options nopts;
    // 1000 simulated ms of collection latency = 1 real ms: probe
    // batches cost ~0.4 ms of real time, so the served queries are
    // I/O-bound the way live portal queries are.
    nopts.simulated_latency_scale = 1e-3;
    network_ = std::make_unique<SensorNetwork>(workload.sensors, &clock_,
                                               nopts);
    network_->set_value_fn(MakeRestaurantWaitingTimeFn());

    ColrTree::Options topts;
    topts.cache_capacity = workload.sensors.size() / 4;
    tree_ = std::make_unique<ColrTree>(workload.sensors, topts);

    ColrEngine::Options eopts;
    eopts.mode = ColrEngine::Mode::kColr;
    engine_ = std::make_unique<ColrEngine>(tree_.get(), network_.get(),
                                           eopts);
    portal_ = std::make_unique<portal::SensorPortal>(tree_.get(),
                                                     engine_.get());

    // Freeze the sim clock at the end of the trace: every request
    // queries the same fully-advanced window, so cells differ only in
    // arrival pattern and connection count.
    TimeMs end = 0;
    for (const auto& rec : workload.queries) end = std::max(end, rec.at);
    clock_.SetMs(end);

    net::PortalServer::Options sopts;
    sopts.max_inflight = cfg.max_inflight;
    sopts.request_timeout_ms = cfg.timeout_ms;
    server_ = std::make_unique<net::PortalServer>(portal_.get(), &pool_,
                                                  sopts);
  }

  net::PortalServer& server() { return *server_; }

 private:
  const LiveLocalWorkload& workload_;
  SimClock clock_;
  ThreadPool pool_;
  std::unique_ptr<SensorNetwork> network_;
  std::unique_ptr<ColrTree> tree_;
  std::unique_ptr<ColrEngine> engine_;
  std::unique_ptr<portal::SensorPortal> portal_;
  std::unique_ptr<net::PortalServer> server_;
};

using DialFn =
    std::function<Result<std::unique_ptr<net::Connection>>()>;

CellOutcome RunCell(const NetLoadConfig& cfg,
                    const std::vector<std::string>& texts, int connections,
                    double offered_qps, int num_queries, const DialFn& dial) {
  // Deterministic Poisson schedule: cumulative Exponential(rate)
  // inter-arrivals from a seed derived off the workload seed and the
  // cell's connection count, so reruns offer the identical byte
  // stream.
  Rng rng(DeriveSeed(cfg.base.seed, static_cast<uint64_t>(connections)));
  std::vector<WorkItem> schedule;
  schedule.reserve(static_cast<size_t>(num_queries));
  double at_ms = 0.0;
  for (int i = 0; i < num_queries; ++i) {
    at_ms += rng.Exponential(offered_qps) * 1000.0;
    schedule.push_back(
        {static_cast<int>(rng.UniformInt(texts.size())), at_ms});
  }

  OpenQueue queue;
  CellOutcome out;
  Mutex out_mu;

  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(connections));
  Stopwatch wall;
  for (int w = 0; w < connections; ++w) {
    workers.emplace_back([&, w] {
      (void)w;
      CellOutcome local;
      std::unique_ptr<net::PortalClient> client;
      int since_redial = 0;
      WorkItem item;
      while (queue.Pop(&item)) {
        if (client == nullptr) {
          auto conn = dial();
          if (!conn.ok()) {
            ++local.protocol_errors;
            continue;
          }
          client = std::make_unique<net::PortalClient>(std::move(*conn));
        }
        auto reply = client->Query(texts[static_cast<size_t>(
            item.text_index)]);
        if (!reply.ok()) {
          ++local.protocol_errors;
          client.reset();  // broken stream: redial before the next item
          ++local.reconnects;
          continue;
        }
        ++local.replies;
        local.latencies_ms.push_back(wall.ElapsedMillis() -
                                     item.scheduled_ms);
        switch (reply->status) {
          case net::WireStatus::kOk: ++local.ok; break;
          case net::WireStatus::kShed: ++local.shed; break;
          case net::WireStatus::kTimeout: ++local.timeouts; break;
          default: ++local.query_errors; break;
        }
        if (cfg.churn_every > 0 && ++since_redial >= cfg.churn_every) {
          client->Close();
          client.reset();
          ++local.reconnects;
          since_redial = 0;
        }
      }
      MutexLock lock(out_mu);
      out.replies += local.replies;
      out.ok += local.ok;
      out.shed += local.shed;
      out.timeouts += local.timeouts;
      out.query_errors += local.query_errors;
      out.protocol_errors += local.protocol_errors;
      out.reconnects += local.reconnects;
      out.latencies_ms.insert(out.latencies_ms.end(),
                              local.latencies_ms.begin(),
                              local.latencies_ms.end());
    });
  }

  // The dispatcher: releases each arrival at its scheduled instant,
  // whether or not any connection is free.
  for (const WorkItem& item : schedule) {
    for (;;) {
      const double lead_ms = item.scheduled_ms - wall.ElapsedMillis();
      if (lead_ms <= 0.0) break;
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          std::min(lead_ms, 5.0)));
    }
    queue.Push(item);
  }
  queue.CloseQueue();
  for (auto& t : workers) t.join();
  out.wall_ms = wall.ElapsedMillis();
  return out;
}

double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

int Run(int argc, char** argv) {
  const NetLoadConfig cfg = ParseArgs(argc, argv);
  PrintHeader("net_load",
              "open-loop Poisson load against the wire-protocol server",
              cfg.base);
  std::printf("transport %s, churn every %d, max_inflight %d, "
              "timeout %lld ms\n\n",
              cfg.transport.c_str(), cfg.churn_every, cfg.max_inflight,
              static_cast<long long>(cfg.timeout_ms));

  LiveLocalOptions wopts = cfg.base.WorkloadOptions();
  const LiveLocalWorkload workload = GenerateLiveLocal(wopts);
  const std::vector<std::string> texts = BuildQueryTexts(workload);

  std::printf("%6s %9s %9s %9s %9s %9s %6s %6s %8s %7s %6s\n", "conns",
              "offered", "queries", "qps", "p50_ms", "p99_ms", "ok", "shed",
              "timeout", "err", "proto");

  std::vector<std::string> rows;
  bool failed = false;
  for (const int connections : cfg.connections) {
    const double offered = cfg.rate > 0.0 ? cfg.rate : 300.0;
    int num_queries = cfg.base.queries;
    if (cfg.cell_seconds > 0.0) {
      const int cap =
          std::max(50, static_cast<int>(offered * cfg.cell_seconds));
      if (cap < num_queries) {
        std::printf("  [cell %d: capped to %d arrivals (~%.0fs at "
                    "%.0f/s); --cell-seconds=0 to run all %d]\n",
                    connections, cap, cfg.cell_seconds, offered,
                    num_queries);
        num_queries = cap;
      }
    }

    ServerRig rig(workload, cfg);
    DialFn dial;
    std::unique_ptr<net::InProcTransport> inproc;
    if (cfg.transport == "inproc") {
      inproc = std::make_unique<net::InProcTransport>();
      Status st = rig.server().Start(inproc->CreateListener());
      if (!st.ok()) {
        std::fprintf(stderr, "server start failed: %s\n",
                     st.ToString().c_str());
        return 1;
      }
      net::InProcTransport* t = inproc.get();
      dial = [t] { return t->Connect(); };
    } else {
      auto listener = net::TcpListen(0);
      if (!listener.ok()) {
        std::fprintf(stderr, "listen failed: %s\n",
                     listener.status().ToString().c_str());
        return 1;
      }
      const int port = (*listener)->local_port();
      Status st = rig.server().Start(std::move(*listener));
      if (!st.ok()) {
        std::fprintf(stderr, "server start failed: %s\n",
                     st.ToString().c_str());
        return 1;
      }
      dial = [port] { return net::TcpConnect("127.0.0.1", port); };
    }

    CellOutcome out = RunCell(cfg, texts, connections, offered, num_queries,
                              dial);
    rig.server().Stop();

    std::sort(out.latencies_ms.begin(), out.latencies_ms.end());
    const double p50 = Percentile(out.latencies_ms, 0.50);
    const double p99 = Percentile(out.latencies_ms, 0.99);
    const double qps =
        out.wall_ms > 0.0
            ? static_cast<double>(out.replies) * 1000.0 / out.wall_ms
            : 0.0;
    std::printf("%6d %9.0f %9d %9.1f %9.2f %9.2f %6lld %6lld %8lld "
                "%7lld %6lld\n",
                connections, offered, num_queries, qps, p50, p99,
                static_cast<long long>(out.ok),
                static_cast<long long>(out.shed),
                static_cast<long long>(out.timeouts),
                static_cast<long long>(out.query_errors),
                static_cast<long long>(out.protocol_errors));
    rows.push_back(NetLoadJsonRow(
        connections, cfg.transport.c_str(), num_queries, offered, qps, p50,
        p99, out.ok, out.shed, out.timeouts, out.query_errors,
        out.protocol_errors, out.reconnects));

    // CI gate: every scheduled arrival must come back as a reply and
    // the protocol layer must stay clean.
    if (out.protocol_errors > 0 || out.replies != num_queries) {
      std::fprintf(stderr,
                   "FAIL cell %d: %lld protocol errors, %lld/%d replies\n",
                   connections,
                   static_cast<long long>(out.protocol_errors),
                   static_cast<long long>(out.replies), num_queries);
      failed = true;
    }
  }

  WriteJsonReport(cfg.base, "net_load", rows);
  if (failed) return 1;
  std::printf("\nnet_load OK\n");
  return 0;
}

}  // namespace
}  // namespace colr::bench

int main(int argc, char** argv) {
  return colr::bench::Run(argc, argv);
}
