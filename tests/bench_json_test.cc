// The --json reports are consumed by external tooling, so every byte
// the harnesses emit must be valid JSON (RFC 8259). These tests drive
// the shared emitters in bench/bench_common.h — JsonObject and
// WriteJsonReport — through the hostile cases (control characters,
// quotes, non-finite doubles) with a minimal validating parser, plus
// the flag-parsing contract of BenchConfig::FromArgs.

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/sync.h"
#include "common/sync_stats.h"
#include "gtest/gtest.h"

namespace colr::bench {
namespace {

// ---------------------------------------------------------------------------
// A strict RFC 8259 validating parser (no values built, just syntax).
// ---------------------------------------------------------------------------

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool Valid() {
    pos_ = 0;
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(const char* lit) {
    const size_t len = std::strlen(lit);
    if (text_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }

  bool String() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return false;  // raw control char: invalid
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + i >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (std::strchr("\"\\/bfnrt", esc) == nullptr) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool Number() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return false;
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return false;
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return false;
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    return pos_ > start;
  }

  bool Value() {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      if (!Value()) return false;
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      if (!Value()) return false;
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

bool IsValidJson(const std::string& s) { return JsonValidator(s).Valid(); }

// The validator itself must reject what it claims to reject.
TEST(JsonValidatorTest, RejectsMalformedInputs) {
  EXPECT_TRUE(IsValidJson("{\"a\": 1, \"b\": [1.5e-3, null, \"x\"]}"));
  EXPECT_FALSE(IsValidJson("{\"a\": nan}"));
  EXPECT_FALSE(IsValidJson("{\"a\": 1"));
  EXPECT_FALSE(IsValidJson("{\"a\": \"unterminated}"));
  EXPECT_FALSE(IsValidJson(std::string("{\"a\": \"\x01\"}")));  // raw ctrl
  EXPECT_FALSE(IsValidJson("{\"a\": 01e}"));
  EXPECT_FALSE(IsValidJson(""));
}

// ---------------------------------------------------------------------------
// JsonObject
// ---------------------------------------------------------------------------

TEST(JsonObjectTest, EmptyObjectIsValid) {
  EXPECT_EQ(JsonObject().Done(), "{}");
  EXPECT_TRUE(IsValidJson(JsonObject().Done()));
}

TEST(JsonObjectTest, EscapesQuotesBackslashesAndControlCharacters) {
  const std::string out = JsonObject()
                              .Field("s", "a\"b\\c\nd\te\rf\x01g")
                              .Done();
  EXPECT_TRUE(IsValidJson(out)) << out;
  EXPECT_NE(out.find("\\\""), std::string::npos);
  EXPECT_NE(out.find("\\\\"), std::string::npos);
  EXPECT_NE(out.find("\\n"), std::string::npos);
  EXPECT_NE(out.find("\\t"), std::string::npos);
  EXPECT_NE(out.find("\\r"), std::string::npos);
  EXPECT_NE(out.find("\\u0001"), std::string::npos);
  // No raw control byte survives.
  for (const char c : out) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
}

TEST(JsonObjectTest, NonFiniteDoublesBecomeNull) {
  const std::string out =
      JsonObject()
          .Field("nan", std::nan(""))
          .Field("inf", std::numeric_limits<double>::infinity())
          .Field("ninf", -std::numeric_limits<double>::infinity())
          .Field("ok", 1.5)
          .Done();
  EXPECT_TRUE(IsValidJson(out)) << out;
  EXPECT_NE(out.find("\"nan\": null"), std::string::npos);
  EXPECT_NE(out.find("\"inf\": null"), std::string::npos);
  EXPECT_NE(out.find("\"ninf\": null"), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);
  EXPECT_EQ(out.find("nan,"), std::string::npos);
}

TEST(JsonObjectTest, MixedFieldTypesStayValid) {
  // The field shapes every harness row uses: ints, int64 counters,
  // doubles (possibly extreme), and label strings.
  const std::string out =
      JsonObject()
          .Field("streams", 16)
          .Field("count", static_cast<int64_t>(1) << 40)
          .Field("tiny", 4.9e-324)
          .Field("huge", 1.7976931348623157e308)
          .Field("neg", -0.0)
          .Field("mode", "colr [cache+sample]")
          .Done();
  EXPECT_TRUE(IsValidJson(out)) << out;
}

// ---------------------------------------------------------------------------
// WriteJsonReport: the envelope every harness writes with --json.
// ---------------------------------------------------------------------------

TEST(WriteJsonReportTest, ReportFileParsesEndToEnd) {
  BenchConfig cfg;
  cfg.sensors = 123;
  cfg.queries = 45;
  cfg.cities = 6;
  cfg.json_path =
      ::testing::TempDir() + "/colr_bench_json_test_report.json";

  std::vector<std::string> rows;
  rows.push_back(JsonObject().Field("x", 1).Field("y", 2.5).Done());
  rows.push_back(
      JsonObject().Field("label", "line\nbreak").Field("v", std::nan("")).Done());
  WriteJsonReport(cfg, "unit", rows);

  std::ifstream in(cfg.json_path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string report = buf.str();
  EXPECT_TRUE(IsValidJson(report)) << report;
  EXPECT_NE(report.find("\"bench\": \"unit\""), std::string::npos);
  EXPECT_NE(report.find("\"sensors\": 123"), std::string::npos);
  EXPECT_NE(report.find("\"series\": ["), std::string::npos);
  std::remove(cfg.json_path.c_str());
}

TEST(WriteJsonReportTest, EmptySeriesParses) {
  BenchConfig cfg;
  cfg.json_path = ::testing::TempDir() + "/colr_bench_json_test_empty.json";
  WriteJsonReport(cfg, "unit", {});
  std::ifstream in(cfg.json_path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_TRUE(IsValidJson(buf.str()));
  std::remove(cfg.json_path.c_str());
}

// ---------------------------------------------------------------------------
// BenchConfig::FromArgs: --full is a defaults pass, not an override.
// ---------------------------------------------------------------------------

TEST(BenchConfigTest, FullFlagIsOrderIndependent) {
  char prog[] = "bench";
  char full[] = "--full";
  char sensors[] = "--sensors=1000";
  {
    char* argv[] = {prog, sensors, full};
    BenchConfig cfg = BenchConfig::FromArgs(3, argv);
    EXPECT_TRUE(cfg.full);
    EXPECT_EQ(cfg.sensors, 1000);   // explicit flag wins over --full
    EXPECT_EQ(cfg.queries, 106000); // --full default still applies
    EXPECT_EQ(cfg.cities, 250);
  }
  {
    char* argv[] = {prog, full, sensors};
    BenchConfig cfg = BenchConfig::FromArgs(3, argv);
    EXPECT_TRUE(cfg.full);
    EXPECT_EQ(cfg.sensors, 1000);
    EXPECT_EQ(cfg.queries, 106000);
    EXPECT_EQ(cfg.cities, 250);
  }
}

TEST(BenchConfigTest, CitiesFlagParsed) {
  char prog[] = "bench";
  char cities[] = "--cities=42";
  char* argv[] = {prog, cities};
  BenchConfig cfg = BenchConfig::FromArgs(2, argv);
  EXPECT_EQ(cfg.cities, 42);
}

// ---------------------------------------------------------------------------
// Writer-scaling rows (concurrent_portal --writer-scaling --json)
// ---------------------------------------------------------------------------

TEST(WriterScalingJsonRowTest, RowParsesAndLabelsMode) {
  const std::string sharded = WriterScalingJsonRow(
      /*collector_threads=*/8, /*serialized=*/false, /*shard_level=*/-1,
      /*inserts=*/240000, /*wall_ms=*/151.25, /*inserts_per_sec=*/1586776.8,
      /*rolls=*/7, /*late_dropped=*/12, /*evicted=*/0, /*recomputes=*/71420,
      /*consistent=*/true);
  EXPECT_TRUE(IsValidJson(sharded)) << sharded;
  EXPECT_NE(sharded.find("\"writer_mode\": \"sharded\""), std::string::npos);
  EXPECT_NE(sharded.find("\"writer_shard_level\": -1"), std::string::npos);
  EXPECT_NE(sharded.find("\"collector_threads\": 8"), std::string::npos);
  EXPECT_NE(sharded.find("\"consistent\": 1"), std::string::npos);
  // Stats disabled: no sync block at all.
  EXPECT_EQ(sharded.find("\"sync\""), std::string::npos);

  const std::string serialized = WriterScalingJsonRow(
      1, /*serialized=*/true, /*shard_level=*/0, 30000, 0.0,
      std::numeric_limits<double>::infinity(), 0, 0, 0, 0,
      /*consistent=*/false);
  EXPECT_TRUE(IsValidJson(serialized)) << serialized;
  EXPECT_NE(serialized.find("\"writer_mode\": \"serialized\""),
            std::string::npos);
  EXPECT_NE(serialized.find("\"writer_shard_level\": 0"), std::string::npos);
  EXPECT_NE(serialized.find("\"consistent\": 0"), std::string::npos);
  // Non-finite throughput (zero wall time) must not leak "inf".
  EXPECT_NE(serialized.find("\"inserts_per_sec\": null"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Flash-crowd rows (concurrent_portal --flash-crowd --json)
// ---------------------------------------------------------------------------

TEST(FlashCrowdJsonRowTest, RowParsesAndCarriesSchedulerCounters) {
  const std::string row = FlashCrowdJsonRow(
      /*streams=*/8, /*queries=*/300, /*wall_ms=*/5152.1, /*qps=*/58.2,
      /*errors=*/0, /*probes=*/76046, /*probes_per_query=*/253.49,
      /*coalesced=*/117226, /*reused=*/12, /*shed=*/3);
  EXPECT_TRUE(IsValidJson(row)) << row;
  EXPECT_NE(row.find("\"streams\": 8"), std::string::npos);
  EXPECT_NE(row.find("\"queries\": 300"), std::string::npos);
  EXPECT_NE(row.find("\"wall_ms\": "), std::string::npos);
  EXPECT_NE(row.find("\"qps\": "), std::string::npos);
  EXPECT_NE(row.find("\"errors\": 0"), std::string::npos);
  EXPECT_NE(row.find("\"probes\": 76046"), std::string::npos);
  EXPECT_NE(row.find("\"probes_per_query\": "), std::string::npos);
  EXPECT_NE(row.find("\"probes_coalesced\": 117226"), std::string::npos);
  EXPECT_NE(row.find("\"probes_reused\": 12"), std::string::npos);
  EXPECT_NE(row.find("\"probes_shed\": 3"), std::string::npos);

  // Zero queries (degenerate config) must emit null, never "inf"/nan.
  const std::string degenerate = FlashCrowdJsonRow(
      1, 0, 0.0, std::numeric_limits<double>::infinity(), 0, 0,
      std::nan(""), 0, 0, 0);
  EXPECT_TRUE(IsValidJson(degenerate)) << degenerate;
  EXPECT_NE(degenerate.find("\"qps\": null"), std::string::npos);
  EXPECT_NE(degenerate.find("\"probes_per_query\": null"), std::string::npos);
}

TEST(WriteJsonReportTest, FlashCrowdReportParsesEndToEnd) {
  BenchConfig cfg;
  cfg.json_path = ::testing::TempDir() + "/colr_flash_crowd_report_test.json";
  std::vector<std::string> rows;
  double ppq = 800.0;
  for (int streams : {1, 2, 4, 8}) {
    rows.push_back(FlashCrowdJsonRow(streams, 300, 40000.0 / streams,
                                     7.5 * streams, 0,
                                     static_cast<int64_t>(300 * ppq), ppq,
                                     1000 * (streams - 1), 0, 0));
    ppq /= 1.4;
  }
  WriteJsonReport(cfg, "flash_crowd", rows);

  std::ifstream in(cfg.json_path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_TRUE(IsValidJson(buf.str())) << buf.str();
  EXPECT_NE(buf.str().find("flash_crowd"), std::string::npos);
  std::remove(cfg.json_path.c_str());
}

// ---------------------------------------------------------------------------
// Open-loop serving rows (net_load --json)
// ---------------------------------------------------------------------------

TEST(NetLoadJsonRowTest, RowParsesAndCarriesEveryCounter) {
  const std::string row = NetLoadJsonRow(
      /*connections=*/16, /*transport=*/"tcp", /*queries=*/1200,
      /*offered_qps=*/300.0, /*qps=*/287.4, /*p50_ms=*/12.6,
      /*p99_ms=*/181.9, /*ok=*/1194, /*shed=*/4, /*timeouts=*/2,
      /*query_errors=*/0, /*protocol_errors=*/0, /*reconnects=*/47);
  EXPECT_TRUE(IsValidJson(row)) << row;
  EXPECT_NE(row.find("\"connections\": 16"), std::string::npos);
  EXPECT_NE(row.find("\"transport\": \"tcp\""), std::string::npos);
  EXPECT_NE(row.find("\"queries\": 1200"), std::string::npos);
  EXPECT_NE(row.find("\"offered_qps\": "), std::string::npos);
  EXPECT_NE(row.find("\"qps\": "), std::string::npos);
  EXPECT_NE(row.find("\"p50_ms\": "), std::string::npos);
  EXPECT_NE(row.find("\"p99_ms\": "), std::string::npos);
  EXPECT_NE(row.find("\"ok\": 1194"), std::string::npos);
  EXPECT_NE(row.find("\"shed\": 4"), std::string::npos);
  EXPECT_NE(row.find("\"timeouts\": 2"), std::string::npos);
  EXPECT_NE(row.find("\"query_errors\": 0"), std::string::npos);
  EXPECT_NE(row.find("\"protocol_errors\": 0"), std::string::npos);
  EXPECT_NE(row.find("\"reconnects\": 47"), std::string::npos);

  // An empty cell (no replies) must emit null percentiles, never
  // nan/inf — the open-loop driver computes them from an empty vector
  // when every request is still outstanding at the cap.
  const std::string empty = NetLoadJsonRow(
      1, "inproc", 0, 300.0, std::numeric_limits<double>::infinity(),
      std::nan(""), std::nan(""), 0, 0, 0, 0, 0, 0);
  EXPECT_TRUE(IsValidJson(empty)) << empty;
  EXPECT_NE(empty.find("\"transport\": \"inproc\""), std::string::npos);
  EXPECT_NE(empty.find("\"qps\": null"), std::string::npos);
  EXPECT_NE(empty.find("\"p50_ms\": null"), std::string::npos);
  EXPECT_NE(empty.find("\"p99_ms\": null"), std::string::npos);
}

TEST(WriteJsonReportTest, NetLoadReportParsesEndToEnd) {
  BenchConfig cfg;
  cfg.json_path = ::testing::TempDir() + "/colr_net_load_report_test.json";
  std::vector<std::string> rows;
  for (int connections : {1, 4, 16, 64}) {
    rows.push_back(NetLoadJsonRow(connections, "tcp", 1200, 300.0,
                                  std::min(300.0, 95.0 * connections), 8.5,
                                  120.0, 1200, 0, 0, 0, 0,
                                  1200 / 100));
  }
  WriteJsonReport(cfg, "net_load", rows);

  std::ifstream in(cfg.json_path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_TRUE(IsValidJson(buf.str())) << buf.str();
  EXPECT_NE(buf.str().find("net_load"), std::string::npos);
  std::remove(cfg.json_path.c_str());
}

// ---------------------------------------------------------------------------
// Sync-stats JSON (the "sync" block nested in writer-scaling and
// timed-replay rows): present when a snapshot is enabled, absent when
// disabled, histogram buckets summing to the acquisition count.
// ---------------------------------------------------------------------------

// A hand-built snapshot with the invariant the recorder maintains:
// every acquisition lands in exactly one wait_hist bucket.
SyncStatsSnapshot MakeEnabledSnapshot() {
  SyncStatsSnapshot snap;
  snap.enabled = true;
  auto record = [&snap](SyncSite site, bool contended, int64_t wait_ns) {
    SyncSiteStats& s = snap.sites[static_cast<size_t>(site)];
    ++s.acquisitions;
    ++s.wait_hist[SyncWaitBucket(wait_ns)];
    if (contended) {
      ++s.contended;
      s.total_wait_ns += wait_ns;
      s.max_wait_ns = std::max(s.max_wait_ns, wait_ns);
    }
  };
  for (int i = 0; i < 40; ++i) record(SyncSite::kEpochShared, false, 0);
  record(SyncSite::kEpochExclusive, true, 1 << 20);
  for (int i = 0; i < 7; ++i) record(SyncSite::kShardWriter, false, 0);
  record(SyncSite::kShardWriter, true, 100);
  record(SyncSite::kShardWriter, true, 5000);
  record(SyncSite::kNodeStripe, true, 1 << 14);
  return snap;
}

TEST(SyncStatsJsonTest, DisabledSnapshotEmitsNothingAnywhere) {
  SyncStatsSnapshot snap;  // default: enabled = false
  EXPECT_EQ(SyncStatsJsonBlock(snap), "");
  const std::string row = WriterScalingJsonRow(
      4, /*serialized=*/false, -1, 1000, 1.0, 1e6, 0, 0, 0, 0, true,
      SyncStatsJsonBlock(snap));
  EXPECT_TRUE(IsValidJson(row)) << row;
  EXPECT_EQ(row.find("\"sync\""), std::string::npos);
}

TEST(SyncStatsJsonTest, EnabledSnapshotEmitsEverySiteAndHottest) {
  const SyncStatsSnapshot snap = MakeEnabledSnapshot();
  const std::string block = SyncStatsJsonBlock(snap);
  EXPECT_TRUE(IsValidJson(block)) << block;
  for (int i = 0; i < kNumSyncSites; ++i) {
    EXPECT_NE(block.find(std::string("\"site\": \"") +
                         SyncSiteName(static_cast<SyncSite>(i)) + "\""),
              std::string::npos)
        << block;
  }
  // kEpochExclusive carries the largest total wait in MakeEnabledSnapshot.
  EXPECT_NE(block.find("\"hottest_site\": \"epoch_exclusive\""),
            std::string::npos)
      << block;
  // Nested into a writer-scaling row it stays valid and addressable.
  const std::string row = WriterScalingJsonRow(
      4, /*serialized=*/false, -1, 1000, 1.0, 1e6, 0, 0, 0, 0, true, block);
  EXPECT_TRUE(IsValidJson(row)) << row;
  EXPECT_NE(row.find("\"sync\": {"), std::string::npos);
}

TEST(SyncStatsJsonTest, HistogramBucketsSumToAcquisitions) {
  const SyncStatsSnapshot snap = MakeEnabledSnapshot();
  for (int i = 0; i < kNumSyncSites; ++i) {
    const SyncSiteStats& s = snap.sites[i];
    int64_t hist_sum = 0;
    for (int h = 0; h < kSyncWaitBuckets; ++h) hist_sum += s.wait_hist[h];
    EXPECT_EQ(hist_sum, s.acquisitions)
        << SyncSiteName(static_cast<SyncSite>(i));
  }
}

TEST(SyncStatsJsonTest, LiveRecorderMaintainsHistogramInvariant) {
  // Drive the real registry through the instrumented guard and check
  // the recorder keeps the bucket invariant the JSON tests rely on.
  SyncStatsRegistry::Instance().Enable();
  const SyncStatsSnapshot before = SyncStatsRegistry::Instance().Snapshot();
  SpinMutex mu;
  for (int i = 0; i < 64; ++i) {
    MutexLock lock(mu, SyncSite::kRootSpin);
  }
  mu.lock();
  std::thread waiter([&mu] {
    MutexLock lock(mu, SyncSite::kRootSpin);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  mu.unlock();
  waiter.join();
  const SyncStatsSnapshot delta =
      SyncStatsDelta(SyncStatsRegistry::Instance().Snapshot(), before);
  EXPECT_TRUE(delta.enabled);
  const SyncSiteStats& s =
      delta.sites[static_cast<size_t>(SyncSite::kRootSpin)];
  EXPECT_EQ(s.acquisitions, 65);
  int64_t hist_sum = 0;
  for (int h = 0; h < kSyncWaitBuckets; ++h) hist_sum += s.wait_hist[h];
  EXPECT_EQ(hist_sum, s.acquisitions);
  const std::string block = SyncStatsJsonBlock(delta);
  EXPECT_TRUE(IsValidJson(block)) << block;
  EXPECT_NE(block.find("\"site\": \"root_spin\""), std::string::npos);
}

TEST(WriteJsonReportTest, WriterScalingReportParsesEndToEnd) {
  char prog[] = "bench";
  char json[] = "--json=writer_scaling_rows_test.json";
  char* argv[] = {prog, json};
  BenchConfig cfg = BenchConfig::FromArgs(2, argv);

  std::vector<std::string> rows;
  for (int threads : {1, 2, 4, 8}) {
    for (int level : {0, -1, 1, 2}) {
      rows.push_back(WriterScalingJsonRow(threads, /*serialized=*/level == 0,
                                          level, 30000 * threads,
                                          100.0 + threads, 300000.0 * threads,
                                          threads, 0, 5, 900 * threads, true));
    }
  }
  WriteJsonReport(cfg, "writer_scaling", rows);

  std::ifstream in(cfg.json_path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_TRUE(IsValidJson(buf.str())) << buf.str();
  EXPECT_NE(buf.str().find("writer_scaling"), std::string::npos);
  std::remove(cfg.json_path.c_str());
}

}  // namespace
}  // namespace colr::bench
