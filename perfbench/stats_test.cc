// Self-test of the benchmark's statistics and JSON helpers
// (bench_stats.h). Exits nonzero on the first failed check. The last
// stdout line is a JSON object holding nan/inf values, which
// perfbench/run.py --self-test parses to confirm they came out as null.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

/// 1..n in a scrambled order, so the helpers cannot rely on sorted input.
std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 0; i < n; ++i) v.push_back(static_cast<double>((i * 7919) % n + 1));
  return v;
}

void TestMedian() {
  Expect(std::isnan(perfbench::Median({})), "median of nothing is NaN");
  Expect(perfbench::Median({5.0}) == 5.0, "median of one value");
  Expect(perfbench::Median({3.0, 1.0, 2.0}) == 2.0, "median of odd count");
  Expect(perfbench::Median({4.0, 1.0, 3.0, 2.0}) == 2.5,
         "median of even count is the mean of the middle two");
  Expect(perfbench::Median(Ramp(1001)) == 501.0, "median of 1..1001");
}

void TestTail() {
  // n = 1000: p99 has exactly 10 samples beyond it.
  perfbench::Tail t = perfbench::TailPercentile(Ramp(1000));
  Expect(t.percentile == 99.0 && t.value == 990.0 && t.beyond == 10,
         "n=1000 reports p99 = 990 with 10 beyond");
  // n = 100000: still p99 (the cap), with 1000 beyond.
  t = perfbench::TailPercentile(Ramp(100000));
  Expect(t.percentile == 99.0 && t.value == 99000.0 && t.beyond == 1000,
         "n=100000 reports p99, not a higher percentile");
  // n = 500: p99 would leave 5 beyond, so the rule steps down to p98.
  t = perfbench::TailPercentile(Ramp(500));
  Expect(t.percentile == 98.0 && t.value == 490.0 && t.beyond == 10,
         "n=500 steps down to p98 with 10 beyond");
  // n = 123: the highest rank with 10 beyond is 113.
  t = perfbench::TailPercentile(Ramp(123));
  Expect(t.value == 113.0 && t.beyond == 10, "n=123 keeps 10 beyond");
  // Every n >= 20 keeps at least 10 beyond; below 20 there is no tail.
  for (size_t n = 20; n <= 3000; n += 7) {
    t = perfbench::TailPercentile(Ramp(n));
    Expect(t.beyond >= 10 && t.percentile <= 99.0 && t.percentile >= 50.0,
           "tail rule holds for every n");
  }
  Expect(std::isnan(perfbench::TailPercentile(Ramp(19)).value),
         "no tail below 20 samples");
}

void TestKeepBest() {
  std::vector<double> best;
  perfbench::KeepBest(&best, {3.0, 1.0, 5.0});
  Expect(best == std::vector<double>{3.0, 1.0, 5.0},
         "the first pass is taken as it is");
  perfbench::KeepBest(&best, {2.0, 4.0, 5.0});
  Expect(best == std::vector<double>{2.0, 1.0, 5.0},
         "each query keeps its lowest time");
}

void TestJson() {
  Expect(perfbench::JsonNumber(std::nan("")) == "null", "nan -> null");
  Expect(perfbench::JsonNumber(INFINITY) == "null", "inf -> null");
  Expect(perfbench::JsonNumber(-INFINITY) == "null", "-inf -> null");
  Expect(perfbench::JsonNumber(0.1) == "0.10000000000000001",
         "doubles keep all 17 digits");
  Expect(perfbench::JsonString("a\"b\\c\n\x01") == "\"a\\\"b\\\\c\\n\\u0001\"",
         "strings are escaped");
  perfbench::JsonObject inner;
  inner.Num("value", 1.5).Str("unit", "ms");
  perfbench::JsonObject o;
  o.Bool("correct", true).Int("attempted", 3).Raw("m", inner.Done());
  Expect(o.Done() ==
             "{\"correct\": true, \"attempted\": 3, \"m\": {\"value\": 1.5, "
             "\"unit\": \"ms\"}}",
         "object layout");
  Expect(perfbench::JsonObject().Done() == "{}", "empty object");
}

}  // namespace

int main() {
  TestMedian();
  TestTail();
  TestKeepBest();
  TestJson();
  perfbench::JsonObject probe;
  probe.Num("nan", std::nan("")).Num("inf", INFINITY).Num("one", 1.0)
      .Str("text", "q\"uote");
  std::printf("%s\n", probe.Done().c_str());
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  return 0;
}
