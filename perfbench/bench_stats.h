#ifndef COLR_PERFBENCH_BENCH_STATS_H_
#define COLR_PERFBENCH_BENCH_STATS_H_

// Statistics and JSON helpers of the repository benchmark. Header-only
// so perfbench_selftest checks exactly the code colr_perfbench runs.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Median (mean of the two middle values for an even count); NaN when
/// empty. Takes a copy: callers keep their sample order.
inline double Median(std::vector<double> v) {
  if (v.empty()) return kNaN;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2.0;
}

/// A tail percentile that the sample can support.
struct Tail {
  /// The percentile reported, in percent (99 once n >= 1000; below
  /// that, the nearest-rank percentile of the rank used).
  double percentile = kNaN;
  double value = kNaN;
  /// Samples strictly beyond the reported rank (always >= 10).
  size_t beyond = 0;
};

/// The tail the benchmark reports as `*_p99_*`: p99 when at least ten
/// samples lie beyond it, otherwise the highest nearest-rank
/// percentile that still leaves ten samples beyond it. Needs at least
/// 20 samples (the tail must not fall below the median); NaN before.
inline Tail TailPercentile(std::vector<double> v) {
  Tail t;
  const size_t n = v.size();
  if (n < 20) return t;
  // Nearest rank of p99 is ceil(0.99 n); integer form avoids rounding.
  const size_t rank99 = (99 * n + 99) / 100;
  const size_t rank = std::min(rank99, n - 10);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  t.value = v[rank - 1];
  t.beyond = n - rank;
  t.percentile = rank == rank99 ? 99.0
                                : 100.0 * static_cast<double>(rank) /
                                      static_cast<double>(n);
  return t;
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return kNaN;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Folds one pass's per-query times into `best`, the lowest time seen
/// for each query over the passes so far. Interference from a shared
/// host only ever adds time, so a query's best time over passes some
/// seconds apart is its steadiest estimate. An empty `best` takes the
/// first pass as it is; every pass replays the same queries, so later
/// ones have its length.
inline void KeepBest(std::vector<double>* best, const std::vector<double>& pass) {
  if (best->empty()) {
    *best = pass;
    return;
  }
  for (size_t i = 0; i < pass.size(); ++i) {
    (*best)[i] = std::min((*best)[i], pass[i]);
  }
}

/// Serializes a double for JSON: all 17 significant digits, and null
/// for nan/inf (JSON has neither).
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

/// Builds one JSON object field by field.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    return Raw(key, JsonNumber(v));
  }
  JsonObject& Int(const std::string& key, int64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, JsonString(v));
  }
  /// `raw` must itself be valid JSON (output of Done()).
  JsonObject& Raw(const std::string& key, const std::string& raw) {
    body_ += body_.empty() ? "{" : ", ";
    body_ += JsonString(key) + ": " + raw;
    return *this;
  }
  std::string Done() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace perfbench

#endif  // COLR_PERFBENCH_BENCH_STATS_H_
