#include "relational/executor.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

namespace colr::rel {

Relation ScanTable(const Table& table, const std::string& alias) {
  Relation out;
  const std::string prefix = alias.empty() ? "" : alias + ".";
  for (int i = 0; i < table.schema().num_columns(); ++i) {
    out.columns.push_back(prefix + table.schema().column(i).name);
  }
  out.rows.reserve(table.size());
  table.Scan([&out](Table::RowId, const Row& row) {
    out.rows.push_back(row);
    return true;
  });
  return out;
}

Relation Filter(const Relation& in,
                const std::function<bool(const Row&)>& pred) {
  Relation out;
  out.columns = in.columns;
  for (const Row& row : in.rows) {
    if (pred(row)) out.rows.push_back(row);
  }
  return out;
}

Relation Project(const Relation& in,
                 const std::vector<std::string>& columns) {
  Relation out;
  std::vector<int> idx;
  for (const std::string& c : columns) {
    out.columns.push_back(c);
    idx.push_back(in.IndexOf(c));
  }
  out.rows.reserve(in.rows.size());
  for (const Row& row : in.rows) {
    Row projected;
    projected.reserve(idx.size());
    for (int i : idx) {
      projected.push_back(i >= 0 ? row[i] : Value::Null());
    }
    out.rows.push_back(std::move(projected));
  }
  return out;
}

namespace {

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

struct RowHash {
  size_t operator()(const Row& key) const {
    size_t h = 0x811C9DC5u;
    for (const Value& v : key) h = h * 16777619u ^ v.Hash();
    return h;
  }
};

Row Concat(const Row& a, const Row& b) {
  Row out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

}  // namespace

Relation HashJoin(const Relation& left, const std::string& left_key,
                  const Relation& right, const std::string& right_key) {
  Relation out;
  out.columns = left.columns;
  out.columns.insert(out.columns.end(), right.columns.begin(),
                     right.columns.end());
  const int lk = left.IndexOf(left_key);
  const int rk = right.IndexOf(right_key);
  if (lk < 0 || rk < 0) return out;

  // Build on the smaller side.
  const bool build_right = right.rows.size() <= left.rows.size();
  const Relation& build = build_right ? right : left;
  const Relation& probe = build_right ? left : right;
  const int bk = build_right ? rk : lk;
  const int pk = build_right ? lk : rk;

  std::unordered_multimap<Value, const Row*, ValueHash> hash;
  hash.reserve(build.rows.size());
  for (const Row& row : build.rows) {
    if (!row[bk].is_null()) hash.emplace(row[bk], &row);
  }
  for (const Row& row : probe.rows) {
    if (row[pk].is_null()) continue;
    auto [lo, hi] = hash.equal_range(row[pk]);
    for (auto it = lo; it != hi; ++it) {
      out.rows.push_back(build_right ? Concat(row, *it->second)
                                     : Concat(*it->second, row));
    }
  }
  return out;
}

Relation GroupAggregate(const Relation& in,
                        const std::vector<std::string>& group_columns,
                        const std::vector<AggSpec>& aggs) {
  Relation out;
  std::vector<int> group_idx;
  for (const std::string& c : group_columns) {
    out.columns.push_back(c);
    group_idx.push_back(in.IndexOf(c));
  }
  std::vector<int> agg_idx;
  for (const AggSpec& a : aggs) {
    out.columns.push_back(a.as);
    agg_idx.push_back(a.column.empty() ? -1 : in.IndexOf(a.column));
  }

  struct Acc {
    int64_t count = 0;
    double sum = 0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    int64_t non_null = 0;
  };

  std::unordered_map<Row, std::vector<Acc>, RowHash> groups;
  std::vector<Row> key_order;
  for (const Row& row : in.rows) {
    Row key;
    key.reserve(group_idx.size());
    for (int i : group_idx) {
      key.push_back(i >= 0 ? row[i] : Value::Null());
    }
    auto it = groups.find(key);
    if (it == groups.end()) {
      it = groups.emplace(key, std::vector<Acc>(aggs.size())).first;
      key_order.push_back(key);
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      Acc& acc = it->second[a];
      ++acc.count;
      const int ci = agg_idx[a];
      if (ci >= 0 && !row[ci].is_null()) {
        const double v = row[ci].AsDouble();
        acc.sum += v;
        acc.min = std::min(acc.min, v);
        acc.max = std::max(acc.max, v);
        ++acc.non_null;
      }
    }
  }

  // SQL semantics: a global aggregate over an empty input still
  // produces one row.
  if (group_columns.empty() && key_order.empty()) {
    groups.emplace(Row{}, std::vector<Acc>(aggs.size()));
    key_order.push_back(Row{});
  }

  for (const Row& key : key_order) {
    Row row = key;
    const auto& accs = groups[key];
    for (size_t a = 0; a < aggs.size(); ++a) {
      const Acc& acc = accs[a];
      switch (aggs[a].fn) {
        case AggFn::kCount:
          row.push_back(agg_idx[a] >= 0 ? Value(acc.non_null)
                                        : Value(acc.count));
          break;
        case AggFn::kSum:
          row.push_back(acc.non_null > 0 ? Value(acc.sum) : Value::Null());
          break;
        case AggFn::kMin:
          row.push_back(acc.non_null > 0 ? Value(acc.min) : Value::Null());
          break;
        case AggFn::kMax:
          row.push_back(acc.non_null > 0 ? Value(acc.max) : Value::Null());
          break;
        case AggFn::kAvg:
          row.push_back(acc.non_null > 0
                            ? Value(acc.sum / static_cast<double>(
                                                  acc.non_null))
                            : Value::Null());
          break;
      }
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

Relation Distinct(const Relation& in) {
  Relation out;
  out.columns = in.columns;
  std::unordered_set<Row, RowHash> seen;
  for (const Row& row : in.rows) {
    if (seen.insert(row).second) out.rows.push_back(row);
  }
  return out;
}

}  // namespace colr::rel
