#ifndef COLR_RELATIONAL_EXECUTOR_H_
#define COLR_RELATIONAL_EXECUTOR_H_

#include <functional>
#include <string>
#include <vector>

#include "relational/table.h"
#include "relational/value.h"

namespace colr::rel {

/// A materialized intermediate result: named columns plus rows.
/// Operators are pure functions Relation -> Relation, composed by the
/// access methods of §VI-A (left-deep join trees over layer and cache
/// tables).
struct Relation {
  std::vector<std::string> columns;
  std::vector<Row> rows;

  int IndexOf(const std::string& name) const {
    for (int i = 0; i < static_cast<int>(columns.size()); ++i) {
      if (columns[i] == name) return i;
    }
    return -1;
  }

  size_t size() const { return rows.size(); }
  bool empty() const { return rows.empty(); }
};

/// Materializes a table's live rows (optionally prefixing column names
/// with "<alias>.").
Relation ScanTable(const Table& table, const std::string& alias = "");

/// Rows satisfying the predicate.
Relation Filter(const Relation& in,
                const std::function<bool(const Row&)>& pred);

/// Keeps the named columns, in the given order.
Relation Project(const Relation& in,
                 const std::vector<std::string>& columns);

/// Hash equi-join on left.columns[left_key] == right.columns[right_key].
/// Output columns = left columns then right columns.
Relation HashJoin(const Relation& left, const std::string& left_key,
                  const Relation& right, const std::string& right_key);

/// Aggregation functions for GroupAggregate.
enum class AggFn { kCount, kSum, kMin, kMax, kAvg };

struct AggSpec {
  AggFn fn = AggFn::kCount;
  /// Input column (ignored for kCount).
  std::string column;
  /// Name of the output column.
  std::string as;
};

/// GROUP BY group_columns with the given aggregates. An empty
/// group_columns list produces a single global group (empty input then
/// yields one row of empty aggregates for kCount=0 / null others).
Relation GroupAggregate(const Relation& in,
                        const std::vector<std::string>& group_columns,
                        const std::vector<AggSpec>& aggs);

/// Removes exact duplicate rows.
Relation Distinct(const Relation& in);

}  // namespace colr::rel

#endif  // COLR_RELATIONAL_EXECUTOR_H_
