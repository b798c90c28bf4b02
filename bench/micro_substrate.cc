// Microbenchmarks for the substrate layers: relational engine
// operators, trigger cascades, portal parsing and the MRA-tree —
// complementing bench/micro_core.cc's index-side benchmarks.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "portal/parser.h"
#include "relational/executor.h"
#include "relational/table.h"
#include "rtree/mra_tree.h"

namespace colr {
namespace {

using rel::AggFn;
using rel::AggSpec;
using rel::Relation;
using rel::Row;
using rel::Schema;
using rel::Table;
using rel::Value;
using rel::ValueType;

Schema BenchSchema() {
  return Schema({{"id", ValueType::kInt},
                 {"group_id", ValueType::kInt},
                 {"value", ValueType::kDouble}});
}

void FillTable(Table* t, int n, uint64_t seed = 1) {
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    t->Insert(Row{Value(i), Value(static_cast<int64_t>(rng.UniformInt(64))),
                  Value(rng.NextDouble())});
  }
}

// ---------------------------------------------------------------------------
// Relational engine
// ---------------------------------------------------------------------------

void BM_TableInsert(benchmark::State& state) {
  Table t("t", BenchSchema());
  Rng rng(2);
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.Insert(
        Row{Value(i++), Value(static_cast<int64_t>(rng.UniformInt(64))),
            Value(rng.NextDouble())}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableInsert);

void BM_TableIndexedLookup(benchmark::State& state) {
  Table t("t", BenchSchema());
  FillTable(&t, 50000);
  t.CreateIndex(1);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        t.FindEqual(1, Value(static_cast<int64_t>(rng.UniformInt(64)))));
  }
}
BENCHMARK(BM_TableIndexedLookup);

void BM_TableScanLookup(benchmark::State& state) {
  Table t("t", BenchSchema());
  FillTable(&t, 50000);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        t.FindEqual(1, Value(static_cast<int64_t>(rng.UniformInt(64)))));
  }
}
BENCHMARK(BM_TableScanLookup);

void BM_HashJoin(benchmark::State& state) {
  Table left("l", BenchSchema());
  Table right("r", BenchSchema());
  FillTable(&left, static_cast<int>(state.range(0)), 4);
  FillTable(&right, static_cast<int>(state.range(0)) / 4, 5);
  const Relation lrel = ScanTable(left, "l");
  const Relation rrel = ScanTable(right, "r");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        HashJoin(lrel, "l.group_id", rrel, "r.group_id"));
  }
}
BENCHMARK(BM_HashJoin)->Arg(1000)->Arg(10000);

void BM_GroupAggregate(benchmark::State& state) {
  Table t("t", BenchSchema());
  FillTable(&t, 50000);
  const Relation rel = ScanTable(t);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GroupAggregate(
        rel, {"group_id"},
        {AggSpec{AggFn::kCount, "", "n"},
         AggSpec{AggFn::kAvg, "value", "avg"}}));
  }
}
BENCHMARK(BM_GroupAggregate);

void BM_TriggerCascade(benchmark::State& state) {
  // A three-deep trigger chain, the shape of the §VI slot-update
  // propagation.
  Table a("a", BenchSchema());
  Table b("b", BenchSchema());
  Table c("c", BenchSchema());
  a.AddAfterInsert([&b](Table&, Table::RowId, const Row& row) {
    b.Insert(row);
  });
  b.AddAfterInsert([&c](Table&, Table::RowId, const Row& row) {
    c.Insert(row);
  });
  int64_t i = 0;
  for (auto _ : state) {
    a.Insert(Row{Value(i++), Value(0), Value(1.0)});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TriggerCascade);

// ---------------------------------------------------------------------------
// Portal language
// ---------------------------------------------------------------------------

void BM_ParsePortalQuery(benchmark::State& state) {
  constexpr const char* kQuery =
      "SELECT count(*) FROM sensor S "
      "WHERE S.location WITHIN Polygon((47.5 -122.3, 47.7 -122.3, "
      "47.6 -122.0)) AND S.time BETWEEN now()-10 AND now() mins "
      "CLUSTER 10 miles SAMPLESIZE 30";
  for (auto _ : state) {
    benchmark::DoNotOptimize(portal::Parse(kQuery));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParsePortalQuery);

// ---------------------------------------------------------------------------
// MRA-tree
// ---------------------------------------------------------------------------

void BM_MraTreeQuery(benchmark::State& state) {
  Rng rng(6);
  std::vector<MraTree::Entry> entries;
  for (int i = 0; i < 100000; ++i) {
    entries.push_back(
        {{rng.Uniform(0, 100), rng.Uniform(0, 100)}, rng.NextDouble()});
  }
  MraTree tree(std::move(entries));
  const int budget = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.Query(Rect::FromCorners(11, 13, 67, 59), budget));
  }
}
BENCHMARK(BM_MraTreeQuery)->Arg(10)->Arg(100)->Arg(-1);

}  // namespace
}  // namespace colr

BENCHMARK_MAIN();
