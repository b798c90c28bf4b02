#include "relational/executor.h"

#include <algorithm>

#include "relational/table.h"
#include "relational/value.h"

#include "common/rng.h"

#include "gtest/gtest.h"

namespace colr::rel {
namespace {

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value(42).type(), ValueType::kInt);
  EXPECT_EQ(Value(4.5).type(), ValueType::kDouble);
  EXPECT_EQ(Value("hi").type(), ValueType::kString);
  EXPECT_EQ(Value(42).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value(42).AsDouble(), 42.0);
  EXPECT_EQ(Value(4.9).AsInt(), 4);
  EXPECT_EQ(Value("hi").AsString(), "hi");
}

TEST(ValueTest, NumericCrossTypeEquality) {
  EXPECT_TRUE(Value(3) == Value(3.0));
  EXPECT_FALSE(Value(3) == Value(3.5));
  EXPECT_TRUE(Value(2) < Value(2.5));
  EXPECT_FALSE(Value("3") == Value(3));
  EXPECT_TRUE(Value::Null() == Value::Null());
  // Hash consistency with equality.
  EXPECT_EQ(Value(3).Hash(), Value(3.0).Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(7).ToString(), "7");
  EXPECT_EQ(Value("x").ToString(), "x");
  EXPECT_EQ(Value::Null().ToString(), "NULL");
}

// ---------------------------------------------------------------------------
// Schema / Table
// ---------------------------------------------------------------------------

Schema TestSchema() {
  return Schema({{"id", ValueType::kInt},
                 {"name", ValueType::kString},
                 {"score", ValueType::kDouble}});
}

TEST(SchemaTest, IndexOfAndValidate) {
  Schema s = TestSchema();
  EXPECT_EQ(s.num_columns(), 3);
  EXPECT_EQ(s.IndexOf("name"), 1);
  EXPECT_EQ(s.IndexOf("missing"), -1);
  EXPECT_TRUE(s.Validate(Row{Value(1), Value("a"), Value(2.0)}).ok());
  EXPECT_TRUE(s.Validate(Row{Value(1), Value::Null(), Value(2)}).ok());
  EXPECT_FALSE(s.Validate(Row{Value(1), Value("a")}).ok());  // arity
  EXPECT_FALSE(
      s.Validate(Row{Value(1), Value(2), Value(3.0)}).ok());  // type
}

TEST(TableTest, InsertGetUpdateDelete) {
  Table t("t", TestSchema());
  auto id1 = t.Insert(Row{Value(1), Value("a"), Value(1.5)});
  ASSERT_TRUE(id1.ok());
  auto id2 = t.Insert(Row{Value(2), Value("b"), Value(2.5)});
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(t.size(), 2u);
  ASSERT_NE(t.Get(*id1), nullptr);
  EXPECT_EQ((*t.Get(*id1))[1].AsString(), "a");

  EXPECT_TRUE(t.Update(*id1, Row{Value(1), Value("a2"), Value(9.0)}).ok());
  EXPECT_EQ((*t.Get(*id1))[1].AsString(), "a2");

  EXPECT_TRUE(t.Delete(*id1).ok());
  EXPECT_EQ(t.Get(*id1), nullptr);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_FALSE(t.Delete(*id1).ok());   // already gone
  EXPECT_FALSE(t.Update(*id1, Row{}).ok());
  EXPECT_FALSE(t.Delete(999).ok());
}

TEST(TableTest, FindAndScan) {
  Table t("t", TestSchema());
  for (int i = 0; i < 10; ++i) {
    t.Insert(Row{Value(i), Value(i % 2 ? "odd" : "even"),
                 Value(static_cast<double>(i))});
  }
  auto odds = t.Find([](const Row& r) { return r[1].AsString() == "odd"; });
  EXPECT_EQ(odds.size(), 5u);
  EXPECT_EQ(t.FindFirst(0, Value(7)), 7);
  EXPECT_EQ(t.FindFirst(0, Value(99)), -1);
  int visited = 0;
  t.Scan([&visited](Table::RowId, const Row&) {
    ++visited;
    return visited < 3;
  });
  EXPECT_EQ(visited, 3);
}

TEST(TableTest, TriggersFire) {
  Table t("t", TestSchema());
  int inserts = 0, updates = 0, deletes = 0;
  Row last_old;
  t.AddAfterInsert([&](Table&, Table::RowId, const Row&) { ++inserts; });
  t.AddAfterUpdate([&](Table&, Table::RowId, const Row& o, const Row&) {
    ++updates;
    last_old = o;
  });
  t.AddAfterDelete([&](Table&, const Row&) { ++deletes; });

  auto id = t.Insert(Row{Value(1), Value("a"), Value(0.0)});
  t.Update(*id, Row{Value(1), Value("b"), Value(0.0)});
  t.Delete(*id);
  EXPECT_EQ(inserts, 1);
  EXPECT_EQ(updates, 1);
  EXPECT_EQ(deletes, 1);
  EXPECT_EQ(last_old[1].AsString(), "a");
}

TEST(TableTest, TriggerCascade) {
  // A trigger that mutates another table; mirrors the slot update
  // trigger chain of §VI-B.
  Database db;
  Table* base = *db.CreateTable("base", TestSchema());
  Table* log = *db.CreateTable(
      "log", Schema({{"what", ValueType::kString}}));
  base->AddAfterInsert([log](Table&, Table::RowId, const Row&) {
    log->Insert(Row{Value("insert")});
  });
  base->Insert(Row{Value(1), Value("a"), Value(0.0)});
  base->Insert(Row{Value(2), Value("b"), Value(0.0)});
  EXPECT_EQ(log->size(), 2u);
}

TEST(TableIndexTest, IndexedLookupsMatchScans) {
  Table t("t", TestSchema());
  for (int i = 0; i < 200; ++i) {
    t.Insert(Row{Value(i % 17), Value("n" + std::to_string(i)),
                 Value(static_cast<double>(i))});
  }
  ASSERT_TRUE(t.CreateIndex(0).ok());
  EXPECT_TRUE(t.HasIndex(0));
  EXPECT_FALSE(t.HasIndex(1));
  EXPECT_FALSE(t.CreateIndex(9).ok());
  for (int key = 0; key < 17; ++key) {
    auto indexed = t.FindEqual(0, Value(key));
    auto scanned =
        t.Find([key](const Row& r) { return r[0].AsInt() == key; });
    EXPECT_EQ(indexed, scanned) << key;
    EXPECT_EQ(t.FindFirst(0, Value(key)),
              scanned.empty() ? -1 : scanned.front());
  }
  EXPECT_TRUE(t.FindEqual(0, Value(99)).empty());
}

TEST(TableIndexTest, IndexMaintainedAcrossMutations) {
  Table t("t", TestSchema());
  ASSERT_TRUE(t.CreateIndex(0).ok());  // index created before inserts
  auto a = t.Insert(Row{Value(1), Value("a"), Value(0.0)});
  auto b = t.Insert(Row{Value(1), Value("b"), Value(0.0)});
  auto c = t.Insert(Row{Value(2), Value("c"), Value(0.0)});
  EXPECT_EQ(t.FindEqual(0, Value(1)).size(), 2u);

  // Update moves a row between index buckets.
  ASSERT_TRUE(t.Update(*a, Row{Value(2), Value("a2"), Value(0.0)}).ok());
  EXPECT_EQ(t.FindEqual(0, Value(1)), std::vector<Table::RowId>{*b});
  EXPECT_EQ(t.FindEqual(0, Value(2)).size(), 2u);

  // Delete removes from the index.
  ASSERT_TRUE(t.Delete(*c).ok());
  EXPECT_EQ(t.FindEqual(0, Value(2)), std::vector<Table::RowId>{*a});

  // Stress: random mutations keep the index equal to the scan.
  Rng rng(7);
  std::vector<Table::RowId> live{*a, *b};
  for (int step = 0; step < 500; ++step) {
    if (live.empty() || rng.Bernoulli(0.5)) {
      auto id = t.Insert(Row{Value(static_cast<int64_t>(
                                 rng.UniformInt(9))),
                             Value("x"), Value(0.0)});
      live.push_back(*id);
    } else if (rng.Bernoulli(0.5)) {
      const size_t pick = rng.UniformInt(live.size());
      t.Update(live[pick],
               Row{Value(static_cast<int64_t>(rng.UniformInt(9))),
                   Value("y"), Value(0.0)});
    } else {
      const size_t pick = rng.UniformInt(live.size());
      t.Delete(live[pick]);
      live.erase(live.begin() + pick);
    }
  }
  for (int key = 0; key < 9; ++key) {
    EXPECT_EQ(t.FindEqual(0, Value(key)),
              t.Find([key](const Row& r) { return r[0].AsInt() == key; }));
  }
}

TEST(DatabaseTest, CreateGetDrop) {
  Database db;
  auto t = db.CreateTable("a", TestSchema());
  ASSERT_TRUE(t.ok());
  EXPECT_FALSE(db.CreateTable("a", TestSchema()).ok());
  EXPECT_NE(db.GetTable("a"), nullptr);
  EXPECT_EQ(db.GetTable("b"), nullptr);
  EXPECT_EQ(db.TableNames().size(), 1u);
  EXPECT_TRUE(db.DropTable("a").ok());
  EXPECT_FALSE(db.DropTable("a").ok());
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

Relation People() {
  Relation r;
  r.columns = {"id", "city", "age"};
  r.rows = {
      {Value(1), Value("rome"), Value(30)},
      {Value(2), Value("rome"), Value(40)},
      {Value(3), Value("oslo"), Value(20)},
      {Value(4), Value("oslo"), Value(50)},
      {Value(5), Value("lima"), Value(35)},
  };
  return r;
}

Relation Cities() {
  Relation r;
  r.columns = {"name", "country"};
  r.rows = {
      {Value("rome"), Value("it")},
      {Value("oslo"), Value("no")},
      {Value("paris"), Value("fr")},
  };
  return r;
}

TEST(ExecutorTest, ScanTableMaterializesLiveRows) {
  Table t("t", TestSchema());
  auto id = t.Insert(Row{Value(1), Value("a"), Value(0.0)});
  t.Insert(Row{Value(2), Value("b"), Value(0.0)});
  t.Delete(*id);
  Relation r = ScanTable(t, "t");
  EXPECT_EQ(r.columns[0], "t.id");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
}

TEST(ExecutorTest, FilterAndProject) {
  Relation adults = Filter(People(), [](const Row& r) {
    return r[2].AsInt() >= 35;
  });
  EXPECT_EQ(adults.size(), 3u);
  Relation names = Project(adults, {"city", "id"});
  EXPECT_EQ(names.columns, (std::vector<std::string>{"city", "id"}));
  EXPECT_EQ(names.rows[0][0].AsString(), "rome");
  // Projecting a missing column yields nulls.
  Relation with_missing = Project(adults, {"nope"});
  EXPECT_TRUE(with_missing.rows[0][0].is_null());
}

TEST(ExecutorTest, HashJoinMatchesPairs) {
  Relation j = HashJoin(People(), "city", Cities(), "name");
  EXPECT_EQ(j.size(), 4u);  // lima has no match, paris no people
  const int country = j.IndexOf("country");
  ASSERT_GE(country, 0);
  for (const Row& row : j.rows) {
    EXPECT_TRUE(row[country].AsString() == "it" ||
                row[country].AsString() == "no");
  }
}

TEST(ExecutorTest, HashJoinBuildSideChoice) {
  // Joining in either order yields the same multiset of combined rows.
  Relation a = HashJoin(People(), "city", Cities(), "name");
  Relation b = HashJoin(Cities(), "name", People(), "city");
  EXPECT_EQ(a.size(), b.size());
}

TEST(ExecutorTest, GroupAggregate) {
  Relation g = GroupAggregate(
      People(), {"city"},
      {AggSpec{AggFn::kCount, "", "n"},
       AggSpec{AggFn::kAvg, "age", "avg_age"},
       AggSpec{AggFn::kMin, "age", "min_age"},
       AggSpec{AggFn::kMax, "age", "max_age"},
       AggSpec{AggFn::kSum, "age", "sum_age"}});
  ASSERT_EQ(g.size(), 3u);
  // Groups come out in first-seen order; sort to lima, oslo, rome.
  std::sort(g.rows.begin(), g.rows.end());
  EXPECT_EQ(g.rows[0][0].AsString(), "lima");
  EXPECT_EQ(g.rows[1][0].AsString(), "oslo");
  const Row& oslo = g.rows[1];
  EXPECT_EQ(oslo[1].AsInt(), 2);
  EXPECT_DOUBLE_EQ(oslo[2].AsDouble(), 35.0);
  EXPECT_DOUBLE_EQ(oslo[3].AsDouble(), 20.0);
  EXPECT_DOUBLE_EQ(oslo[4].AsDouble(), 50.0);
  EXPECT_DOUBLE_EQ(oslo[5].AsDouble(), 70.0);
}

TEST(ExecutorTest, GlobalAggregateOnEmptyInput) {
  Relation empty;
  empty.columns = {"x"};
  Relation g = GroupAggregate(empty, {},
                              {AggSpec{AggFn::kCount, "", "n"},
                               AggSpec{AggFn::kSum, "x", "s"}});
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g.rows[0][0].AsInt(), 0);
  EXPECT_TRUE(g.rows[0][1].is_null());
}

TEST(ExecutorTest, CountSkipsNullsWhenColumnGiven) {
  Relation r;
  r.columns = {"x"};
  r.rows = {{Value(1)}, {Value::Null()}, {Value(3)}};
  Relation g = GroupAggregate(r, {},
                              {AggSpec{AggFn::kCount, "", "star"},
                               AggSpec{AggFn::kCount, "x", "nonnull"}});
  EXPECT_EQ(g.rows[0][0].AsInt(), 3);
  EXPECT_EQ(g.rows[0][1].AsInt(), 2);
}

TEST(ExecutorTest, Distinct) {
  Relation doubled = People();
  const std::vector<Row> once = doubled.rows;
  doubled.rows.insert(doubled.rows.end(), once.begin(), once.end());
  ASSERT_EQ(doubled.size(), 10u);
  Relation d = Distinct(doubled);
  EXPECT_EQ(d.columns, doubled.columns);
  // First occurrences survive, in input order.
  EXPECT_EQ(d.rows, once);
}

TEST(ExecutorTest, ComposedQuery) {
  // SELECT country, count(*) FROM people JOIN cities ON city=name
  // WHERE age >= 30 GROUP BY country ORDER BY country
  Relation q = GroupAggregate(
      Filter(HashJoin(People(), "city", Cities(), "name"),
             [](const Row& r) { return r[2].AsInt() >= 30; }),
      {"country"}, {AggSpec{AggFn::kCount, "", "n"}});
  std::sort(q.rows.begin(), q.rows.end());
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(q.rows[0][0].AsString(), "it");
  EXPECT_EQ(q.rows[0][1].AsInt(), 2);
  EXPECT_EQ(q.rows[1][0].AsString(), "no");
  EXPECT_EQ(q.rows[1][1].AsInt(), 1);
}

}  // namespace
}  // namespace colr::rel
