// Unit and property tests for the DVQ executor and scalar functions.

#include <gtest/gtest.h>

#include <utility>

#include "dvq/parser.h"
#include "exec/executor.h"
#include "exec/reference_executor.h"
#include "exec/scalar.h"

namespace gred::exec {
namespace {

using storage::DatabaseData;
using storage::Value;

dvq::Query Q(const std::string& text) {
  Result<dvq::Query> q = dvq::ParseQuery(text);
  EXPECT_TRUE(q.ok()) << text << " -> " << q.status().ToString();
  return q.value_or(dvq::Query{});
}

/// Fixture database: employees + departments with known rows.
DatabaseData MakeDb() {
  schema::Database db_schema("hr");
  schema::TableDef departments("departments", {});
  departments.AddColumn({"department_id", schema::ColumnType::kInt, true});
  departments.AddColumn({"department_name", schema::ColumnType::kText,
                         false});
  db_schema.AddTable(std::move(departments));
  schema::TableDef employees("employees", {});
  employees.AddColumn({"employee_id", schema::ColumnType::kInt, true});
  employees.AddColumn({"name", schema::ColumnType::kText, false});
  employees.AddColumn({"salary", schema::ColumnType::kInt, false});
  employees.AddColumn({"hire_date", schema::ColumnType::kDate, false});
  employees.AddColumn({"department_id", schema::ColumnType::kInt, false});
  db_schema.AddTable(std::move(employees));

  DatabaseData db(std::move(db_schema));
  storage::DataTable* dep = db.FindTable("departments");
  EXPECT_TRUE(dep->AppendRow({Value::Int(1), Value::Text("Sales")}).ok());
  EXPECT_TRUE(dep->AppendRow({Value::Int(2), Value::Text("Finance")}).ok());
  storage::DataTable* emp = db.FindTable("employees");
  auto add = [&](int id, const char* name, int salary, const char* date,
                 int dept) {
    EXPECT_TRUE(emp->AppendRow({Value::Int(id), Value::Text(name),
                                Value::Int(salary), Value::Text(date),
                                Value::Int(dept)})
                    .ok());
  };
  add(1, "ann", 1000, "2020-01-15", 1);
  add(2, "bob", 2000, "2020-02-20", 1);
  add(3, "cho", 3000, "2021-01-05", 2);
  add(4, "dee", 4000, "2021-07-04", 2);
  add(5, "eve", 5000, "2021-07-20", 3);  // dangling department
  return db;
}

TEST(Executor, Projection) {
  DatabaseData db = MakeDb();
  Result<ResultSet> rs = Execute(Q("SELECT name , salary FROM employees"),
                                 db);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().num_rows(), 5u);
  EXPECT_EQ(rs.value().column_names,
            (std::vector<std::string>{"name", "salary"}));
  EXPECT_EQ(rs.value().rows[0][0].text_value(), "ann");
}

TEST(Executor, UnknownTableFails) {
  DatabaseData db = MakeDb();
  EXPECT_FALSE(Execute(Q("SELECT a , b FROM nothere"), db).ok());
}

TEST(Executor, UnknownColumnFails) {
  DatabaseData db = MakeDb();
  // This is the paper's failure mode: a hallucinated column name means
  // no chart can be produced.
  EXPECT_FALSE(Execute(Q("SELECT wage , name FROM employees"), db).ok());
}

TEST(Executor, FilterComparisons) {
  DatabaseData db = MakeDb();
  auto count = [&](const std::string& where) {
    Result<ResultSet> rs =
        Execute(Q("SELECT name , salary FROM employees WHERE " + where), db);
    EXPECT_TRUE(rs.ok()) << where;
    return rs.ok() ? rs.value().num_rows() : 0u;
  };
  EXPECT_EQ(count("salary > 3000"), 2u);
  EXPECT_EQ(count("salary >= 3000"), 3u);
  EXPECT_EQ(count("salary < 2000"), 1u);
  EXPECT_EQ(count("salary <= 2000"), 2u);
  EXPECT_EQ(count("salary != 3000"), 4u);
  EXPECT_EQ(count("name = \"bob\""), 1u);
}

TEST(Executor, FilterPrecedenceAndBeforeOr) {
  DatabaseData db = MakeDb();
  // a OR b AND c  ==  a OR (b AND c)
  Result<ResultSet> rs = Execute(
      Q("SELECT name , salary FROM employees WHERE name = \"ann\" OR "
        "salary > 2500 AND salary < 3500"),
      db);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().num_rows(), 2u);  // ann + cho
}

TEST(Executor, LikeAndIn) {
  DatabaseData db = MakeDb();
  Result<ResultSet> like = Execute(
      Q("SELECT name , salary FROM employees WHERE name LIKE \"%o%\""), db);
  ASSERT_TRUE(like.ok());
  EXPECT_EQ(like.value().num_rows(), 2u);  // bob, cho
  Result<ResultSet> in = Execute(
      Q("SELECT name , salary FROM employees WHERE salary IN (1000 , "
        "4000)"),
      db);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(in.value().num_rows(), 2u);
  Result<ResultSet> not_in = Execute(
      Q("SELECT name , salary FROM employees WHERE name NOT IN (\"ann\")"),
      db);
  ASSERT_TRUE(not_in.ok());
  EXPECT_EQ(not_in.value().num_rows(), 4u);
}

TEST(Executor, GroupByWithAggregates) {
  DatabaseData db = MakeDb();
  Result<ResultSet> rs = Execute(
      Q("SELECT department_id , COUNT(department_id) FROM employees GROUP "
        "BY department_id"),
      db);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().num_rows(), 3u);
  // Groups appear in first-seen order: dept 1 first with count 2.
  EXPECT_EQ(rs.value().rows[0][1].int_value(), 2);
}

TEST(Executor, AggregateFunctions) {
  DatabaseData db = MakeDb();
  auto single = [&](const std::string& expr) {
    Result<ResultSet> rs = Execute(
        Q("SELECT department_id , " + expr +
          " FROM employees WHERE department_id = 1 GROUP BY department_id"),
        db);
    EXPECT_TRUE(rs.ok());
    return rs.value().rows[0][1];
  };
  EXPECT_DOUBLE_EQ(single("SUM(salary)").AsDouble(), 3000.0);
  EXPECT_DOUBLE_EQ(single("AVG(salary)").AsDouble(), 1500.0);
  EXPECT_EQ(single("MIN(salary)").int_value(), 1000);
  EXPECT_EQ(single("MAX(salary)").int_value(), 2000);
  EXPECT_EQ(single("COUNT(*)").int_value(), 2);
}

TEST(Executor, CountDistinct) {
  DatabaseData db = MakeDb();
  Result<ResultSet> rs = Execute(
      Q("SELECT department_id , COUNT(DISTINCT department_id) FROM "
        "employees GROUP BY department_id"),
      db);
  ASSERT_TRUE(rs.ok());
  for (const auto& row : rs.value().rows) {
    EXPECT_EQ(row[1].int_value(), 1);
  }
}

TEST(Executor, ImplicitGroupingFromAggregate) {
  DatabaseData db = MakeDb();
  // Vega-Zero style: no GROUP BY, but an aggregate implies grouping by
  // the non-aggregated select column.
  Result<ResultSet> rs = Execute(
      Q("SELECT department_id , SUM(salary) FROM employees"), db);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().num_rows(), 3u);
}

TEST(Executor, OrderByColumnAndDirection) {
  DatabaseData db = MakeDb();
  Result<ResultSet> asc = Execute(
      Q("SELECT name , salary FROM employees ORDER BY salary ASC"), db);
  ASSERT_TRUE(asc.ok());
  EXPECT_EQ(asc.value().rows.front()[1].int_value(), 1000);
  Result<ResultSet> desc = Execute(
      Q("SELECT name , salary FROM employees ORDER BY salary DESC"), db);
  ASSERT_TRUE(desc.ok());
  EXPECT_EQ(desc.value().rows.front()[1].int_value(), 5000);
}

TEST(Executor, OrderByHiddenAggregate) {
  DatabaseData db = MakeDb();
  // ORDER BY references an aggregate not in the select list.
  Result<ResultSet> rs = Execute(
      Q("SELECT department_id , MIN(salary) FROM employees GROUP BY "
        "department_id ORDER BY MAX(salary) DESC"),
      db);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().num_columns(), 2u);  // hidden column stripped
  EXPECT_EQ(rs.value().rows.front()[0].int_value(), 3);  // dept of eve
}

TEST(Executor, Limit) {
  DatabaseData db = MakeDb();
  Result<ResultSet> rs = Execute(
      Q("SELECT name , salary FROM employees ORDER BY salary DESC LIMIT 2"),
      db);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().num_rows(), 2u);
}

TEST(Executor, BinByYearAndMonth) {
  DatabaseData db = MakeDb();
  Result<ResultSet> year = Execute(
      Q("SELECT hire_date , COUNT(hire_date) FROM employees BIN hire_date "
        "BY YEAR"),
      db);
  ASSERT_TRUE(year.ok());
  EXPECT_EQ(year.value().num_rows(), 2u);  // 2020, 2021
  Result<ResultSet> month = Execute(
      Q("SELECT hire_date , COUNT(hire_date) FROM employees BIN hire_date "
        "BY MONTH"),
      db);
  ASSERT_TRUE(month.ok());
  EXPECT_EQ(month.value().num_rows(), 4u);  // 2020-01/02, 2021-01/07
}

TEST(Executor, BinByWeekday) {
  DatabaseData db = MakeDb();
  Result<ResultSet> rs = Execute(
      Q("SELECT hire_date , COUNT(hire_date) FROM employees BIN hire_date "
        "BY WEEKDAY"),
      db);
  ASSERT_TRUE(rs.ok());
  for (const auto& row : rs.value().rows) {
    Date d;
    EXPECT_FALSE(ParseDate(row[0].text_value(), &d));  // weekday names
  }
}

TEST(Executor, JoinProducesMatchedRowsOnly) {
  DatabaseData db = MakeDb();
  Result<ResultSet> rs = Execute(
      Q("SELECT department_name , salary FROM employees JOIN departments "
        "ON employees.department_id = departments.department_id"),
      db);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().num_rows(), 4u);  // eve's department dangles
}

TEST(Executor, JoinWithAliasesAndAggregation) {
  DatabaseData db = MakeDb();
  Result<ResultSet> rs = Execute(
      Q("SELECT T2.department_name , AVG(T1.salary) FROM employees AS T1 "
        "JOIN departments AS T2 ON T1.department_id = T2.department_id "
        "GROUP BY T2.department_name"),
      db);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().num_rows(), 2u);
  EXPECT_DOUBLE_EQ(rs.value().rows[0][1].AsDouble(), 1500.0);  // Sales
}

TEST(Executor, ScalarSubquery) {
  DatabaseData db = MakeDb();
  Result<ResultSet> rs = Execute(
      Q("SELECT name , salary FROM employees WHERE department_id = "
        "(SELECT department_id FROM departments WHERE department_name = "
        "\"Finance\")"),
      db);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().num_rows(), 2u);
}

TEST(Executor, EmptySubqueryYieldsNoRows) {
  DatabaseData db = MakeDb();
  Result<ResultSet> rs = Execute(
      Q("SELECT name , salary FROM employees WHERE department_id = "
        "(SELECT department_id FROM departments WHERE department_name = "
        "\"Nowhere\")"),
      db);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().num_rows(), 0u);
}

TEST(Executor, NullSemanticsInPredicates) {
  schema::Database db_schema("d");
  schema::TableDef t("t", {});
  t.AddColumn({"x", schema::ColumnType::kInt, false});
  t.AddColumn({"y", schema::ColumnType::kInt, false});
  db_schema.AddTable(std::move(t));
  DatabaseData db(std::move(db_schema));
  storage::DataTable* table = db.FindTable("t");
  ASSERT_TRUE(table->AppendRow({Value::Int(1), Value::Null()}).ok());
  ASSERT_TRUE(table->AppendRow({Value::Int(2), Value::Int(5)}).ok());
  Result<ResultSet> not_null =
      Execute(Q("SELECT x , y FROM t WHERE y IS NOT NULL"), db);
  ASSERT_TRUE(not_null.ok());
  EXPECT_EQ(not_null.value().num_rows(), 1u);
  // NULL never satisfies a comparison (three-valued logic).
  Result<ResultSet> cmp = Execute(Q("SELECT x , y FROM t WHERE y != 99"),
                                  db);
  ASSERT_TRUE(cmp.ok());
  EXPECT_EQ(cmp.value().num_rows(), 1u);
}

/// Exact ResultSet equality: same columns, same rows, same order, and
/// cell-for-cell identical values (kind included).
void ExpectSameResult(const ResultSet& a, const ResultSet& b,
                      const std::string& label) {
  EXPECT_EQ(reference::Fingerprint(a), reference::Fingerprint(b)) << label;
}

using ExecuteFn = Result<ResultSet> (*)(const dvq::Query&,
                                        const DatabaseData&,
                                        const ExecOptions&);

/// The production executor and its row-at-a-time reference: the
/// regressions below must hold for both.
constexpr ExecuteFn kExecutors[] = {&Execute, &reference::Execute};

/// Degenerate hash: every value collides with every other value. Any
/// query that stays correct under this must be re-checking actual key
/// values after each hash match.
std::uint64_t ConstantHash(const storage::Value&) { return 42; }

TEST(Executor, HashCollisionsNeverJoinUnrelatedRows) {
  DatabaseData db = MakeDb();
  const dvq::Query join = Q(
      "SELECT department_name , salary FROM employees JOIN departments "
      "ON employees.department_id = departments.department_id");
  for (ExecuteFn execute : kExecutors) {
    ExecOptions colliding;
    colliding.value_hash = &ConstantHash;
    Result<ResultSet> want = execute(join, db, {});
    Result<ResultSet> got = execute(join, db, colliding);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().num_rows(), 4u);  // eve's department dangles
    ExpectSameResult(want.value(), got.value(), "colliding join");
  }
}

TEST(Executor, HashCollisionsNeverMergeUnrelatedGroups) {
  DatabaseData db = MakeDb();
  const dvq::Query group = Q(
      "SELECT department_id , COUNT(*) FROM employees GROUP BY "
      "department_id");
  for (ExecuteFn execute : kExecutors) {
    ExecOptions colliding;
    colliding.value_hash = &ConstantHash;
    Result<ResultSet> want = execute(group, db, {});
    Result<ResultSet> got = execute(group, db, colliding);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().num_rows(), 3u);
    ExpectSameResult(want.value(), got.value(), "colliding group-by");
  }
}

/// Two-table fixture where both tables have a column `v` with different
/// values, so binding ORDER BY to the wrong table's `v` changes the row
/// order.
DatabaseData MakeAmbiguousDb() {
  schema::Database db_schema("d");
  schema::TableDef a("a", {});
  a.AddColumn({"k", schema::ColumnType::kInt, true});
  a.AddColumn({"v", schema::ColumnType::kInt, false});
  db_schema.AddTable(std::move(a));
  schema::TableDef b("b", {});
  b.AddColumn({"k", schema::ColumnType::kInt, true});
  b.AddColumn({"v", schema::ColumnType::kInt, false});
  db_schema.AddTable(std::move(b));
  DatabaseData db(std::move(db_schema));
  storage::DataTable* ta = db.FindTable("a");
  EXPECT_TRUE(ta->AppendRow({Value::Int(1), Value::Int(100)}).ok());
  EXPECT_TRUE(ta->AppendRow({Value::Int(2), Value::Int(200)}).ok());
  storage::DataTable* tb = db.FindTable("b");
  EXPECT_TRUE(tb->AppendRow({Value::Int(1), Value::Int(7)}).ok());
  EXPECT_TRUE(tb->AppendRow({Value::Int(2), Value::Int(3)}).ok());
  return db;
}

TEST(Executor, OrderByBareNameBindsToSelectedColumn) {
  // Regression: `ORDER BY v` must bind to the *selected* b.v (SQL's
  // output-column rule), not re-resolve to the first same-named slot
  // (a.v). Sorting by a.v instead yields k order 1,2; by b.v it is 2,1.
  DatabaseData db = MakeAmbiguousDb();
  const dvq::Query q = Q(
      "SELECT a.k , b.v FROM a JOIN b ON a.k = b.k ORDER BY v ASC");
  for (ExecuteFn execute : kExecutors) {
    Result<ResultSet> rs = execute(q, db, {});
    ASSERT_TRUE(rs.ok());
    ASSERT_EQ(rs.value().num_rows(), 2u);
    EXPECT_EQ(rs.value().num_columns(), 2u);
    EXPECT_EQ(rs.value().rows[0][0].int_value(), 2);  // b.v = 3
    EXPECT_EQ(rs.value().rows[1][0].int_value(), 1);  // b.v = 7
  }
}

TEST(Executor, OrderByQualifiedSpellingUnifiesWithSelect) {
  // `ORDER BY SUM(employees.salary)` and `ORDER BY SUM(salary)` denote
  // the same selected aggregate; neither may append a hidden duplicate
  // column. With unlimited guards, identical charges prove it: a hidden
  // column would widen every charged group row.
  DatabaseData db = MakeDb();
  const std::string base =
      "SELECT department_id , SUM(salary) FROM employees GROUP BY "
      "department_id ORDER BY ";
  for (ExecuteFn execute : kExecutors) {
    ExecContext plain_ctx;
    ExecContext qualified_ctx;
    ExecOptions plain;
    plain.context = &plain_ctx;
    ExecOptions qualified;
    qualified.context = &qualified_ctx;
    Result<ResultSet> a = execute(Q(base + "SUM(salary) DESC"), db, plain);
    Result<ResultSet> b =
        execute(Q(base + "SUM(employees.salary) DESC"), db, qualified);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectSameResult(a.value(), b.value(), "qualified order spelling");
    EXPECT_EQ(plain_ctx.usage().ticks, qualified_ctx.usage().ticks);
    EXPECT_EQ(plain_ctx.usage().rows, qualified_ctx.usage().rows);
    EXPECT_EQ(plain_ctx.usage().bytes, qualified_ctx.usage().bytes);
  }
}

TEST(Executor, OrderByTiesKeepInputOrder) {
  // std::stable_sort contract, pinned across both executors and standard
  // libraries: rows with equal keys stay in working-set order.
  DatabaseData db = MakeDb();
  const dvq::Query asc =
      Q("SELECT name , department_id FROM employees ORDER BY department_id "
        "ASC");
  const dvq::Query desc =
      Q("SELECT name , department_id FROM employees ORDER BY department_id "
        "DESC");
  const std::vector<std::string> want_asc = {"ann", "bob", "cho", "dee",
                                             "eve"};
  const std::vector<std::string> want_desc = {"eve", "cho", "dee", "ann",
                                              "bob"};
  for (ExecuteFn execute : kExecutors) {
    for (const auto& [query, want] :
         {std::pair{&asc, &want_asc}, std::pair{&desc, &want_desc}}) {
      Result<ResultSet> rs = execute(*query, db, {});
      ASSERT_TRUE(rs.ok());
      ASSERT_EQ(rs.value().num_rows(), want->size());
      for (std::size_t i = 0; i < want->size(); ++i) {
        EXPECT_EQ(rs.value().rows[i][0].text_value(), (*want)[i]);
      }
    }
  }
}

TEST(Scalar, LikeMatch) {
  EXPECT_TRUE(LikeMatch("%ab%", "drab day"));
  EXPECT_TRUE(LikeMatch("a_c", "abc"));
  EXPECT_FALSE(LikeMatch("a_c", "abbc"));
  EXPECT_TRUE(LikeMatch("%", ""));
  EXPECT_TRUE(LikeMatch("ABC", "abc"));  // case-insensitive
  EXPECT_FALSE(LikeMatch("abc%", "xabc"));
  EXPECT_TRUE(LikeMatch("%end", "the end"));
}

TEST(Scalar, LikeMatchPercentUnderscoreCombinations) {
  EXPECT_TRUE(LikeMatch("%_", "x"));
  EXPECT_FALSE(LikeMatch("%_", ""));
  EXPECT_TRUE(LikeMatch("_%", "xyz"));
  EXPECT_TRUE(LikeMatch("a%_c", "abc"));
  EXPECT_FALSE(LikeMatch("a%_c", "ac"));
  EXPECT_TRUE(LikeMatch("_%_", "ab"));
  EXPECT_FALSE(LikeMatch("_%_", "a"));
  EXPECT_TRUE(LikeMatch("%a_b%", "xxaybzz"));
  EXPECT_TRUE(LikeMatch("%%", "anything"));
  EXPECT_TRUE(LikeMatch("%%", ""));
}

TEST(Scalar, LikeMatchBacktracking) {
  // The first '%' must re-expand past the first "ab" to reach the last.
  EXPECT_TRUE(LikeMatch("%ab%ab", "abxab"));
  EXPECT_TRUE(LikeMatch("%ab%ab", "ababab"));
  EXPECT_FALSE(LikeMatch("%ab%ab", "abab x"));
  EXPECT_TRUE(LikeMatch("%ab%ab%", "xxabyyabzz"));
  EXPECT_FALSE(LikeMatch("%ab%ab%", "xxabyy"));
  EXPECT_TRUE(LikeMatch("a%a%a", "aaa"));
  EXPECT_FALSE(LikeMatch("a%a%a", "aa"));
}

TEST(Scalar, LikeMatchCaseInsensitivity) {
  EXPECT_TRUE(LikeMatch("%AbC%", "xxabcyy"));
  EXPECT_TRUE(LikeMatch("heLLo", "HEllO"));
  EXPECT_TRUE(LikeMatch("_BC", "abc"));
}

TEST(Scalar, LikeMatchEmptyPatternAndText) {
  EXPECT_TRUE(LikeMatch("", ""));
  EXPECT_FALSE(LikeMatch("", "x"));
  EXPECT_FALSE(LikeMatch("a", ""));
  EXPECT_FALSE(LikeMatch("_", ""));
  EXPECT_TRUE(LikeMatch("%", "anything"));
}

TEST(Scalar, ParseDate) {
  Date d;
  ASSERT_TRUE(ParseDate("2020-03-15", &d));
  EXPECT_EQ(d.year, 2020);
  EXPECT_EQ(d.month, 3);
  EXPECT_EQ(d.day, 15);
  ASSERT_TRUE(ParseDate("1999", &d));
  EXPECT_EQ(d.year, 1999);
  EXPECT_FALSE(ParseDate("2020-13-01", &d));
  EXPECT_FALSE(ParseDate("not a date", &d));
}

TEST(Scalar, ParseDateRejectsTrailingGarbage) {
  Date d;
  EXPECT_FALSE(ParseDate("2020-01-02xyz", &d));
  EXPECT_FALSE(ParseDate("2020-01-02 12:00:00", &d));
  EXPECT_FALSE(ParseDate("2020-01-023", &d));
  EXPECT_FALSE(ParseDate("1999x", &d));
  EXPECT_FALSE(ParseDate("19999", &d));
  EXPECT_FALSE(ParseDate("2020-01-0", &d));
  // Exact-length forms still parse.
  EXPECT_TRUE(ParseDate("2020-01-02", &d));
  EXPECT_TRUE(ParseDate("1999", &d));
}

TEST(Scalar, WeekdayComputation) {
  Date d;
  ASSERT_TRUE(ParseDate("2024-01-01", &d));
  EXPECT_STREQ(WeekdayName(d.Weekday()), "Monday");
  ASSERT_TRUE(ParseDate("2000-01-01", &d));
  EXPECT_STREQ(WeekdayName(d.Weekday()), "Saturday");
}

TEST(Scalar, BinValueUnits) {
  Value date = Value::Text("2021-07-04");
  EXPECT_EQ(BinValue(date, dvq::BinUnit::kYear).text_value(), "2021");
  EXPECT_EQ(BinValue(date, dvq::BinUnit::kMonth).text_value(), "2021-07");
  EXPECT_EQ(BinValue(date, dvq::BinUnit::kDay).text_value(), "2021-07-04");
  EXPECT_EQ(BinValue(date, dvq::BinUnit::kWeekday).text_value(), "Sunday");
  // Non-dates pass through.
  EXPECT_EQ(BinValue(Value::Int(1999), dvq::BinUnit::kYear).int_value(),
            1999);
  EXPECT_EQ(BinValue(Value::Text("x"), dvq::BinUnit::kMonth).text_value(),
            "x");
  EXPECT_TRUE(BinValue(Value::Null(), dvq::BinUnit::kYear).is_null());
}

}  // namespace
}  // namespace gred::exec
