// Differential test: an independent, deliberately naive reference
// evaluator for single-table DVQs is compared against the production
// executor over the generated benchmark corpus. The reference
// implementation shares no code with exec::Execute beyond the AST and
// Value types.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "dataset/benchmark.h"
#include "dvq/parser.h"
#include "exec/executor.h"
#include "exec/reference_executor.h"
#include "exec/scalar.h"
#include "util/rng.h"

namespace gred {
namespace {

using storage::Value;

/// Naive reference: materialize -> filter -> bin -> group -> aggregate ->
/// order -> limit, all with straightforward O(n^2) scans and string keys.
class ReferenceEvaluator {
 public:
  ReferenceEvaluator(const dvq::Query& query,
                     const storage::DataTable& table)
      : query_(query), table_(table) {}

  /// Returns nullopt when the query uses features outside the reference
  /// scope (joins, subqueries) or references unknown columns.
  std::optional<std::vector<std::vector<Value>>> Run() {
    if (!query_.joins.empty()) return std::nullopt;
    std::vector<std::vector<Value>> rows;
    for (std::size_t r = 0; r < table_.num_rows(); ++r) {
      rows.push_back(table_.Row(r));
    }
    // Filter.
    if (query_.where.has_value()) {
      std::vector<std::vector<Value>> kept;
      for (const auto& row : rows) {
        std::optional<bool> pass = EvalCondition(*query_.where, row);
        if (!pass.has_value()) return std::nullopt;
        if (*pass) kept.push_back(row);
      }
      rows = std::move(kept);
    }
    // Bin.
    if (query_.bin.has_value()) {
      std::optional<std::size_t> slot = Slot(query_.bin->col.column);
      if (!slot.has_value()) return std::nullopt;
      for (auto& row : rows) {
        row[*slot] = exec::BinValue(row[*slot], query_.bin->unit);
      }
    }
    // Compute output columns (plus a hidden order column when needed).
    std::vector<dvq::SelectExpr> exprs = query_.select;
    std::optional<std::size_t> order_slot;
    if (query_.order_by.has_value()) {
      for (std::size_t i = 0; i < exprs.size(); ++i) {
        if (exprs[i].EqualsIgnoreCase(query_.order_by->expr)) order_slot = i;
      }
      if (!order_slot.has_value()) {
        exprs.push_back(query_.order_by->expr);
        order_slot = exprs.size() - 1;
      }
    }
    bool has_agg = false;
    for (const auto& e : exprs) {
      if (e.agg != dvq::AggFunc::kNone) has_agg = true;
    }
    std::vector<std::vector<Value>> out;
    if (has_agg || !query_.group_by.empty()) {
      std::vector<std::string> keys;
      std::vector<std::size_t> key_slots;
      std::vector<dvq::ColumnRef> group = query_.group_by;
      if (group.empty()) {
        for (const auto& e : query_.select) {
          if (e.agg == dvq::AggFunc::kNone) group.push_back(e.col);
        }
      }
      for (const auto& g : group) {
        std::optional<std::size_t> slot = Slot(g.column);
        if (!slot.has_value()) return std::nullopt;
        key_slots.push_back(*slot);
      }
      // Group rows by string key, first-seen order.
      std::vector<std::string> group_order;
      std::map<std::string, std::vector<std::vector<Value>>> groups;
      for (const auto& row : rows) {
        std::string key;
        for (std::size_t slot : key_slots) {
          key += row[slot].ToString();
          key += '\x1f';
        }
        if (groups.find(key) == groups.end()) group_order.push_back(key);
        groups[key].push_back(row);
      }
      for (const std::string& key : group_order) {
        const auto& members = groups[key];
        std::vector<Value> out_row;
        for (const auto& e : exprs) {
          std::optional<Value> v = EvalExpr(e, members);
          if (!v.has_value()) return std::nullopt;
          out_row.push_back(*v);
        }
        out.push_back(std::move(out_row));
      }
    } else {
      for (const auto& row : rows) {
        std::vector<Value> out_row;
        for (const auto& e : exprs) {
          std::optional<std::size_t> slot = Slot(e.col.column);
          if (!slot.has_value()) return std::nullopt;
          out_row.push_back(row[*slot]);
        }
        out.push_back(std::move(out_row));
      }
    }
    // Order (stable).
    if (query_.order_by.has_value()) {
      const std::size_t slot = *order_slot;
      const bool desc = query_.order_by->descending;
      std::stable_sort(out.begin(), out.end(),
                       [slot, desc](const auto& a, const auto& b) {
                         int cmp = a[slot].Compare(b[slot]);
                         return desc ? cmp > 0 : cmp < 0;
                       });
    }
    // Limit + strip hidden column.
    if (query_.limit.has_value() &&
        out.size() > static_cast<std::size_t>(*query_.limit)) {
      out.resize(static_cast<std::size_t>(*query_.limit));
    }
    for (auto& row : out) row.resize(query_.select.size());
    return out;
  }

 private:
  std::optional<std::size_t> Slot(const std::string& column) const {
    return table_.def().ColumnIndex(column);
  }

  std::optional<bool> EvalCondition(const dvq::Condition& cond,
                                    const std::vector<Value>& row) const {
    // OR of AND-groups (SQL precedence).
    bool group = true;
    bool any = false;
    for (std::size_t i = 0; i < cond.predicates.size(); ++i) {
      std::optional<bool> value = EvalPredicate(cond.predicates[i], row);
      if (!value.has_value()) return std::nullopt;
      group = group && *value;
      bool group_ends = i + 1 >= cond.predicates.size() ||
                        cond.connectors[i] == dvq::LogicalOp::kOr;
      if (group_ends) {
        any = any || group;
        group = true;
      }
    }
    return any;
  }

  std::optional<bool> EvalPredicate(const dvq::Predicate& pred,
                                    const std::vector<Value>& row) const {
    if (pred.subquery != nullptr) return std::nullopt;  // out of scope
    std::optional<std::size_t> slot = Slot(pred.col.column);
    if (!slot.has_value()) return std::nullopt;
    const Value& lhs = row[*slot];
    auto lit_value = [](const dvq::Literal& lit) {
      switch (lit.kind) {
        case dvq::Literal::Kind::kInt:
          return Value::Int(lit.int_value);
        case dvq::Literal::Kind::kReal:
          return Value::Real(lit.real_value);
        case dvq::Literal::Kind::kString:
          return Value::Text(lit.string_value);
      }
      return Value::Null();
    };
    switch (pred.op) {
      case dvq::CompareOp::kIsNull:
        return lhs.is_null();
      case dvq::CompareOp::kIsNotNull:
        return !lhs.is_null();
      case dvq::CompareOp::kLike:
        return !lhs.is_null() &&
               exec::LikeMatch(pred.literal->string_value, lhs.ToString());
      case dvq::CompareOp::kNotLike:
        return !lhs.is_null() &&
               !exec::LikeMatch(pred.literal->string_value, lhs.ToString());
      case dvq::CompareOp::kIn:
      case dvq::CompareOp::kNotIn: {
        bool found = false;
        for (const auto& lit : pred.in_list) {
          if (lhs == lit_value(lit)) found = true;
        }
        return pred.op == dvq::CompareOp::kIn ? found : !found;
      }
      default:
        break;
    }
    if (lhs.is_null()) return false;
    Value rhs = lit_value(*pred.literal);
    int cmp = lhs.Compare(rhs);
    switch (pred.op) {
      case dvq::CompareOp::kEq:
        return cmp == 0;
      case dvq::CompareOp::kNe:
        return cmp != 0;
      case dvq::CompareOp::kLt:
        return cmp < 0;
      case dvq::CompareOp::kLe:
        return cmp <= 0;
      case dvq::CompareOp::kGt:
        return cmp > 0;
      case dvq::CompareOp::kGe:
        return cmp >= 0;
      default:
        return std::nullopt;
    }
  }

  std::optional<Value> EvalExpr(
      const dvq::SelectExpr& expr,
      const std::vector<std::vector<Value>>& members) const {
    if (expr.agg == dvq::AggFunc::kNone) {
      std::optional<std::size_t> slot = Slot(expr.col.column);
      if (!slot.has_value()) return std::nullopt;
      return members.front()[*slot];
    }
    if (expr.col.column == "*") {
      if (expr.agg != dvq::AggFunc::kCount) return std::nullopt;
      return Value::Int(static_cast<std::int64_t>(members.size()));
    }
    std::optional<std::size_t> slot = Slot(expr.col.column);
    if (!slot.has_value()) return std::nullopt;
    std::vector<Value> values;
    std::vector<std::string> seen;
    for (const auto& row : members) {
      const Value& v = row[*slot];
      if (v.is_null()) continue;
      if (expr.distinct) {
        std::string key = v.ToString();
        if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
        seen.push_back(key);
      }
      values.push_back(v);
    }
    switch (expr.agg) {
      case dvq::AggFunc::kCount:
        return Value::Int(static_cast<std::int64_t>(values.size()));
      case dvq::AggFunc::kSum: {
        if (values.empty()) return Value::Null();
        double sum = 0.0;
        for (const Value& v : values) sum += v.AsDouble();
        return Value::Real(sum);
      }
      case dvq::AggFunc::kAvg: {
        if (values.empty()) return Value::Null();
        double sum = 0.0;
        for (const Value& v : values) sum += v.AsDouble();
        return Value::Real(sum / static_cast<double>(values.size()));
      }
      case dvq::AggFunc::kMin: {
        if (values.empty()) return Value::Null();
        Value best = values[0];
        for (const Value& v : values) {
          if (v < best) best = v;
        }
        return best;
      }
      case dvq::AggFunc::kMax: {
        if (values.empty()) return Value::Null();
        Value best = values[0];
        for (const Value& v : values) {
          if (best < v) best = v;
        }
        return best;
      }
      default:
        return std::nullopt;
    }
  }

  const dvq::Query& query_;
  const storage::DataTable& table_;
};

class ExecutorDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ExecutorDifferential, AgreesWithReferenceOnCorpusTargets) {
  dataset::BenchmarkOptions options;
  options.seed = 9000 + static_cast<std::uint64_t>(GetParam());
  options.train_size = 60;
  options.test_size = 120;
  dataset::BenchmarkSuite suite = dataset::BuildBenchmarkSuite(options);
  std::size_t compared = 0;
  for (const dataset::Example& ex : suite.test_clean) {
    const dataset::GeneratedDatabase* db = suite.FindCleanDb(ex.db_name);
    if (!ex.dvq.query.joins.empty()) continue;
    bool has_subquery = false;
    if (ex.dvq.query.where.has_value()) {
      for (const auto& p : ex.dvq.query.where->predicates) {
        if (p.subquery != nullptr) has_subquery = true;
      }
    }
    if (has_subquery) continue;
    const storage::DataTable* table =
        db->data.FindTable(ex.dvq.query.from_table);
    ASSERT_NE(table, nullptr);
    ReferenceEvaluator reference(ex.dvq.query, *table);
    std::optional<std::vector<std::vector<Value>>> expected =
        reference.Run();
    if (!expected.has_value()) continue;
    Result<exec::ResultSet> actual = exec::Execute(ex.dvq, db->data);
    ASSERT_TRUE(actual.ok()) << ex.DvqText();
    ASSERT_EQ(actual.value().num_rows(), expected->size()) << ex.DvqText();
    for (std::size_t r = 0; r < expected->size(); ++r) {
      for (std::size_t c = 0; c < ex.dvq.query.select.size(); ++c) {
        const Value& a = actual.value().rows[r][c];
        const Value& b = (*expected)[r][c];
        if (a.is_numeric() && b.is_numeric()) {
          EXPECT_NEAR(a.AsDouble(), b.AsDouble(), 1e-9) << ex.DvqText();
        } else {
          EXPECT_EQ(a.Compare(b), 0) << ex.DvqText();
        }
      }
    }
    ++compared;
  }
  EXPECT_GT(compared, 40u);  // the corpus must exercise the comparison
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorDifferential,
                         ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------------
// Reference vs production differential harness. The row-at-a-time
// reference (exec/reference_executor.h) is the executable semantics; the
// vectorized production executor must be bit-identical on results and —
// absent scalar subqueries, which it hoists — charge-identical on guards.
// ---------------------------------------------------------------------------

bool HasSubquery(const dvq::Query& q) {
  if (!q.where.has_value()) return false;
  for (const auto& p : q.where->predicates) {
    if (p.subquery != nullptr) return true;
  }
  return false;
}

/// Runs one query through both executors and asserts agreement: identical
/// ok-ness, identical error code/message on failure, identical result
/// fingerprint on success. When `check_usage` is set, also runs both
/// under a fresh unlimited guard and asserts identical charge totals
/// (valid only without subqueries).
void ExpectEnginesAgree(const dvq::Query& q, const storage::DatabaseData& db,
                        bool check_usage, const std::string& label) {
  exec::ExecOptions row;
  exec::ExecOptions col;
  Result<exec::ResultSet> a = exec::reference::Execute(q, db, row);
  Result<exec::ResultSet> b = exec::Execute(q, db, col);
  ASSERT_EQ(a.ok(), b.ok()) << label << "\nrow: " << a.status().ToString()
                            << "\ncolumnar: " << b.status().ToString();
  if (!a.ok()) {
    EXPECT_EQ(a.status().code(), b.status().code()) << label;
    EXPECT_EQ(a.status().message(), b.status().message()) << label;
    return;
  }
  EXPECT_EQ(exec::reference::Fingerprint(a.value()),
              exec::reference::Fingerprint(b.value())) << label;
  if (!check_usage) return;
  ExecContext row_ctx;
  ExecContext col_ctx;
  row.context = &row_ctx;
  col.context = &col_ctx;
  ASSERT_TRUE(exec::reference::Execute(q, db, row).ok()) << label;
  ASSERT_TRUE(exec::Execute(q, db, col).ok()) << label;
  EXPECT_EQ(row_ctx.usage().ticks, col_ctx.usage().ticks) << label;
  EXPECT_EQ(row_ctx.usage().rows, col_ctx.usage().rows) << label;
  EXPECT_EQ(row_ctx.usage().bytes, col_ctx.usage().bytes) << label;
  EXPECT_EQ(row_ctx.usage().join_rows, col_ctx.usage().join_rows) << label;
}

/// Trip parity under tight budgets: per-chunk charging must exhaust the
/// same budgets as per-row charging. Without subqueries both executors
/// charge identical totals, so trip/no-trip must match exactly; with a
/// subquery the columnar executor (which hoists it) charges at most as
/// much, so its trip implies the reference's.
void ExpectTripParity(const dvq::Query& q, const storage::DatabaseData& db,
                      const GuardLimits& limits, const std::string& label) {
  ExecContext row_ctx(limits);
  ExecContext col_ctx(limits);
  exec::ExecOptions row;
  row.context = &row_ctx;
  exec::ExecOptions col;
  col.context = &col_ctx;
  Result<exec::ResultSet> a = exec::reference::Execute(q, db, row);
  Result<exec::ResultSet> b = exec::Execute(q, db, col);
  if (HasSubquery(q)) {
    if (!b.ok()) {
      EXPECT_FALSE(a.ok()) << label;
    }
  } else {
    ASSERT_EQ(a.ok(), b.ok())
        << label << "\nrow: " << a.status().ToString()
        << "\ncolumnar: " << b.status().ToString();
  }
  if (!a.ok() && !b.ok()) {
    EXPECT_EQ(a.status().code(), b.status().code()) << label;
  }
  if (a.ok() && b.ok()) {
    EXPECT_EQ(exec::reference::Fingerprint(a.value()),
              exec::reference::Fingerprint(b.value())) << label;
  }
}

class EngineDifferential : public ::testing::TestWithParam<int> {};

TEST_P(EngineDifferential, ColumnarMatchesRowEngineOnEvalSuite) {
  dataset::BenchmarkOptions options;
  options.seed = 9100 + static_cast<std::uint64_t>(GetParam());
  options.train_size = 40;
  options.test_size = 120;
  dataset::BenchmarkSuite suite = dataset::BuildBenchmarkSuite(options);
  struct SetRef {
    const std::vector<dataset::Example>* examples;
    bool rob;
  };
  const SetRef sets[] = {{&suite.test_clean, false},
                         {&suite.test_nlq, false},
                         {&suite.test_schema, true},
                         {&suite.test_both, true}};
  std::size_t compared = 0;
  for (const SetRef& set : sets) {
    for (const dataset::Example& ex : *set.examples) {
      const dataset::GeneratedDatabase* db =
          set.rob ? suite.FindRobDb(ex.db_name)
                  : suite.FindCleanDb(ex.db_name);
      ASSERT_NE(db, nullptr) << ex.db_name;
      const bool check_usage = !HasSubquery(ex.dvq.query);
      ExpectEnginesAgree(ex.dvq.query, db->data, check_usage, ex.DvqText());
      ++compared;
    }
  }
  EXPECT_GT(compared, 200u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDifferential,
                         ::testing::Values(1, 2, 3));

// Named case: duplicate and dangling join keys. child.pid draws from
// 0..10 against parent ids 1..8, so most parents match several children
// and some children (pid 0, 9, 10) match none. A plain join, a grouped
// join and a grouped, ordered join with the keys swapped must agree on
// results and charges, and trip identically under a join budget.
class JoinEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(JoinEquivalence, StrategiesAgree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  schema::Database db_schema("d");
  schema::TableDef parent("parent", {});
  parent.AddColumn({"id", schema::ColumnType::kInt, true});
  parent.AddColumn({"label", schema::ColumnType::kText, false});
  db_schema.AddTable(std::move(parent));
  schema::TableDef child("child", {});
  child.AddColumn({"cid", schema::ColumnType::kInt, true});
  child.AddColumn({"pid", schema::ColumnType::kInt, false});
  child.AddColumn({"v", schema::ColumnType::kInt, false});
  db_schema.AddTable(std::move(child));
  storage::DatabaseData db(std::move(db_schema));
  storage::DataTable* p = db.FindTable("parent");
  for (int i = 1; i <= 8; ++i) {
    ASSERT_TRUE(
        p->AppendRow({Value::Int(i),
                      Value::Text(std::string(1, static_cast<char>('a' + i)))})
            .ok());
  }
  storage::DataTable* c = db.FindTable("child");
  for (int i = 1; i <= 60; ++i) {
    ASSERT_TRUE(c->AppendRow({Value::Int(i), Value::Int(rng.NextInt(0, 10)),
                              Value::Int(rng.NextInt(0, 100))})
                    .ok());
  }
  const std::vector<std::string> queries = {
      "SELECT label , v FROM child JOIN parent ON child.pid = parent.id",
      "SELECT label , SUM(v) FROM child JOIN parent ON child.pid = "
      "parent.id GROUP BY label",
      "SELECT label , COUNT(label) FROM child JOIN parent ON parent.id = "
      "child.pid GROUP BY label ORDER BY COUNT(label) DESC",
  };
  for (const std::string& text : queries) {
    Result<dvq::Query> q = dvq::ParseQuery(text);
    ASSERT_TRUE(q.ok()) << text;
    ExpectEnginesAgree(q.value(), db, /*check_usage=*/true, text);
    GuardLimits limits;
    limits.join_budget = static_cast<std::uint64_t>(rng.NextInt(1, 60));
    ExpectTripParity(q.value(), db, limits, text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinEquivalence, ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// Randomized differential: structured random queries over hand-built
// tables that concentrate the awkward cases — NULL group keys, empty
// inputs, BIN + GROUP BY, duplicate join keys, ambiguous column names —
// run through both executors, with and without guards.
// ---------------------------------------------------------------------------

dvq::ColumnRef Col(const std::string& table, const std::string& column) {
  dvq::ColumnRef ref;
  ref.table = table;
  ref.column = column;
  return ref;
}

dvq::SelectExpr Sel(dvq::AggFunc agg, bool distinct, dvq::ColumnRef col) {
  dvq::SelectExpr e;
  e.agg = agg;
  e.distinct = distinct;
  e.col = std::move(col);
  return e;
}

/// Tables: t(g, x, d, s) with NULLs in every column and a small `g`
/// domain (group collisions, NULL group keys); u(k, w) with duplicate
/// keys (join fan-out). `rows == 0` exercises empty-input aggregates.
storage::DatabaseData MakeRandomDb(Rng* rng, std::size_t rows) {
  schema::Database db_schema("rnd");
  schema::TableDef t("t", {});
  t.AddColumn({"g", schema::ColumnType::kInt, false});
  t.AddColumn({"x", schema::ColumnType::kInt, false});
  t.AddColumn({"d", schema::ColumnType::kDate, false});
  t.AddColumn({"s", schema::ColumnType::kText, false});
  db_schema.AddTable(std::move(t));
  schema::TableDef u("u", {});
  u.AddColumn({"k", schema::ColumnType::kInt, false});
  u.AddColumn({"w", schema::ColumnType::kInt, false});
  db_schema.AddTable(std::move(u));
  storage::DatabaseData db(std::move(db_schema));
  const std::vector<std::string> dates = {"2020-01-15", "2020-02-20",
                                          "2021-01-05", "2021-07-04",
                                          "not a date"};
  const std::vector<std::string> texts = {"aa", "ab", "b", ""};
  storage::DataTable* tt = db.FindTable("t");
  for (std::size_t r = 0; r < rows; ++r) {
    Value g = rng->NextBool(0.2) ? Value::Null()
                                 : Value::Int(rng->NextInt(0, 4));
    Value x = rng->NextBool(0.1) ? Value::Null()
                                 : Value::Int(rng->NextInt(-5, 9));
    Value d = rng->NextBool(0.15) ? Value::Null()
                                  : Value::Text(rng->Pick(dates));
    Value s = rng->NextBool(0.1) ? Value::Null()
                                 : Value::Text(rng->Pick(texts));
    EXPECT_TRUE(tt->AppendRow({g, x, d, s}).ok());
  }
  storage::DataTable* tu = db.FindTable("u");
  const std::size_t u_rows = rows == 0 ? 3 : rows / 2 + 1;
  for (std::size_t r = 0; r < u_rows; ++r) {
    Value k = rng->NextBool(0.15) ? Value::Null()
                                  : Value::Int(rng->NextInt(0, 5));
    EXPECT_TRUE(
        tu->AppendRow({k, Value::Int(rng->NextInt(0, 100))}).ok());
  }
  return db;
}

dvq::Query MakeRandomQuery(Rng* rng) {
  dvq::Query q;
  q.from_table = "t";
  const bool join = rng->NextBool(0.3);
  if (join) {
    dvq::JoinClause j;
    j.table = "u";
    j.left = Col("t", "g");
    j.right = Col("u", "k");
    q.joins.push_back(j);
  }
  std::vector<std::string> plain_cols = {"g", "x", "d", "s"};
  if (join) {
    plain_cols.push_back("w");
    plain_cols.push_back("k");
  }
  const std::vector<dvq::AggFunc> aggs = {
      dvq::AggFunc::kCount, dvq::AggFunc::kSum, dvq::AggFunc::kAvg,
      dvq::AggFunc::kMin, dvq::AggFunc::kMax};
  const std::string x_col = rng->Pick(plain_cols);
  q.select.push_back(Sel(dvq::AggFunc::kNone, false, Col("", x_col)));
  if (rng->NextBool(0.7)) {
    const dvq::AggFunc agg = rng->Pick(aggs);
    const bool star = agg == dvq::AggFunc::kCount && rng->NextBool(0.3);
    q.select.push_back(Sel(agg, rng->NextBool(0.15),
                           star ? Col("", "*")
                                : Col("", rng->Pick(plain_cols))));
  } else {
    q.select.push_back(
        Sel(dvq::AggFunc::kNone, false, Col("", rng->Pick(plain_cols))));
  }
  if (rng->NextBool(0.5)) {
    dvq::Condition cond;
    const std::size_t n_preds = static_cast<std::size_t>(rng->NextInt(1, 3));
    for (std::size_t i = 0; i < n_preds; ++i) {
      dvq::Predicate p;
      p.col = Col("", rng->Pick(plain_cols));
      switch (rng->NextInt(0, 6)) {
        case 0:
          p.op = dvq::CompareOp::kEq;
          p.literal = dvq::Literal::Int(rng->NextInt(0, 5));
          break;
        case 1:
          p.op = rng->NextBool(0.5) ? dvq::CompareOp::kLt
                                    : dvq::CompareOp::kGe;
          p.literal = dvq::Literal::Int(rng->NextInt(-2, 8));
          break;
        case 2:
          p.op = rng->NextBool(0.5) ? dvq::CompareOp::kNe
                                    : dvq::CompareOp::kLe;
          p.literal = rng->NextBool(0.5)
                          ? dvq::Literal::Str(rng->NextBool(0.5) ? "ab" : "b")
                          : dvq::Literal::Real(2.5);
          break;
        case 3:
          p.op = rng->NextBool(0.5) ? dvq::CompareOp::kLike
                                    : dvq::CompareOp::kNotLike;
          p.literal = dvq::Literal::Str(rng->NextBool(0.5) ? "%a%" : "2_2%");
          break;
        case 4:
          p.op = rng->NextBool(0.5) ? dvq::CompareOp::kIsNull
                                    : dvq::CompareOp::kIsNotNull;
          break;
        case 5: {
          p.op = rng->NextBool(0.5) ? dvq::CompareOp::kIn
                                    : dvq::CompareOp::kNotIn;
          const std::size_t n_in = static_cast<std::size_t>(rng->NextInt(1, 3));
          for (std::size_t v = 0; v < n_in; ++v) {
            p.in_list.push_back(dvq::Literal::Int(rng->NextInt(0, 5)));
          }
          break;
        }
        default: {
          // Scalar subquery RHS: the columnar engine hoists these.
          p.op = dvq::CompareOp::kEq;
          auto sub = std::make_shared<dvq::Query>();
          sub->from_table = "u";
          sub->select.push_back(
              Sel(dvq::AggFunc::kNone, false, Col("", "k")));
          sub->select.push_back(
              Sel(dvq::AggFunc::kNone, false, Col("", "w")));
          sub->limit = 1;
          p.subquery = std::move(sub);
          break;
        }
      }
      cond.predicates.push_back(std::move(p));
      if (i + 1 < n_preds) {
        cond.connectors.push_back(rng->NextBool(0.5) ? dvq::LogicalOp::kAnd
                                                     : dvq::LogicalOp::kOr);
      }
    }
    q.where = std::move(cond);
  }
  if (rng->NextBool(0.25)) {
    dvq::BinClause bin;
    bin.col = Col("", rng->NextBool(0.8) ? "d" : "g");
    bin.unit = static_cast<dvq::BinUnit>(rng->NextInt(0, 3));
    q.bin = bin;
    if (rng->NextBool(0.5)) q.group_by.push_back(bin.col);
  } else if (rng->NextBool(0.3)) {
    // Explicit GROUP BY, sometimes on a column that is not selected.
    q.group_by.push_back(
        Col("", rng->NextBool(0.6) ? x_col : rng->Pick(plain_cols)));
  }
  if (rng->NextBool(0.5)) {
    dvq::OrderByClause order;
    if (rng->NextBool(0.6)) {
      order.expr = rng->Pick(q.select);
    } else if (rng->NextBool(0.5)) {
      order.expr =
          Sel(dvq::AggFunc::kNone, false, Col("", rng->Pick(plain_cols)));
    } else {
      order.expr = Sel(rng->Pick(aggs), false, Col("", "x"));
    }
    order.descending = rng->NextBool(0.5);
    q.order_by = order;
  }
  if (rng->NextBool(0.35)) q.limit = rng->NextInt(0, 5);
  return q;
}

class RandomizedEngineDifferential : public ::testing::TestWithParam<int> {};

TEST_P(RandomizedEngineDifferential, EnginesAgreeOnRandomQueries) {
  Rng rng(7700 + 131 * static_cast<std::uint64_t>(GetParam()));
  // Four databases per seed, including an empty one (aggregates over
  // empty input must agree, and WHERE/ORDER resolution must stay lazy
  // in exactly the same places).
  const std::size_t sizes[] = {0, 1, 7, 60};
  std::vector<storage::DatabaseData> dbs;
  for (std::size_t size : sizes) dbs.push_back(MakeRandomDb(&rng, size));
  for (int iter = 0; iter < 250; ++iter) {
    const storage::DatabaseData& db = dbs[rng.NextIndex(dbs.size())];
    const dvq::Query q = MakeRandomQuery(&rng);
    const std::string label = "iter " + std::to_string(iter) + ": " +
                              q.ToString();
    ExpectEnginesAgree(q, db, !HasSubquery(q), label);
    // Tight random budgets: per-chunk charging must trip identically.
    GuardLimits limits;
    if (rng.NextBool(0.5)) {
      limits.deadline_ticks = static_cast<std::uint64_t>(rng.NextInt(1, 200));
    }
    if (rng.NextBool(0.5)) {
      limits.row_budget = static_cast<std::uint64_t>(rng.NextInt(1, 100));
    }
    if (rng.NextBool(0.5)) {
      limits.memory_budget =
          static_cast<std::uint64_t>(rng.NextInt(1, 2000));
    }
    if (rng.NextBool(0.5)) {
      limits.join_budget = static_cast<std::uint64_t>(rng.NextInt(1, 50));
    }
    ExpectTripParity(q, db, limits, label);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedEngineDifferential,
                         ::testing::Range(0, 4));

}  // namespace
}  // namespace gred
