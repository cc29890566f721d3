// Tests for the resource-guard layer (util/resource_guard.h): the
// ExecContext accounting/cancellation contract, and budget exhaustion in
// the executor — cross joins and high-cardinality group-bys must stop
// with a clean kResourceExhausted, leaving storage untouched and leaking
// no partial results.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "dvq/parser.h"
#include "exec/executor.h"
#include "exec/reference_executor.h"
#include "util/resource_guard.h"

namespace gred {
namespace {

using exec::ExecOptions;
using exec::Execute;
using exec::ResultSet;
using storage::DatabaseData;
using storage::Value;

TEST(ExecContext, UnlimitedChargesAlwaysSucceed) {
  ExecContext ctx;  // default limits: everything unlimited
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(ctx.ChargeTicks(1'000'000).ok());
    EXPECT_TRUE(ctx.ChargeRows(1'000'000, 64).ok());
    EXPECT_TRUE(ctx.ChargeJoinRows(1'000'000).ok());
  }
  EXPECT_FALSE(ctx.exhausted());
}

TEST(ExecContext, DeadlineTripsAtExactTick) {
  GuardLimits limits;
  limits.deadline_ticks = 10;
  ExecContext ctx(limits);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(ctx.ChargeTicks(1).ok());
  Status over = ctx.ChargeTicks(1);
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(over.IsResourceExhausted());
  EXPECT_TRUE(ctx.exhausted());
}

TEST(ExecContext, ExhaustionIsSticky) {
  GuardLimits limits;
  limits.row_budget = 1;
  ExecContext ctx(limits);
  EXPECT_TRUE(ctx.ChargeRows(1, 1).ok());
  EXPECT_FALSE(ctx.ChargeRows(1, 1).ok());
  // A tripped context fails every later charge, even within other limits.
  EXPECT_EQ(ctx.ChargeTicks(1).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.ChargeJoinRows(1).code(), StatusCode::kResourceExhausted);
}

TEST(ExecContext, MemoryBudgetUsesAccountedCellModel) {
  GuardLimits limits;
  limits.memory_budget = 10 * kAccountedBytesPerCell;
  ExecContext ctx(limits);
  EXPECT_TRUE(ctx.ChargeRows(1, 10).ok());   // exactly at the limit
  EXPECT_FALSE(ctx.ChargeRows(1, 1).ok());   // one cell over
  EXPECT_TRUE(ctx.usage().exhausted);
}

TEST(ExecContext, JoinBudgetIsIndependentOfRowBudget) {
  GuardLimits limits;
  limits.join_budget = 5;
  ExecContext ctx(limits);
  EXPECT_TRUE(ctx.ChargeRows(100, 4).ok());  // rows unlimited
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ctx.ChargeJoinRows(1).ok());
  EXPECT_EQ(ctx.ChargeJoinRows(1).code(), StatusCode::kResourceExhausted);
}

TEST(ExecContext, CancellationWinsOverBudgets) {
  ExecContext ctx;  // unlimited
  EXPECT_TRUE(ctx.ChargeTicks(1).ok());
  ctx.RequestCancel();
  Status s = ctx.ChargeTicks(1);
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_TRUE(ctx.cancel_requested());
  EXPECT_FALSE(ctx.exhausted());  // cancelled, not exhausted
}

TEST(ExecContext, CancellationFromAnotherThreadStopsCharges) {
  ExecContext ctx;
  std::thread canceller([&ctx] { ctx.RequestCancel(); });
  canceller.join();
  EXPECT_EQ(ctx.ChargeRows(1, 1).code(), StatusCode::kCancelled);
}

TEST(ExecContext, UsageCountersAreExact) {
  GuardLimits limits;
  limits.deadline_ticks = 1000;
  ExecContext ctx(limits);
  ASSERT_TRUE(ctx.ChargeTicks(7).ok());
  ASSERT_TRUE(ctx.ChargeRows(3, 2).ok());
  ASSERT_TRUE(ctx.ChargeJoinRows(5).ok());
  ExecContext::Usage u = ctx.usage();
  EXPECT_EQ(u.ticks, 7u);
  EXPECT_EQ(u.rows, 3u);
  EXPECT_EQ(u.bytes, 3u * 2u * kAccountedBytesPerCell);
  EXPECT_EQ(u.join_rows, 5u);
  EXPECT_FALSE(u.exhausted);
  EXPECT_FALSE(u.cancelled);
}

TEST(ExecContext, ConcurrentChargesTripExactlyOnceAtTheLimit) {
  GuardLimits limits;
  limits.deadline_ticks = 1000;
  ExecContext ctx(limits);
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&ctx, &failures] {
      for (int i = 0; i < 500; ++i) {
        if (!ctx.ChargeTicks(1).ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  // 2000 ticks offered against a 1000-tick deadline: the context must
  // have tripped, and once latched the gate stops accounting, so the
  // recorded total stays near the limit instead of drifting to 2000.
  EXPECT_TRUE(ctx.exhausted());
  EXPECT_GE(ctx.usage().ticks, 1000u);
  EXPECT_LT(ctx.usage().ticks, 2000u);
  EXPECT_GE(failures.load(), 1);
}

// --- Executor budget exhaustion -----------------------------------------

/// Two tables whose only join key takes one shared value, so joining
/// them produces a full cross product (n*m rows) — the pathological
/// many-to-many skew the join budget exists for.
DatabaseData MakeCrossJoinDb(std::size_t left_rows, std::size_t right_rows) {
  schema::Database db_schema("skew");
  schema::TableDef lhs("lhs", {});
  lhs.AddColumn({"k", schema::ColumnType::kInt, false});
  lhs.AddColumn({"a", schema::ColumnType::kInt, false});
  db_schema.AddTable(std::move(lhs));
  schema::TableDef rhs("rhs", {});
  rhs.AddColumn({"k", schema::ColumnType::kInt, false});
  rhs.AddColumn({"b", schema::ColumnType::kInt, false});
  db_schema.AddTable(std::move(rhs));
  DatabaseData db(std::move(db_schema));
  storage::DataTable* left = db.FindTable("lhs");
  for (std::size_t i = 0; i < left_rows; ++i) {
    EXPECT_TRUE(
        left->AppendRow({Value::Int(1), Value::Int(static_cast<int>(i))})
            .ok());
  }
  storage::DataTable* right = db.FindTable("rhs");
  for (std::size_t i = 0; i < right_rows; ++i) {
    EXPECT_TRUE(
        right->AppendRow({Value::Int(1), Value::Int(static_cast<int>(i))})
            .ok());
  }
  return db;
}

dvq::DVQ ParseDvq(const std::string& text) {
  Result<dvq::DVQ> parsed = dvq::Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.value_or(dvq::DVQ{});
}

// Both execution strategies must trip the same budgets cleanly: the
// production columnar executor and the row-at-a-time reference.
enum class Strategy { kColumnar, kReference };

class ExecutorExhaustion : public ::testing::TestWithParam<Strategy> {
 protected:
  Result<ResultSet> Run(const dvq::DVQ& dvq, const DatabaseData& db,
                        const ExecOptions& options = {}) const {
    return GetParam() == Strategy::kColumnar
               ? Execute(dvq, db, options)
               : exec::reference::Execute(dvq, db, options);
  }
};

TEST_P(ExecutorExhaustion, CrossJoinTripsJoinBudgetCleanly) {
  DatabaseData db = MakeCrossJoinDb(100, 100);  // 10,000 join rows
  dvq::DVQ dvq = ParseDvq(
      "Visualize BAR SELECT a , b FROM lhs JOIN rhs ON lhs.k = rhs.k");
  GuardLimits limits;
  limits.join_budget = 1000;
  ExecContext guard(limits);
  ExecOptions options;
  options.context = &guard;
  Result<ResultSet> rs = Run(dvq, db, options);
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(guard.exhausted());
  // No partial result escaped and storage is untouched.
  EXPECT_EQ(db.FindTable("lhs")->num_rows(), 100u);
  EXPECT_EQ(db.FindTable("rhs")->num_rows(), 100u);
  // Unguarded, the same query completes with the full cross product.
  Result<ResultSet> full = Run(dvq, db);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().num_rows(), 10'000u);
}

TEST_P(ExecutorExhaustion, CrossJoinTripsRowBudgetMidOperator) {
  DatabaseData db = MakeCrossJoinDb(50, 50);
  dvq::DVQ dvq = ParseDvq(
      "Visualize BAR SELECT a , b FROM lhs JOIN rhs ON lhs.k = rhs.k");
  GuardLimits limits;
  limits.row_budget = 600;  // base scans cost 100; the join busts it
  ExecContext guard(limits);
  ExecOptions options;
  options.context = &guard;
  Result<ResultSet> rs = Run(dvq, db, options);
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kResourceExhausted);
  // The trip happened mid-join: more than the scans, less than the full
  // product.
  ExecContext::Usage u = guard.usage();
  EXPECT_GT(u.rows, 100u);
  EXPECT_LT(u.rows, 2600u);
}

INSTANTIATE_TEST_SUITE_P(BothStrategies, ExecutorExhaustion,
                         ::testing::Values(Strategy::kColumnar,
                                           Strategy::kReference));

TEST(ExecutorGuard, HighCardinalityGroupByTripsMemoryBudget) {
  // Every row is its own group: group-by materializes one group per row.
  schema::Database db_schema("wide");
  schema::TableDef t("t", {});
  t.AddColumn({"id", schema::ColumnType::kInt, false});
  t.AddColumn({"v", schema::ColumnType::kInt, false});
  db_schema.AddTable(std::move(t));
  DatabaseData db(std::move(db_schema));
  storage::DataTable* table = db.FindTable("t");
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        table->AppendRow({Value::Int(i), Value::Int(i % 7)}).ok());
  }
  dvq::DVQ dvq = ParseDvq(
      "Visualize BAR SELECT id , COUNT(*) FROM t GROUP BY id");
  GuardLimits limits;
  // Enough for the scan (500 rows * 2 cells) but not for 500 more groups
  // of 3 accounted cells each.
  limits.memory_budget = (500 * 2 + 100 * 3) * kAccountedBytesPerCell;
  ExecContext guard(limits);
  ExecOptions options;
  options.context = &guard;
  Result<exec::ResultSet> rs = Execute(dvq, db, options);
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(table->num_rows(), 500u);  // storage untouched
  // Unguarded, the query succeeds with one group per row.
  Result<exec::ResultSet> full = Execute(dvq, db);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().num_rows(), 500u);
}

TEST(ExecutorGuard, DeadlineTripsLongScan) {
  DatabaseData db = MakeCrossJoinDb(200, 1);
  dvq::DVQ dvq = ParseDvq("Visualize BAR SELECT k , a FROM lhs");
  GuardLimits limits;
  limits.deadline_ticks = 50;
  ExecContext guard(limits);
  ExecOptions options;
  options.context = &guard;
  Result<ResultSet> rs = Execute(dvq, db, options);
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kResourceExhausted);
}

TEST(ExecutorGuard, CancellationAbortsExecution) {
  DatabaseData db = MakeCrossJoinDb(100, 100);
  dvq::DVQ dvq = ParseDvq(
      "Visualize BAR SELECT a , b FROM lhs JOIN rhs ON lhs.k = rhs.k");
  ExecContext guard;  // unlimited budgets, cancellation only
  guard.RequestCancel();
  ExecOptions options;
  options.context = &guard;
  Result<ResultSet> rs = Execute(dvq, db, options);
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kCancelled);
}

TEST(ExecutorGuard, SubqueryWorkCountsAgainstParentBudget) {
  DatabaseData db = MakeCrossJoinDb(100, 1);
  // The scalar subquery scans lhs again; with a deadline sized for one
  // scan only, the subquery's work must trip the shared context.
  dvq::DVQ dvq = ParseDvq(
      "Visualize BAR SELECT k , a FROM lhs WHERE a >= ( SELECT a FROM "
      "lhs )");
  GuardLimits limits;
  limits.deadline_ticks = 150;
  ExecContext guard(limits);
  ExecOptions options;
  options.context = &guard;
  Result<ResultSet> rs = Execute(dvq, db, options);
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kResourceExhausted);
  // With a deadline that covers both scans the query succeeds.
  ExecContext roomy_guard(GuardLimits{.deadline_ticks = 1'000'000});
  options.context = &roomy_guard;
  EXPECT_TRUE(Execute(dvq, db, options).ok());
}

TEST(ExecutorGuard, GuardedUnlimitedMatchesUnguarded) {
  DatabaseData db = MakeCrossJoinDb(20, 5);
  dvq::DVQ dvq = ParseDvq(
      "Visualize BAR SELECT a , COUNT(*) FROM lhs JOIN rhs ON lhs.k = "
      "rhs.k GROUP BY a ORDER BY a ASC");
  Result<ResultSet> unguarded = Execute(dvq, db);
  ExecContext guard;  // context present, no limits
  ExecOptions options;
  options.context = &guard;
  Result<ResultSet> guarded = Execute(dvq, db, options);
  ASSERT_TRUE(unguarded.ok());
  ASSERT_TRUE(guarded.ok());
  EXPECT_EQ(unguarded.value().column_names, guarded.value().column_names);
  EXPECT_EQ(unguarded.value().rows, guarded.value().rows);
}

}  // namespace
}  // namespace gred
