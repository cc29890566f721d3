// Executor engine sweep: the vectorized columnar engine vs the
// row-at-a-time reference engine on large synthetic tables, with
// resource guards armed (generous budgets — the point is that per-chunk
// charging is on the hot path, not that anything trips).
//
// Workloads cover the operators the columnar rebuild touches: full-table
// scan + projection, selective filters (including the dense-int fast
// path), hash GROUP BY aggregation, and a hash join feeding an
// aggregate. Every workload runs through both engines; the results must
// be bit-identical (cell kinds and payloads, reals by bit pattern) —
// asserted here, not printed. Reported per workload: best-of-reps wall
// time per engine and the speedup ratio.
//
// Environment: GRED_EXEC_ROWS (synthetic fact-table rows, default
// 1000000), GRED_EXEC_REPS (timed repetitions per engine, best-of,
// default 5). Usage: exec_sweep [REPORT_JSON] — with an argument, also
// writes the machine-readable report, with the derived min_speedup and
// all_identical verdicts (scripts/bench_report --exec writes
// BENCH_exec.json this way).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "bench/common.h"
#include "exec/executor.h"
#include "schema/schema.h"
#include "storage/table.h"
#include "util/env.h"
#include "util/json.h"
#include "util/resource_guard.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table_printer.h"

namespace {

using gred::Rng;
using gred::storage::Value;

/// Type-exact fingerprint (kind tag + payload, reals by bit pattern):
/// any engine divergence changes it. Mirrors the differential test's.
std::string Fingerprint(const gred::exec::ResultSet& rs) {
  std::string out;
  for (const std::string& name : rs.column_names) {
    out += name;
    out += '\x1f';
  }
  out += '\n';
  for (const auto& row : rs.rows) {
    for (const Value& v : row) {
      if (v.is_null()) {
        out += 'N';
      } else if (v.is_int()) {
        out += 'I';
        out += std::to_string(v.int_value());
      } else if (v.is_real()) {
        std::uint64_t bits = 0;
        const double d = v.real_value();
        static_assert(sizeof(bits) == sizeof(d));
        std::memcpy(&bits, &d, sizeof(bits));
        out += 'R';
        out += std::to_string(bits);
      } else {
        out += 'T';
        out += v.text_value();
      }
      out += '\x1f';
    }
    out += '\n';
  }
  return out;
}

gred::dvq::ColumnRef Col(const std::string& table,
                         const std::string& column) {
  gred::dvq::ColumnRef ref;
  ref.table = table;
  ref.column = column;
  return ref;
}

gred::dvq::SelectExpr Sel(gred::dvq::AggFunc agg,
                          gred::dvq::ColumnRef col) {
  gred::dvq::SelectExpr e;
  e.agg = agg;
  e.col = std::move(col);
  return e;
}

gred::dvq::Predicate Cmp(const std::string& column,
                         gred::dvq::CompareOp op, std::int64_t k) {
  gred::dvq::Predicate p;
  p.col = Col("", column);
  p.op = op;
  p.literal = gred::dvq::Literal::Int(k);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gred;

  const char* report_path = bench::ReportPathArg(argc, argv);
  const std::size_t num_rows = EnvSizeOrDie("GRED_EXEC_ROWS", 1000000);
  const std::size_t reps = EnvSizeOrDie("GRED_EXEC_REPS", 5);

  // Synthetic star pair: fact table t (dense NULL-free ints g/x/v plus
  // a low-cardinality text s) and a unique-key dimension u, so the hash
  // join has fan-out 1 and the fact scan dominates.
  Rng rng(0x9ebd1e5);
  schema::Database db_schema("exec_sweep");
  {
    schema::TableDef t("t", {});
    t.AddColumn({"g", schema::ColumnType::kInt, false});
    t.AddColumn({"x", schema::ColumnType::kInt, false});
    t.AddColumn({"v", schema::ColumnType::kInt, false});
    t.AddColumn({"s", schema::ColumnType::kText, false});
    db_schema.AddTable(std::move(t));
    schema::TableDef u("u", {});
    u.AddColumn({"k", schema::ColumnType::kInt, false});
    u.AddColumn({"w", schema::ColumnType::kInt, false});
    db_schema.AddTable(std::move(u));
  }
  storage::DatabaseData db(std::move(db_schema));
  const std::int64_t kDim = 1000;
  {
    storage::DataTable* t = db.FindTable("t");
    const std::vector<std::string> labels = {"alpha", "beta", "gamma",
                                             "delta", "epsilon"};
    for (std::size_t r = 0; r < num_rows; ++r) {
      (void)t->AppendRow({Value::Int(rng.NextInt(0, kDim - 1)),
                          Value::Int(rng.NextInt(0, 99)),
                          Value::Int(rng.NextInt(-1000, 1000)),
                          Value::Text(labels[rng.NextIndex(labels.size())])});
    }
    storage::DataTable* u = db.FindTable("u");
    for (std::int64_t k = 0; k < kDim; ++k) {
      (void)u->AppendRow({Value::Int(k), Value::Int(rng.NextInt(0, 500))});
    }
  }

  // Workloads: one per rebuilt operator family.
  struct Workload {
    std::string name;
    dvq::Query query;
  };
  std::vector<Workload> workloads;
  {
    // Full scan + projection, result capped so timing measures the
    // scan/projection pipeline rather than ResultSet copying.
    dvq::Query q;
    q.from_table = "t";
    q.select = {Sel(dvq::AggFunc::kNone, Col("", "x")),
                Sel(dvq::AggFunc::kNone, Col("", "s"))};
    q.limit = 16;
    workloads.push_back({"scan_project", std::move(q)});
  }
  {
    // Selective dense-int filter (~10% pass), plain projection out.
    dvq::Query q;
    q.from_table = "t";
    q.select = {Sel(dvq::AggFunc::kNone, Col("", "x")),
                Sel(dvq::AggFunc::kNone, Col("", "v"))};
    dvq::Condition where;
    where.predicates = {Cmp("x", dvq::CompareOp::kGe, 90)};
    q.where = std::move(where);
    workloads.push_back({"filter_select", std::move(q)});
  }
  {
    // Filter + GROUP BY: bitmap filter into hash aggregation.
    dvq::Query q;
    q.from_table = "t";
    q.select = {Sel(dvq::AggFunc::kNone, Col("", "s")),
                Sel(dvq::AggFunc::kCount, Col("", "*"))};
    dvq::Condition where;
    where.predicates = {Cmp("x", dvq::CompareOp::kGt, 50)};
    q.where = std::move(where);
    workloads.push_back({"filter_group", std::move(q)});
  }
  {
    // Pure hash aggregation over the full table, 1000 groups.
    dvq::Query q;
    q.from_table = "t";
    q.select = {Sel(dvq::AggFunc::kNone, Col("", "g")),
                Sel(dvq::AggFunc::kAvg, Col("", "v"))};
    q.order_by = dvq::OrderByClause{
        Sel(dvq::AggFunc::kNone, Col("", "g")), false};
    workloads.push_back({"aggregate", std::move(q)});
  }
  {
    // Hash join (fan-out 1) feeding an aggregate.
    dvq::Query q;
    q.from_table = "t";
    dvq::JoinClause join;
    join.table = "u";
    join.left = Col("t", "g");
    join.right = Col("u", "k");
    q.joins.push_back(std::move(join));
    q.select = {Sel(dvq::AggFunc::kNone, Col("", "s")),
                Sel(dvq::AggFunc::kSum, Col("", "w"))};
    workloads.push_back({"join_group", std::move(q)});
  }

  // Guards armed with budgets far above what any workload charges:
  // every charge goes through the budget checks, nothing trips.
  GuardLimits limits;
  limits.deadline_ticks = 1ull << 60;
  limits.row_budget = 1ull << 60;
  limits.memory_budget = 1ull << 60;
  limits.join_budget = 1ull << 60;

  struct Point {
    std::string name;
    double row_ms = 0.0;
    double columnar_ms = 0.0;
    double speedup = 0.0;
    std::size_t result_rows = 0;
    bool identical = false;
  };
  std::vector<Point> points;
  bool all_identical = true;

  for (const Workload& workload : workloads) {
    auto time_engine = [&](exec::Engine engine) {
      double best_s = 0.0;
      std::string fingerprint;
      std::size_t result_rows = 0;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        ExecContext context(limits);
        exec::ExecOptions options;
        options.engine = engine;
        options.context = &context;
        const auto start = std::chrono::steady_clock::now();
        Result<exec::ResultSet> result =
            exec::Execute(workload.query, db, options);
        const double wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
        if (!result.ok()) {
          std::fprintf(stderr, "[bench] FAIL: %s: %s\n",
                       workload.name.c_str(),
                       result.status().ToString().c_str());
          std::exit(1);
        }
        if (rep == 0 || wall < best_s) best_s = wall;
        if (rep == 0) {
          fingerprint = Fingerprint(result.value());
          result_rows = result.value().rows.size();
        }
      }
      return std::make_tuple(best_s, fingerprint, result_rows);
    };

    auto [row_s, row_fp, row_rows] = time_engine(exec::Engine::kRowAtATime);
    auto [col_s, col_fp, col_rows] = time_engine(exec::Engine::kColumnar);

    Point point;
    point.name = workload.name;
    point.row_ms = row_s * 1e3;
    point.columnar_ms = col_s * 1e3;
    point.speedup = col_s > 0 ? row_s / col_s : 0.0;
    point.result_rows = col_rows;
    point.identical = row_fp == col_fp;
    if (!point.identical) {
      std::fprintf(stderr,
                   "[bench] FAIL: %s: engines diverged (%zu vs %zu rows)\n",
                   workload.name.c_str(), row_rows, col_rows);
    }
    all_identical = all_identical && point.identical;
    points.push_back(std::move(point));
  }

  TablePrinter table(
      {"Workload", "Row (ms)", "Columnar (ms)", "Speedup", "Rows", "Result"});
  for (const Point& point : points) {
    table.AddRow({point.name, strings::Format("%.1f", point.row_ms),
                  strings::Format("%.1f", point.columnar_ms),
                  strings::Format("%.2fx", point.speedup),
                  std::to_string(point.result_rows),
                  point.identical ? "identical" : "DIVERGED"});
  }
  std::printf("Executor sweep: %zu-row fact table, %zu-row dimension, "
              "best of %zu reps, guards armed\n",
              num_rows, static_cast<std::size_t>(kDim), reps);
  std::printf("%s", table.ToString().c_str());
  std::printf("columnar results identical to row engine: %s\n",
              all_identical ? "ok" : "FAILED");

  if (report_path != nullptr) {
    json::Value report = json::Value::Object();
    report.Set("schema", json::Value::Str("gredvis-bench-exec/1"));
    report.Set("rows", json::Value::Int(static_cast<std::int64_t>(num_rows)));
    report.Set("reps", json::Value::Int(static_cast<std::int64_t>(reps)));
    report.Set("guards_enabled", json::Value::Bool(true));
    json::Value sweep = json::Value::Array();
    for (const Point& point : points) {
      json::Value entry = json::Value::Object();
      entry.Set("workload", json::Value::Str(point.name));
      entry.Set("row_ms", json::Value::Number(point.row_ms));
      entry.Set("columnar_ms", json::Value::Number(point.columnar_ms));
      entry.Set("speedup", json::Value::Number(point.speedup));
      entry.Set("result_rows",
                json::Value::Int(static_cast<std::int64_t>(point.result_rows)));
      entry.Set("identical", json::Value::Bool(point.identical));
      sweep.Append(std::move(entry));
    }
    report.Set("workloads", std::move(sweep));
    double min_speedup = points.empty() ? 0.0 : points.front().speedup;
    for (const Point& point : points) {
      min_speedup = std::min(min_speedup, point.speedup);
    }
    report.Set("min_speedup", json::Value::Number(min_speedup));
    report.Set("all_identical", json::Value::Bool(all_identical));
    if (!bench::WriteReport(std::move(report), "exec_sweep", report_path)) {
      return 1;
    }
  }

  return all_identical ? 0 : 1;
}
