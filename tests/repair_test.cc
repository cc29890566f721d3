// Tests for the static repair engine (analysis::DvqRepairer) and the
// abstract cost estimator (analysis::CostEstimator), DESIGN.md §17.
//
// The repairer is exercised over a deterministic perturbation corpus:
// benchmark DVQs with names misspelled and structure damaged by a
// seeded Rng. The contract under test:
//   * termination at a fixpoint (bounded by RepairOptions::max_repairs),
//   * idempotence (repairing a repaired DVQ accepts zero steps),
//   * lint-clean-or-failure (success ⇔ no error-level diagnostics;
//     failure returns the input untouched),
//   * never-worsens (the returned DVQ never has more error-level
//     diagnostics than the input).
//
// The estimator's contract is the upper bound the serve cost gate
// leans on: for every corpus query, the estimate dominates the measured
// ExecContext charges of both the production executor and its
// row-at-a-time reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/cost_estimator.h"
#include "analysis/repairer.h"
#include "dataset/benchmark.h"
#include "dvq/parser.h"
#include "exec/executor.h"
#include "exec/reference_executor.h"
#include "util/rng.h"
#include "util/strings.h"

namespace gred {
namespace {

using dataset::BenchmarkSuite;
using dataset::Example;
using dataset::GeneratedDatabase;

/// One shared corpus (building it dominates the suite's runtime).
const BenchmarkSuite& Corpus() {
  static const BenchmarkSuite* const kSuite = [] {
    dataset::BenchmarkOptions options;
    options.num_databases = 10;
    options.train_size = 120;
    options.test_size = 120;
    return new BenchmarkSuite(dataset::BuildBenchmarkSuite(options));
  }();
  return *kSuite;
}

const GeneratedDatabase* FindDb(const std::vector<GeneratedDatabase>& dbs,
                                const std::string& name) {
  for (const GeneratedDatabase& db : dbs) {
    if (db.data.name() == name) return &db;
  }
  return nullptr;
}

/// Deterministically misspells an identifier: double a character, drop
/// the last one, or swap the first two — whatever keeps it non-empty.
std::string Misspell(const std::string& name, Rng* rng) {
  if (name.size() < 2 || name == "*") return name + "x";
  switch (rng->NextBounded(3)) {
    case 0: {
      std::size_t i = rng->NextIndex(name.size());
      return name.substr(0, i + 1) + name.substr(i);
    }
    case 1:
      return name.substr(0, name.size() - 1);
    default: {
      std::string swapped = name;
      std::swap(swapped[0], swapped[1]);
      return swapped == name ? name + "x" : swapped;
    }
  }
}

/// Pointers to every column name mentioned by the top-level query (the
/// corruption targets; subqueries are left alone so the corpus stays
/// mostly repairable).
std::vector<std::string*> ColumnNames(dvq::Query* q) {
  std::vector<std::string*> out;
  for (dvq::SelectExpr& e : q->select) {
    if (e.col.column != "*") out.push_back(&e.col.column);
  }
  for (dvq::ColumnRef& g : q->group_by) out.push_back(&g.column);
  if (q->order_by.has_value() && q->order_by->expr.col.column != "*") {
    out.push_back(&q->order_by->expr.col.column);
  }
  if (q->bin.has_value()) out.push_back(&q->bin->col.column);
  return out;
}

/// A deterministic lint-breaking corruption of `input`: misspell one
/// column name (and, sometimes, the FROM table). Returns nullopt when
/// there is nothing to corrupt.
std::optional<dvq::DVQ> Corrupt(const dvq::DVQ& input, Rng* rng) {
  dvq::DVQ broken = input;
  std::vector<std::string*> names = ColumnNames(&broken.query);
  if (names.empty()) return std::nullopt;
  std::string* victim = names[rng->NextIndex(names.size())];
  *victim = Misspell(*victim, rng);
  if (rng->NextBool(0.25)) {
    broken.query.from_table = Misspell(broken.query.from_table, rng);
  }
  return broken;
}

std::size_t CountErrors(const std::vector<analysis::Diagnostic>& diagnostics) {
  return static_cast<std::size_t>(std::count_if(
      diagnostics.begin(), diagnostics.end(), [](const analysis::Diagnostic& d) {
        return d.severity == analysis::Severity::kError;
      }));
}

bool HasSubquery(const dvq::Query& q) {
  if (!q.where.has_value()) return false;
  for (const dvq::Predicate& p : q.where->predicates) {
    if (p.subquery != nullptr) return true;
  }
  return false;
}

TEST(Repairer, PerturbationCorpusContract) {
  const BenchmarkSuite& suite = Corpus();
  Rng rng(0xf1f1u);
  std::size_t corrupted = 0;
  std::size_t repaired = 0;
  std::size_t failed = 0;
  for (const Example& example : suite.test_clean) {
    const GeneratedDatabase* db = FindDb(suite.databases, example.db_name);
    ASSERT_NE(db, nullptr) << example.db_name;
    std::optional<dvq::DVQ> broken = Corrupt(example.dvq, &rng);
    if (!broken.has_value()) continue;
    ++corrupted;

    analysis::DvqAnalyzer analyzer(&db->data.db_schema());
    const std::size_t errors_before =
        CountErrors(analyzer.Analyze(broken.value()));
    analysis::DvqRepairer repairer(&db->data.db_schema());
    analysis::RepairResult result = repairer.Repair(broken.value());

    // Lint-clean-or-failure, and `remaining` is truthful.
    std::vector<analysis::Diagnostic> recheck = analyzer.Analyze(result.dvq);
    EXPECT_EQ(result.success, !analysis::HasErrors(recheck)) << example.id;
    EXPECT_EQ(result.remaining.size(), recheck.size()) << example.id;

    // Never worsens: on failure the input comes back untouched, so the
    // error count is never above the input's.
    EXPECT_LE(CountErrors(recheck), errors_before) << example.id;
    if (!result.success) {
      ++failed;
      EXPECT_FALSE(result.changed) << example.id;
      EXPECT_EQ(result.dvq.ToString(), broken->ToString()) << example.id;
      continue;
    }
    if (result.changed) ++repaired;

    // Idempotence: a repaired DVQ needs no further repairs.
    analysis::RepairResult again = repairer.Repair(result.dvq);
    EXPECT_TRUE(again.success) << example.id;
    EXPECT_FALSE(again.changed) << example.id;
    EXPECT_TRUE(again.log.empty()) << example.id;
    EXPECT_EQ(again.dvq.ToString(), result.dvq.ToString()) << example.id;

    // Termination bound: the log never exceeds the budget.
    EXPECT_LE(result.log.size(), analysis::RepairOptions{}.max_repairs)
        << example.id;
  }
  // The corpus must actually exercise both outcomes, or the contract
  // checks above are vacuous.
  EXPECT_GE(corrupted, 100u);
  EXPECT_GT(repaired, corrupted / 2) << "repairer rescued too little";
  EXPECT_GT(failed, 0u) << "corpus has no unrepairable mutant";
}

TEST(Repairer, CleanInputIsIdentity) {
  const BenchmarkSuite& suite = Corpus();
  std::size_t checked = 0;
  for (const Example& example : suite.test_clean) {
    const GeneratedDatabase* db = FindDb(suite.databases, example.db_name);
    ASSERT_NE(db, nullptr);
    analysis::DvqAnalyzer analyzer(&db->data.db_schema());
    if (!analyzer.Analyze(example.dvq).empty()) continue;
    ++checked;
    analysis::DvqRepairer repairer(&db->data.db_schema());
    analysis::RepairResult result = repairer.Repair(example.dvq);
    EXPECT_TRUE(result.success) << example.id;
    EXPECT_FALSE(result.changed) << example.id;
    EXPECT_TRUE(result.log.empty()) << example.id;
  }
  EXPECT_GE(checked, 50u);
}

TEST(Repairer, StructuralDamageIsRepaired) {
  // Retargeting an aggregate query's GROUP BY to an unrelated column
  // leaves the bare select column ungrouped — error-level DVQ005 — and
  // the repairer completes the grouping.
  const BenchmarkSuite& suite = Corpus();
  std::size_t restored = 0;
  for (const Example& example : suite.test_clean) {
    const GeneratedDatabase* db = FindDb(suite.databases, example.db_name);
    ASSERT_NE(db, nullptr);
    analysis::DvqAnalyzer analyzer(&db->data.db_schema());
    if (!analyzer.Analyze(example.dvq).empty()) continue;
    const dvq::Query& q = example.dvq.query;
    if (q.group_by.size() != 1 || !q.joins.empty()) continue;
    const schema::TableDef* table =
        db->data.db_schema().FindTable(q.from_table);
    if (table == nullptr) continue;
    // A replacement grouping column that is no bare select column.
    std::string replacement;
    for (const schema::Column& c : table->columns()) {
      bool selected = std::any_of(
          q.select.begin(), q.select.end(), [&c](const dvq::SelectExpr& e) {
            return strings::EqualsIgnoreCase(e.col.column, c.name);
          });
      if (!selected) {
        replacement = c.name;
        break;
      }
    }
    if (replacement.empty()) continue;
    dvq::DVQ broken = example.dvq;
    broken.query.group_by[0].table.clear();
    broken.query.group_by[0].column = replacement;
    if (!analysis::HasErrors(analyzer.Analyze(broken))) continue;
    analysis::DvqRepairer repairer(&db->data.db_schema());
    analysis::RepairResult result = repairer.Repair(broken);
    EXPECT_TRUE(result.success) << example.id;
    if (result.success) {
      EXPECT_TRUE(result.changed) << example.id;
      ++restored;
    }
  }
  EXPECT_GT(restored, 0u);
}

TEST(Repairer, MaxRepairsBoundsAcceptedSteps) {
  const BenchmarkSuite& suite = Corpus();
  Rng rng(0xabcdu);
  analysis::RepairOptions options;
  options.max_repairs = 1;
  for (const Example& example : suite.test_clean) {
    const GeneratedDatabase* db = FindDb(suite.databases, example.db_name);
    ASSERT_NE(db, nullptr);
    std::optional<dvq::DVQ> broken = Corrupt(example.dvq, &rng);
    if (!broken.has_value()) continue;
    analysis::DvqRepairer repairer(&db->data.db_schema(), options);
    analysis::RepairResult result = repairer.Repair(broken.value());
    EXPECT_LE(result.log.size(), 1u) << example.id;
  }
}

// ---------------------------------------------------------------------------
// Cost estimator: provable upper bound on executor charges.

using ExecuteFn = Result<exec::ResultSet> (*)(const dvq::DVQ&,
                                              const storage::DatabaseData&,
                                              const exec::ExecOptions&);

/// Production executor first, then its reference (which re-executes
/// scalar subqueries per row, the estimator's worst case).
constexpr ExecuteFn kExecutors[] = {&exec::Execute, &exec::reference::Execute};

/// Runs `dvq` under an unlimited guard and asserts every charge stays
/// within `estimate`.
void ExpectChargesWithin(ExecuteFn execute, const dvq::DVQ& dvq,
                         const storage::DatabaseData& db,
                         const analysis::CostEstimate& estimate,
                         const std::string& label) {
  ExecContext guard;  // unlimited: measure, never trip
  exec::ExecOptions options;
  options.context = &guard;
  (void)execute(dvq, db, options);
  ExecContext::Usage used = guard.usage();
  EXPECT_LE(used.ticks, estimate.ticks) << label;
  EXPECT_LE(used.rows, estimate.rows) << label;
  EXPECT_LE(used.bytes, estimate.bytes) << label;
  EXPECT_LE(used.join_rows, estimate.join_rows) << label;
}

TEST(CostEstimator, UpperBoundsExecutorChargesOnCorpus) {
  const BenchmarkSuite& suite = Corpus();
  std::size_t checked = 0;
  for (const Example& example : suite.test_clean) {
    if (HasSubquery(example.dvq.query)) continue;
    const GeneratedDatabase* db = FindDb(suite.databases, example.db_name);
    ASSERT_NE(db, nullptr);
    analysis::CostEstimator estimator(&db->data);
    Result<analysis::CostEstimate> estimate = estimator.Estimate(example.dvq);
    // Corpus DVQs resolve against their own schema, so pricing must too.
    ASSERT_TRUE(estimate.ok())
        << example.id << ": " << estimate.status().ToString();
    ++checked;
    for (ExecuteFn execute : kExecutors) {
      ExpectChargesWithin(execute, example.dvq, db->data, estimate.value(),
                          example.id);
    }
  }
  EXPECT_GE(checked, 100u);
}

TEST(CostEstimator, SubqueryChargesAreCovered) {
  // The reference re-executes a scalar subquery once per filtered row;
  // the estimate must absorb that worst case too.
  const BenchmarkSuite& suite = Corpus();
  std::size_t checked = 0;
  for (const Example& example : suite.test_clean) {
    if (!HasSubquery(example.dvq.query)) continue;
    const GeneratedDatabase* db = FindDb(suite.databases, example.db_name);
    ASSERT_NE(db, nullptr);
    analysis::CostEstimator estimator(&db->data);
    Result<analysis::CostEstimate> estimate = estimator.Estimate(example.dvq);
    if (!estimate.ok()) continue;
    ++checked;
    for (ExecuteFn execute : kExecutors) {
      ExpectChargesWithin(execute, example.dvq, db->data, estimate.value(),
                          example.id);
    }
  }
  // The corpus carries a handful of subquery examples; a generator
  // change that drops them all must not leave this test vacuous.
  EXPECT_GE(checked, 1u);
}

TEST(CostEstimator, JoinTicksAreExactForHashJoin) {
  // A bare join on a unique build key leaves nothing to over-approximate:
  // scan L, hash build R + probe L, project L matches. Pricing the join
  // at L*R would overshoot by 23 ticks here.
  schema::Database db_schema("pair");
  for (const char* name : {"lhs", "rhs"}) {
    schema::TableDef table(name, {});
    table.AddColumn({"k", schema::ColumnType::kInt, false});
    table.AddColumn({std::string(name) + "_v", schema::ColumnType::kInt,
                     false});
    db_schema.AddTable(std::move(table));
  }
  storage::DatabaseData db(std::move(db_schema));
  for (int i = 0; i < 7; ++i) {
    const auto row = [i](int k) {
      return std::vector<storage::Value>{storage::Value::Int(k),
                                         storage::Value::Int(i)};
    };
    ASSERT_TRUE(db.FindTable("lhs")->AppendRow(row(i % 5)).ok());
    if (i < 5) {
      ASSERT_TRUE(db.FindTable("rhs")->AppendRow(row(i)).ok());
    }
  }
  Result<dvq::DVQ> dvq = dvq::Parse(
      "Visualize BAR SELECT lhs_v , rhs_v FROM lhs JOIN rhs ON lhs.k = rhs.k");
  ASSERT_TRUE(dvq.ok()) << dvq.status().ToString();
  Result<analysis::CostEstimate> estimate =
      analysis::CostEstimator(&db).Estimate(dvq.value());
  ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
  ExecContext guard;
  exec::ExecOptions options;
  options.context = &guard;
  ASSERT_TRUE(exec::Execute(dvq.value(), db, options).ok());
  EXPECT_EQ(guard.usage().ticks, 7u + (5u + 7u) + 7u);
  EXPECT_EQ(estimate.value().ticks, guard.usage().ticks);
}

TEST(CostEstimator, ExceedsReportsTheTrippedBudget) {
  analysis::CostEstimate estimate;
  estimate.ticks = 100;
  estimate.rows = 5;
  estimate.bytes = 80;
  estimate.join_rows = 0;
  GuardLimits limits;
  EXPECT_FALSE(estimate.Exceeds(limits));  // unlimited: nothing trips
  limits.deadline_ticks = 99;
  EXPECT_TRUE(estimate.Exceeds(limits));
  EXPECT_EQ(estimate.ExceededBudget(limits), "deadline");
  limits.deadline_ticks = 100;
  EXPECT_FALSE(estimate.Exceeds(limits));  // trip is strictly-greater
  limits.row_budget = 4;
  EXPECT_EQ(estimate.ExceededBudget(limits), "rows");
  limits.row_budget = 0;
  limits.memory_budget = 79;
  EXPECT_EQ(estimate.ExceededBudget(limits), "memory");
}

TEST(CostEstimator, UnknownTableFailsClosed) {
  const BenchmarkSuite& suite = Corpus();
  const GeneratedDatabase& db = suite.databases.front();
  analysis::CostEstimator estimator(&db.data);
  Result<dvq::DVQ> dvq =
      dvq::Parse("Visualize BAR SELECT a , COUNT(a) FROM no_such_table "
                 "GROUP BY a");
  ASSERT_TRUE(dvq.ok());
  EXPECT_FALSE(estimator.Estimate(dvq.value()).ok());
}

}  // namespace
}  // namespace gred
