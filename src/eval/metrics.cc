#include "eval/metrics.h"

#include <algorithm>
#include <future>

#include "analysis/analyzer.h"
#include "dvq/components.h"
#include "exec/executor.h"
#include "util/env.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace gred::eval {

namespace {

double Ratio(std::size_t num, std::size_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

std::size_t DefaultEvalThreads() {
  return EnvSizeOrDie("GRED_BENCH_THREADS", HardwareThreads());
}

double MetricCounts::VisAcc() const { return Ratio(vis, total); }
double MetricCounts::AxisAcc() const { return Ratio(axis, total); }
double MetricCounts::DataAcc() const { return Ratio(data, total); }
double MetricCounts::OverallAcc() const { return Ratio(overall, total); }
double MetricCounts::ExecutionAcc() const { return Ratio(execution, total); }

void MetricCounts::Merge(const MetricCounts& other) {
  total += other.total;
  vis += other.vis;
  axis += other.axis;
  data += other.data;
  overall += other.overall;
  execution += other.execution;
  errors += other.errors;
  resource_exhausted += other.resource_exhausted;
  for (const auto& [code, count] : other.diagnostics) {
    diagnostics[code] += count;
  }
}

bool ExecutionMatch(const dvq::DVQ& predicted, const dvq::DVQ& target,
                    const storage::DatabaseData& db) {
  return ExecutionMatch(predicted, target, db, nullptr, nullptr);
}

bool ExecutionMatch(const dvq::DVQ& predicted, const dvq::DVQ& target,
                    const storage::DatabaseData& db, ExecContext* guard,
                    bool* resource_exhausted) {
  if (resource_exhausted != nullptr) *resource_exhausted = false;
  if (predicted.chart != target.chart) return false;
  exec::ExecOptions exec_options;
  exec_options.context = guard;
  Result<exec::ResultSet> a = exec::Execute(predicted, db, exec_options);
  Result<exec::ResultSet> b = exec::Execute(target, db, exec_options);
  if (resource_exhausted != nullptr &&
      ((!a.ok() && a.status().IsResourceExhausted()) ||
       (!b.ok() && b.status().IsResourceExhausted()))) {
    *resource_exhausted = true;
  }
  if (!a.ok() || !b.ok()) return false;
  if (a.value().num_rows() != b.value().num_rows() ||
      a.value().num_columns() != b.value().num_columns()) {
    return false;
  }
  auto rendered = [](const exec::ResultSet& rs) {
    std::vector<std::string> rows;
    rows.reserve(rs.num_rows());
    for (const auto& row : rs.rows) {
      std::string line;
      for (const storage::Value& cell : row) {
        line += cell.ToString();
        line += '\x1f';
      }
      rows.push_back(std::move(line));
    }
    return rows;
  };
  std::vector<std::string> rows_a = rendered(a.value());
  std::vector<std::string> rows_b = rendered(b.value());
  const bool ordered = target.query.order_by.has_value();
  if (!ordered) {
    std::sort(rows_a.begin(), rows_a.end());
    std::sort(rows_b.begin(), rows_b.end());
  }
  return rows_a == rows_b;
}

ExampleOutcome ScorePrediction(const dataset::Example& example,
                               const Result<dvq::DVQ>& prediction) {
  ExampleOutcome outcome;
  outcome.example = &example;
  if (!prediction.ok()) return outcome;
  const dvq::DVQ& pred = prediction.value();
  outcome.predicted = pred.ToString();
  outcome.vis = dvq::VisMatch(pred, example.dvq);
  outcome.axis = dvq::AxisMatch(pred, example.dvq);
  outcome.data = dvq::DataMatch(pred, example.dvq);
  outcome.overall = outcome.vis && outcome.axis && outcome.data;
  return outcome;
}

namespace {

/// Per-example evaluation unit: the outcome plus its metric increment.
struct ScoredExample {
  MetricCounts unit;
  ExampleOutcome outcome;
};

/// Scores one example. Pure with respect to the harness (the model must
/// be thread-safe); both the serial and the parallel path run exactly
/// this, which is what makes them bit-identical.
ScoredExample ScoreExample(
    const models::TextToVisModel& model, const dataset::Example& example,
    const std::vector<dataset::GeneratedDatabase>& databases,
    EvalTiming* timing, const GuardLimits& guard_limits, bool lint) {
  ScoredExample scored;
  scored.unit.total = 1;
  const dataset::GeneratedDatabase* db = nullptr;
  for (const dataset::GeneratedDatabase& candidate : databases) {
    if (strings::EqualsIgnoreCase(candidate.data.name(), example.db_name)) {
      db = &candidate;
      break;
    }
  }
  if (db == nullptr) {
    scored.unit.errors = 1;
    scored.outcome.example = &example;
    return scored;
  }
  Result<dvq::DVQ> prediction = [&] {
    ScopedTimer timer(timing == nullptr ? nullptr : &timing->translate);
    return model.Translate(example.nlq, db->data);
  }();
  scored.outcome = ScorePrediction(example, prediction);
  if (!prediction.ok()) scored.unit.errors = 1;
  if (lint && prediction.ok()) {
    // Observability only: the per-code tallies ride along in the unit's
    // diagnostics map and never influence the match metrics.
    analysis::DvqAnalyzer analyzer(&db->data.db_schema());
    analysis::CountByCode(analyzer.Analyze(prediction.value()),
                          &scored.unit.diagnostics);
  }
  if (prediction.ok()) {
    ScopedTimer timer(timing == nullptr ? nullptr : &timing->execute);
    if (guard_limits.Unlimited()) {
      scored.outcome.execution =
          ExecutionMatch(prediction.value(), example.dvq, db->data);
    } else {
      // Per-example watchdog: a fresh context per example so one
      // pathological query cannot eat a later example's budget.
      ExecContext guard(guard_limits);
      scored.outcome.execution =
          ExecutionMatch(prediction.value(), example.dvq, db->data, &guard,
                         &scored.outcome.resource_exhausted);
    }
  }
  scored.unit.vis = scored.outcome.vis ? 1 : 0;
  scored.unit.axis = scored.outcome.axis ? 1 : 0;
  scored.unit.data = scored.outcome.data ? 1 : 0;
  scored.unit.overall = scored.outcome.overall ? 1 : 0;
  scored.unit.execution = scored.outcome.execution ? 1 : 0;
  scored.unit.resource_exhausted = scored.outcome.resource_exhausted ? 1 : 0;
  return scored;
}

}  // namespace

EvalResult Evaluate(
    const models::TextToVisModel& model,
    const std::vector<dataset::Example>& test,
    const std::vector<dataset::GeneratedDatabase>& databases,
    const std::string& test_set_name,
    const std::function<void(const ExampleOutcome&)>& on_example,
    const EvalOptions& options) {
  EvalResult result;
  result.model_name = model.name();
  result.test_set = test_set_name;
  const std::size_t n = test.size();
  std::size_t threads =
      options.num_threads == 0 ? DefaultEvalThreads() : options.num_threads;
  threads = std::min(threads, std::max<std::size_t>(1, n));
  std::vector<ScoredExample> scored(n);
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      scored[i] = ScoreExample(model, test[i], databases, options.timing,
                               options.guard, options.lint);
    }
  } else {
    ThreadPool pool(threads);
    std::vector<std::future<void>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      futures.push_back(pool.Submit([&model, &test, &databases, &scored,
                                     timing = options.timing,
                                     guard = options.guard,
                                     lint = options.lint, i] {
        scored[i] =
            ScoreExample(model, test[i], databases, timing, guard, lint);
      }));
    }
    for (std::future<void>& future : futures) future.get();  // rethrows
  }
  // Deterministic merge: input order, independent of worker scheduling.
  for (std::size_t i = 0; i < n; ++i) {
    result.counts.Merge(scored[i].unit);
    result.by_hardness[dataset::HardnessName(test[i].hardness)].Merge(
        scored[i].unit);
    result.by_chart[dvq::ChartTypeName(test[i].dvq.chart)].Merge(
        scored[i].unit);
    if (on_example) on_example(scored[i].outcome);
  }
  return result;
}

}  // namespace gred::eval
