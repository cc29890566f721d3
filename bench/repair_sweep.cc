// Repair + cost-analysis sweep (DESIGN.md §17): what the static repair
// engine buys over the lint gate alone, and how the abstract cost
// estimator calibrates against real executor charges.
//
// Part 1 — repair vs lint under candidate corruption. A deterministic
// corrupting decorator sits between GRED and the simulated LLM: at rate
// p it misspells one column name in any completion carrying a DVQ (the
// generator / retuner / debugger answers), modelling a model that gets
// the query shape right but fumbles an identifier. Three pipelines run
// over nvBench-Rob_nlq at each rate — gate off, lint gate, lint +
// repair. The run FAILS (nonzero exit) unless, at every rate > 0, the
// repair gate strictly reduces lint rejections and its accuracy is at
// least the lint-only pipeline's.
//
// Part 2 — cost-gate calibration. Every subquery-free target DVQ of the
// test split is priced by analysis::CostEstimator and then executed
// unguarded to measure its real ExecContext charges. With every budget
// set to the corpus-wide maximum estimate the gate must reject nothing
// (zero false rejections — the estimate is an upper bound and the guard
// trips strictly above the limit) and no execution may trip. At tighter
// budgets (fractions of that maximum) the sweep counts gated vs
// actually-tripping queries; soundness demands zero "missed" trips (a
// query that trips at runtime but was not gated would disprove the
// upper bound).
//
// Usage: repair_sweep [REPORT_JSON] — with an argument, also writes the
// machine-readable report (scripts/bench_report --analysis writes
// BENCH_analysis.json this way).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "analysis/cost_estimator.h"
#include "bench/common.h"
#include "dvq/parser.h"
#include "exec/executor.h"
#include "util/json.h"
#include "util/strings.h"
#include "util/table_printer.h"

namespace {

using namespace gred;
using json::Value;

/// Decorator that misspells one select-column name in DVQ-bearing
/// completions. The corruption decision hashes the completion text, so
/// it is deterministic, thread-safe without state, and identical across
/// the pipelines being compared (every variant sees the same faults).
class CorruptingChatModel final : public llm::ChatModel {
 public:
  CorruptingChatModel(const llm::ChatModel* inner, double rate)
      : inner_(inner),
        threshold_(static_cast<std::size_t>(rate * 1000.0)) {}

  Result<std::string> Complete(const llm::Prompt& prompt,
                               const llm::ChatOptions& options) const override {
    Result<std::string> result = inner_->Complete(prompt, options);
    if (!result.ok()) return result;
    return Corrupt(std::move(result.value()));
  }

  std::size_t corrupted() const {
    return corrupted_.load(std::memory_order_relaxed);
  }

 private:
  std::string Corrupt(std::string completion) const {
    const std::size_t at = completion.find("Visualize ");
    if (at == std::string::npos) return completion;
    const std::size_t end = completion.find('\n', at);
    const std::string text =
        completion.substr(at, end == std::string::npos ? end : end - at);
    if (std::hash<std::string>{}(text) % 1000 >= threshold_) return completion;
    Result<dvq::DVQ> parsed = dvq::Parse(text);
    if (!parsed.ok()) return completion;
    dvq::DVQ mutant = parsed.value();
    dvq::ColumnRef* victim = nullptr;
    for (dvq::SelectExpr& e : mutant.query.select) {
      if (e.col.column != "*") {
        victim = &e.col;
        break;
      }
    }
    if (victim == nullptr) return completion;
    victim->column.push_back(victim->column.back());  // "city" -> "cityy"
    corrupted_.fetch_add(1, std::memory_order_relaxed);
    std::string tail =
        end == std::string::npos ? std::string() : completion.substr(end);
    return completion.substr(0, at) + mutant.ToString() + tail;
  }

  const llm::ChatModel* inner_;
  std::size_t threshold_;  // corrupt when hash(text) % 1000 < threshold_
  mutable std::atomic<std::size_t> corrupted_{0};
};

const dataset::GeneratedDatabase* FindDb(
    const std::vector<dataset::GeneratedDatabase>& databases,
    const std::string& name) {
  for (const dataset::GeneratedDatabase& db : databases) {
    if (strings::EqualsIgnoreCase(db.data.name(), name)) return &db;
  }
  return nullptr;
}

bool HasSubquery(const dvq::Query& q) {
  if (!q.where.has_value()) return false;
  for (const dvq::Predicate& p : q.where->predicates) {
    if (p.subquery != nullptr) return true;
  }
  return false;
}

Value U64(std::uint64_t v) {
  constexpr std::uint64_t kMax =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  return Value::Int(static_cast<std::int64_t>(std::min(v, kMax)));
}

struct PipelineRow {
  std::string name;
  bool lint = false;
  bool repair = false;
  double overall_acc = 0.0;
  double exec_acc = 0.0;
  std::size_t errors = 0;
  std::uint64_t lint_rejections = 0;
  std::uint64_t repairs = 0;
};

struct FractionRow {
  double fraction = 0.0;
  std::size_t gated = 0;
  std::size_t tripped = 0;
  std::size_t preempted = 0;  // tripped && gated
  std::size_t missed = 0;     // tripped && !gated — must be 0
};

}  // namespace

int main(int argc, char** argv) {
  const char* report_path = bench::ReportPathArg(argc, argv);
  bench::BenchContext context;
  const std::vector<dataset::Example>& test = context.suite().test_nlq;
  const std::vector<dataset::GeneratedDatabase>& databases =
      context.suite().databases;

  // --- Part 1: repair vs lint under candidate corruption ----------------
  const std::vector<double> rates = {0.0, 0.15, 0.35, 0.6};
  TablePrinter sweep_table({"Rate", "Pipeline", "Acc.", "Exec. Acc.",
                            "Errors", "Lint rejections", "Repairs"});
  Value sweep_json = Value::Array();
  bool repair_vs_lint_ok = true;
  std::uint64_t total_repairs = 0;
  for (double rate : rates) {
    CorruptingChatModel corrupter(context.chat_model(), rate);
    std::vector<core::GredConfig> configs(3);
    configs[0].name_suffix = "";
    configs[1].enable_lint = true;
    configs[1].name_suffix = " +lint";
    configs[2].enable_lint = true;
    configs[2].enable_repair = true;
    configs[2].name_suffix = " +lint+repair";
    std::vector<PipelineRow> rows;
    for (core::GredConfig config : configs) {
      config.stage_limits = context.guard_limits();
      const bool lint = config.enable_lint;
      const bool repair = config.enable_repair;
      core::Gred gred(context.corpus(), &corrupter, std::move(config));
      (void)gred.PrepareAnnotations(databases);
      eval::EvalOptions options;
      options.lint = lint;
      core::Gred::StageStats before = gred.stage_stats();
      eval::EvalResult result = eval::Evaluate(gred, test, databases,
                                               "nvBench-Rob_nlq", nullptr,
                                               options);
      core::Gred::StageStats after = gred.stage_stats();
      PipelineRow row;
      row.name = gred.name();
      row.lint = lint;
      row.repair = repair;
      row.overall_acc = result.counts.OverallAcc();
      row.exec_acc = result.counts.ExecutionAcc();
      row.errors = result.counts.errors;
      row.lint_rejections =
          (after.retune_lint_trips - before.retune_lint_trips) +
          (after.debug_lint_trips - before.debug_lint_trips);
      row.repairs = (after.retune_repairs - before.retune_repairs) +
                    (after.debug_repairs - before.debug_repairs);
      total_repairs += row.repairs;
      rows.push_back(row);
      sweep_table.AddRow({strings::Format("%.2f", rate), row.name,
                          FormatPercent(row.overall_acc),
                          FormatPercent(row.exec_acc),
                          std::to_string(row.errors),
                          std::to_string(row.lint_rejections),
                          std::to_string(row.repairs)});
    }
    // The repair gate must beat lint-only wherever there is anything to
    // repair: strictly fewer rejections, no accuracy loss. Even at rate
    // 0 the uncorrupted pipeline can produce rejectable candidates (the
    // simulated LLM hallucinates names at corpus scale), so the rule is
    // uniform: any lint-only rejections demand a strict reduction, and
    // a rejection-free lint run demands the repair side stay at zero.
    const PipelineRow& lint_row = rows[1];
    const PipelineRow& repair_row = rows[2];
    if (lint_row.lint_rejections > 0) {
      if (repair_row.lint_rejections >= lint_row.lint_rejections) {
        repair_vs_lint_ok = false;
        std::fprintf(stderr,
                     "[bench] FAIL: rate %.2f: repair rejections %llu not "
                     "strictly below lint-only %llu\n",
                     rate,
                     static_cast<unsigned long long>(repair_row.lint_rejections),
                     static_cast<unsigned long long>(lint_row.lint_rejections));
      }
    } else if (repair_row.lint_rejections != 0) {
      repair_vs_lint_ok = false;
      std::fprintf(stderr,
                   "[bench] FAIL: rate %.2f: repair rejections %llu with a "
                   "rejection-free lint run\n",
                   rate,
                   static_cast<unsigned long long>(repair_row.lint_rejections));
    }
    if (repair_row.overall_acc < lint_row.overall_acc ||
        repair_row.exec_acc < lint_row.exec_acc) {
      repair_vs_lint_ok = false;
      std::fprintf(stderr,
                   "[bench] FAIL: rate %.2f: repair accuracy below "
                   "lint-only\n",
                   rate);
    }
    Value point = Value::Object();
    point.Set("rate", Value::Number(rate));
    point.Set("corrupted_completions",
              U64(static_cast<std::uint64_t>(corrupter.corrupted())));
    Value pipelines = Value::Array();
    for (const PipelineRow& row : rows) {
      Value p = Value::Object();
      p.Set("name", Value::Str(row.name));
      p.Set("lint", Value::Bool(row.lint));
      p.Set("repair", Value::Bool(row.repair));
      p.Set("overall_acc", Value::Number(row.overall_acc));
      p.Set("exec_acc", Value::Number(row.exec_acc));
      p.Set("errors", U64(static_cast<std::uint64_t>(row.errors)));
      p.Set("lint_rejections", U64(row.lint_rejections));
      p.Set("repairs", U64(row.repairs));
      pipelines.Append(std::move(p));
    }
    point.Set("pipelines", std::move(pipelines));
    sweep_json.Append(std::move(point));
  }
  if (total_repairs == 0) {
    repair_vs_lint_ok = false;
    std::fprintf(stderr, "[bench] FAIL: no repairs fired across the sweep\n");
  }
  std::printf("\nRepair sweep: GRED under completion corruption "
              "(%zu examples per cell)\n",
              test.size());
  std::printf("%s", sweep_table.ToString().c_str());

  // --- Part 2: cost-gate calibration over the corpus --------------------
  struct Priced {
    const dataset::Example* example;
    const dataset::GeneratedDatabase* db;
    analysis::CostEstimate estimate;
  };
  std::vector<Priced> priced;
  analysis::CostEstimate max_estimate;
  double headroom_sum = 0.0;
  std::size_t headroom_count = 0;
  for (const dataset::Example& example : test) {
    if (HasSubquery(example.dvq.query)) continue;
    const dataset::GeneratedDatabase* db = FindDb(databases, example.db_name);
    if (db == nullptr) continue;
    analysis::CostEstimator estimator(&db->data);
    Result<analysis::CostEstimate> estimate = estimator.Estimate(example.dvq);
    if (!estimate.ok()) {
      std::fprintf(stderr, "[bench] FAIL: %s priced with error: %s\n",
                   example.id.c_str(), estimate.status().ToString().c_str());
      return 1;
    }
    priced.push_back({&example, db, estimate.value()});
    max_estimate.ticks = std::max(max_estimate.ticks, estimate.value().ticks);
    max_estimate.rows = std::max(max_estimate.rows, estimate.value().rows);
    max_estimate.bytes = std::max(max_estimate.bytes, estimate.value().bytes);
    max_estimate.join_rows =
        std::max(max_estimate.join_rows, estimate.value().join_rows);
    ExecContext guard;  // unlimited: measure real charges, never trip
    exec::ExecOptions options;
    options.context = &guard;
    Result<exec::ResultSet> run =
        exec::Execute(example.dvq, db->data, options);
    if (run.ok() && guard.usage().ticks > 0) {
      headroom_sum += static_cast<double>(estimate.value().ticks) /
                      static_cast<double>(guard.usage().ticks);
      ++headroom_count;
    }
  }

  auto run_with = [](const Priced& p, const GuardLimits& limits) {
    ExecContext guard(limits);
    exec::ExecOptions options;
    options.context = &guard;
    Result<exec::ResultSet> run = exec::Execute(p.example->dvq, p.db->data,
                                                options);
    return !run.ok() && run.status().IsResourceExhausted();
  };

  // At budget == the corpus-wide maximum estimate nothing may be gated
  // (the guard trips strictly above the limit) and nothing may trip.
  GuardLimits max_limits;
  max_limits.deadline_ticks = max_estimate.ticks;
  max_limits.row_budget = max_estimate.rows;
  max_limits.memory_budget = max_estimate.bytes;
  max_limits.join_budget = max_estimate.join_rows;
  std::size_t false_rejections = 0;
  std::size_t trips_at_max = 0;
  for (const Priced& p : priced) {
    if (p.estimate.Exceeds(max_limits)) ++false_rejections;
    if (run_with(p, max_limits)) ++trips_at_max;
  }

  // Tighter budgets: every runtime trip must have been predicted.
  const std::vector<double> fractions = {0.5, 0.25, 0.1};
  std::vector<FractionRow> fraction_rows;
  TablePrinter cost_table({"Budget (xmax)", "Gated", "Trips", "Pre-empted",
                           "Missed"});
  for (double fraction : fractions) {
    GuardLimits limits;
    limits.deadline_ticks = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               static_cast<double>(max_estimate.ticks) * fraction));
    FractionRow row;
    row.fraction = fraction;
    for (const Priced& p : priced) {
      const bool gated = p.estimate.Exceeds(limits);
      const bool tripped = run_with(p, limits);
      if (gated) ++row.gated;
      if (tripped) ++row.tripped;
      if (tripped && gated) ++row.preempted;
      if (tripped && !gated) ++row.missed;
    }
    fraction_rows.push_back(row);
    cost_table.AddRow({strings::Format("%.2f", fraction),
                       std::to_string(row.gated), std::to_string(row.tripped),
                       std::to_string(row.preempted),
                       std::to_string(row.missed)});
  }
  const bool cost_sound =
      false_rejections == 0 && trips_at_max == 0 &&
      std::all_of(fraction_rows.begin(), fraction_rows.end(),
                  [](const FractionRow& r) { return r.missed == 0; });

  std::printf("\nCost-gate calibration over %zu subquery-free corpus "
              "queries (tick budgets as fractions of the max estimate)\n",
              priced.size());
  std::printf("%s", cost_table.ToString().c_str());
  std::printf("\nfalse rejections at budget = max estimate: %zu (%s)\n",
              false_rejections, false_rejections == 0 ? "ok" : "FAILED");
  std::printf("runtime trips at budget = max estimate: %zu (%s)\n",
              trips_at_max, trips_at_max == 0 ? "ok" : "FAILED");
  std::printf("mean estimate/measured tick headroom: %.2fx over %zu runs\n",
              headroom_count > 0 ? headroom_sum /
                                       static_cast<double>(headroom_count)
                                 : 0.0,
              headroom_count);
  std::printf("repair strictly beats lint-only at every rate: %s\n",
              repair_vs_lint_ok ? "ok" : "FAILED");

  if (report_path != nullptr) {
    Value report = Value::Object();
    report.Set("schema", Value::Str("gredvis-bench-analysis/1"));
    report.Set("examples", U64(static_cast<std::uint64_t>(test.size())));
    report.Set("corruption_sweep", std::move(sweep_json));
    report.Set("repair_vs_lint_ok", Value::Bool(repair_vs_lint_ok));
    Value cost = Value::Object();
    cost.Set("queries", U64(static_cast<std::uint64_t>(priced.size())));
    Value max_v = Value::Object();
    max_v.Set("ticks", U64(max_estimate.ticks));
    max_v.Set("rows", U64(max_estimate.rows));
    max_v.Set("bytes", U64(max_estimate.bytes));
    max_v.Set("join_rows", U64(max_estimate.join_rows));
    cost.Set("max_estimate", std::move(max_v));
    cost.Set("false_rejections_at_max",
             U64(static_cast<std::uint64_t>(false_rejections)));
    cost.Set("runtime_trips_at_max",
             U64(static_cast<std::uint64_t>(trips_at_max)));
    cost.Set("mean_tick_headroom",
             Value::Number(headroom_count > 0
                               ? headroom_sum /
                                     static_cast<double>(headroom_count)
                               : 0.0));
    Value points = Value::Array();
    for (const FractionRow& row : fraction_rows) {
      Value point = Value::Object();
      point.Set("fraction", Value::Number(row.fraction));
      point.Set("gated", U64(static_cast<std::uint64_t>(row.gated)));
      point.Set("tripped", U64(static_cast<std::uint64_t>(row.tripped)));
      point.Set("pre_empted", U64(static_cast<std::uint64_t>(row.preempted)));
      point.Set("missed", U64(static_cast<std::uint64_t>(row.missed)));
      points.Append(std::move(point));
    }
    cost.Set("fractions", std::move(points));
    cost.Set("sound", Value::Bool(cost_sound));
    report.Set("cost", std::move(cost));
    if (!bench::WriteReport(std::move(report), "repair_sweep",
                            report_path)) {
      return 1;
    }
  }

  return repair_vs_lint_ok && cost_sound ? 0 : 1;
}
