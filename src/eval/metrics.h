#ifndef GREDVIS_EVAL_METRICS_H_
#define GREDVIS_EVAL_METRICS_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "dataset/benchmark.h"
#include "models/model.h"
#include "util/resource_guard.h"
#include "util/timing.h"

namespace gred::eval {

/// Raw match counts for the four metrics of Appendix A, plus execution
/// accuracy (an extension: does the predicted query produce the same
/// rows as the target when run against the live database?).
struct MetricCounts {
  std::size_t total = 0;
  std::size_t vis = 0;        // chart-type matches
  std::size_t axis = 0;       // x/y-axis component matches
  std::size_t data = 0;       // data-transformation matches
  std::size_t overall = 0;    // exact matches
  std::size_t execution = 0;  // result-set matches (chart type included)
  std::size_t errors = 0;     // model returned an error / unparseable DVQ
  /// Examples whose guarded execution tripped a resource budget
  /// (EvalOptions::guard); always 0 when the watchdog is off.
  std::size_t resource_exhausted = 0;
  /// Static-analysis findings over the parsed predictions, counted per
  /// diagnostic code ("DVQ002" -> 3). Populated only when
  /// EvalOptions::lint is on; empty otherwise, so default-constructed
  /// equality with pre-lint results still holds.
  std::map<std::string, std::size_t> diagnostics;

  /// All accuracy accessors return 0.0 (never NaN) when `total == 0`,
  /// so empty per-hardness / per-chart buckets render as 0% in tables.
  double VisAcc() const;
  double AxisAcc() const;
  double DataAcc() const;
  double OverallAcc() const;
  double ExecutionAcc() const;

  void Merge(const MetricCounts& other);

  friend bool operator==(const MetricCounts& a,
                         const MetricCounts& b) = default;
};

/// Per-example evaluation record (kept by the harness for case studies).
struct ExampleOutcome {
  const dataset::Example* example = nullptr;
  std::string predicted;   // empty when the model errored
  bool vis = false;
  bool axis = false;
  bool data = false;
  bool overall = false;
  bool execution = false;
  /// True when the per-example watchdog tripped while execution-matching
  /// this prediction (the example scores as a non-match but the harness
  /// terminated it with a typed kResourceExhausted, never a hang).
  bool resource_exhausted = false;
};

/// True when both queries execute against `db` and produce the same
/// multiset of result rows (order-insensitive unless the target sorts)
/// and the same chart type. An exact match always execution-matches.
bool ExecutionMatch(const dvq::DVQ& predicted, const dvq::DVQ& target,
                    const storage::DatabaseData& db);

/// Guarded variant: both executions run under `guard` (may be null =
/// unguarded). When either execution trips the guard the match is false
/// and `*resource_exhausted` (optional) is set.
bool ExecutionMatch(const dvq::DVQ& predicted, const dvq::DVQ& target,
                    const storage::DatabaseData& db, ExecContext* guard,
                    bool* resource_exhausted);

/// Full evaluation result with per-hardness and per-chart breakdowns.
struct EvalResult {
  std::string model_name;
  std::string test_set;
  MetricCounts counts;
  std::map<std::string, MetricCounts> by_hardness;
  std::map<std::string, MetricCounts> by_chart;

  friend bool operator==(const EvalResult& a, const EvalResult& b) = default;
};

/// Aggregate wall-clock time spent inside the harness, split by stage.
/// Thread-safe; under a parallel run the stage totals sum time across
/// workers, so they can exceed the elapsed wall clock.
struct EvalTiming {
  AtomicDuration translate;  // models::TextToVisModel::Translate
  AtomicDuration execute;    // ExecutionMatch (query execution + compare)
};

/// Knobs for `Evaluate`.
struct EvalOptions {
  /// Worker threads scoring examples. 0 means `DefaultEvalThreads()`;
  /// 1 forces the serial path. Any value yields bit-identical
  /// `EvalResult`s: outcomes are merged in input order regardless of
  /// completion order.
  std::size_t num_threads = 0;
  /// Optional stage-timing sink (not owned; may be null).
  EvalTiming* timing = nullptr;
  /// Per-example watchdog (util/resource_guard.h): when any field is
  /// nonzero each example's execution-match runs under a fresh
  /// ExecContext with these limits, so a pathological query terminates
  /// with kResourceExhausted (counted in MetricCounts::resource_exhausted)
  /// instead of monopolizing a worker. Default: unguarded, bit-identical
  /// to the pre-guard harness.
  GuardLimits guard;
  /// When true every parsed prediction is additionally run through the
  /// static analyzer (analysis::DvqAnalyzer) against its example's
  /// database schema and the findings are tallied per code into
  /// MetricCounts::diagnostics. Scoring is unaffected — linting only
  /// adds observability. Default off (MetricCounts::diagnostics empty,
  /// results bit-identical to the pre-lint harness).
  bool lint = false;
};

/// Worker count used when `EvalOptions::num_threads == 0`: the
/// `GRED_BENCH_THREADS` environment override, else HardwareThreads()
/// (the CPUs in the affinity mask). A set override that is not a
/// positive integer prints a message and exits(2) (util/env.h).
std::size_t DefaultEvalThreads();

/// Scores one prediction against the target (component metrics).
ExampleOutcome ScorePrediction(const dataset::Example& example,
                               const Result<dvq::DVQ>& prediction);

/// Evaluates `model` over `test`, resolving each example's database in
/// `databases` (pass the clean corpus for nvBench / nvBench-Rob_nlq and
/// the perturbed corpus for the schema-variant sets).
///
/// `on_example` (optional) observes every outcome, always in input
/// order (even when scoring runs on several threads).
///
/// With `options.num_threads != 1` examples are scored concurrently on
/// an internal ThreadPool; `model.Translate` must therefore be
/// thread-safe (see models::TextToVisModel). Results are merged in
/// input order, so the parallel path is bit-identical to the serial one.
EvalResult Evaluate(
    const models::TextToVisModel& model,
    const std::vector<dataset::Example>& test,
    const std::vector<dataset::GeneratedDatabase>& databases,
    const std::string& test_set_name,
    const std::function<void(const ExampleOutcome&)>& on_example = nullptr,
    const EvalOptions& options = {});

}  // namespace gred::eval

#endif  // GREDVIS_EVAL_METRICS_H_
