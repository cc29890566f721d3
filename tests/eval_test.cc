// Tests for the evaluation metrics and harness (Appendix A).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "dataset/benchmark.h"
#include "dvq/parser.h"
#include "eval/metrics.h"
#include "gred/gred.h"
#include "llm/sim_llm.h"

namespace gred::eval {
namespace {

/// Model that always answers with the target (oracle).
class OracleModel : public models::TextToVisModel {
 public:
  explicit OracleModel(const std::vector<dataset::Example>* test)
      : test_(test) {}
  std::string name() const override { return "Oracle"; }
  Result<dvq::DVQ> Translate(const std::string& nlq,
                             const storage::DatabaseData& db) const override {
    (void)db;
    for (const dataset::Example& ex : *test_) {
      if (ex.nlq == nlq) return ex.dvq;
    }
    return Status::NotFound("no such nlq");
  }

 private:
  const std::vector<dataset::Example>* test_;
};

/// Model that always errors.
class BrokenModel : public models::TextToVisModel {
 public:
  std::string name() const override { return "Broken"; }
  Result<dvq::DVQ> Translate(const std::string&,
                             const storage::DatabaseData&) const override {
    return Status::ExecutionError("down for maintenance");
  }
};

const dataset::BenchmarkSuite& SmallSuite() {
  static const dataset::BenchmarkSuite* const kSuite = [] {
    dataset::BenchmarkOptions options;
    options.train_size = 120;
    options.test_size = 30;
    return new dataset::BenchmarkSuite(
        dataset::BuildBenchmarkSuite(options));
  }();
  return *kSuite;
}

TEST(Metrics, CountsAndRatios) {
  MetricCounts counts;
  counts.total = 4;
  counts.vis = 4;
  counts.axis = 3;
  counts.data = 2;
  counts.overall = 2;
  EXPECT_DOUBLE_EQ(counts.VisAcc(), 1.0);
  EXPECT_DOUBLE_EQ(counts.AxisAcc(), 0.75);
  EXPECT_DOUBLE_EQ(counts.DataAcc(), 0.5);
  EXPECT_DOUBLE_EQ(counts.OverallAcc(), 0.5);
  MetricCounts empty;
  EXPECT_DOUBLE_EQ(empty.OverallAcc(), 0.0);
}

TEST(Metrics, EmptyCountsNeverProduceNaN) {
  // total == 0 (e.g. an empty per-hardness or per-chart bucket) must
  // report 0.0 from every accessor, not NaN leaking into bench tables.
  MetricCounts empty;
  EXPECT_DOUBLE_EQ(empty.VisAcc(), 0.0);
  EXPECT_DOUBLE_EQ(empty.AxisAcc(), 0.0);
  EXPECT_DOUBLE_EQ(empty.DataAcc(), 0.0);
  EXPECT_DOUBLE_EQ(empty.OverallAcc(), 0.0);
  EXPECT_DOUBLE_EQ(empty.ExecutionAcc(), 0.0);
  EXPECT_FALSE(std::isnan(empty.VisAcc()));

  // The same holds for a bucket that recorded only errors.
  MetricCounts errors_only;
  errors_only.errors = 3;
  EXPECT_DOUBLE_EQ(errors_only.OverallAcc(), 0.0);

  // An empty evaluation (no test examples) renders clean tables too.
  EvalResult result;
  EXPECT_DOUBLE_EQ(result.counts.OverallAcc(), 0.0);
  EXPECT_DOUBLE_EQ(result.by_hardness["Easy"].OverallAcc(), 0.0);
}

TEST(Metrics, Merge) {
  MetricCounts a;
  a.total = 2;
  a.vis = 1;
  MetricCounts b;
  b.total = 3;
  b.vis = 3;
  b.errors = 1;
  a.Merge(b);
  EXPECT_EQ(a.total, 5u);
  EXPECT_EQ(a.vis, 4u);
  EXPECT_EQ(a.errors, 1u);
}

TEST(Metrics, ScorePredictionComponents) {
  dataset::Example ex;
  ex.dvq = dvq::Parse("Visualize BAR SELECT a , COUNT(a) FROM t GROUP BY a")
               .value();
  Result<dvq::DVQ> same =
      dvq::Parse("Visualize BAR SELECT a , COUNT(a) FROM t GROUP BY a");
  ExampleOutcome outcome = ScorePrediction(ex, same);
  EXPECT_TRUE(outcome.vis);
  EXPECT_TRUE(outcome.axis);
  EXPECT_TRUE(outcome.data);
  EXPECT_TRUE(outcome.overall);

  Result<dvq::DVQ> wrong_chart =
      dvq::Parse("Visualize PIE SELECT a , COUNT(a) FROM t GROUP BY a");
  outcome = ScorePrediction(ex, wrong_chart);
  EXPECT_FALSE(outcome.vis);
  EXPECT_TRUE(outcome.axis);
  EXPECT_FALSE(outcome.overall);

  Result<dvq::DVQ> error(Status::Internal("x"));
  outcome = ScorePrediction(ex, error);
  EXPECT_FALSE(outcome.vis);
  EXPECT_TRUE(outcome.predicted.empty());
}

TEST(ExecutionMatch, StyleInsensitive) {
  const dataset::BenchmarkSuite& suite = SmallSuite();
  // Find a counting example; COUNT(x) vs COUNT(*) differ in exact match
  // but execute identically when the column has no NULLs.
  for (const dataset::Example& ex : suite.test_clean) {
    if (ex.dvq.query.select.size() < 2 ||
        ex.dvq.query.select[1].agg != dvq::AggFunc::kCount ||
        ex.dvq.query.select[1].col.column == "*") {
      continue;
    }
    const dataset::GeneratedDatabase* db = suite.FindCleanDb(ex.db_name);
    dvq::DVQ star = ex.dvq;
    star.query.select[1].col.column = "*";
    star.query.select[1].col.table.clear();
    EXPECT_FALSE(dvq::Parse(star.ToString()).value().Canonical() ==
                 ex.dvq.Canonical());
    EXPECT_TRUE(ExecutionMatch(star, ex.dvq, db->data));
    return;
  }
  GTEST_SKIP() << "no counting example in the small suite";
}

TEST(ExecutionMatch, DetectsDifferentResults) {
  const dataset::BenchmarkSuite& suite = SmallSuite();
  const dataset::Example& ex = suite.test_clean[0];
  const dataset::GeneratedDatabase* db = suite.FindCleanDb(ex.db_name);
  EXPECT_TRUE(ExecutionMatch(ex.dvq, ex.dvq, db->data));
  dvq::DVQ wrong_chart = ex.dvq;
  wrong_chart.chart = ex.dvq.chart == dvq::ChartType::kPie
                          ? dvq::ChartType::kBar
                          : dvq::ChartType::kPie;
  EXPECT_FALSE(ExecutionMatch(wrong_chart, ex.dvq, db->data));
  dvq::DVQ broken = ex.dvq;
  broken.query.from_table = "no_such_table";
  EXPECT_FALSE(ExecutionMatch(broken, ex.dvq, db->data));
}

TEST(ExecutionMatch, CountedInHarness) {
  const dataset::BenchmarkSuite& suite = SmallSuite();
  OracleModel oracle(&suite.test_clean);
  EvalResult result = Evaluate(oracle, suite.test_clean, suite.databases,
                               "clean");
  EXPECT_EQ(result.counts.execution, result.counts.total);
  EXPECT_DOUBLE_EQ(result.counts.ExecutionAcc(), 1.0);
}

TEST(Harness, OracleScoresPerfect) {
  const dataset::BenchmarkSuite& suite = SmallSuite();
  OracleModel oracle(&suite.test_clean);
  EvalResult result = Evaluate(oracle, suite.test_clean, suite.databases,
                               "clean");
  EXPECT_EQ(result.counts.total, suite.test_clean.size());
  EXPECT_DOUBLE_EQ(result.counts.OverallAcc(), 1.0);
  EXPECT_EQ(result.counts.errors, 0u);
  EXPECT_EQ(result.model_name, "Oracle");
}

TEST(Harness, BrokenModelCountsErrors) {
  const dataset::BenchmarkSuite& suite = SmallSuite();
  BrokenModel broken;
  EvalResult result = Evaluate(broken, suite.test_clean, suite.databases,
                               "clean");
  EXPECT_EQ(result.counts.errors, suite.test_clean.size());
  EXPECT_DOUBLE_EQ(result.counts.OverallAcc(), 0.0);
}

TEST(Harness, BreakdownsPartitionTotals) {
  const dataset::BenchmarkSuite& suite = SmallSuite();
  OracleModel oracle(&suite.test_clean);
  EvalResult result = Evaluate(oracle, suite.test_clean, suite.databases,
                               "clean");
  std::size_t by_hardness = 0;
  for (const auto& [name, counts] : result.by_hardness) {
    by_hardness += counts.total;
  }
  std::size_t by_chart = 0;
  for (const auto& [name, counts] : result.by_chart) {
    by_chart += counts.total;
  }
  EXPECT_EQ(by_hardness, result.counts.total);
  EXPECT_EQ(by_chart, result.counts.total);
}

TEST(Harness, ObserverSeesEveryExample) {
  const dataset::BenchmarkSuite& suite = SmallSuite();
  OracleModel oracle(&suite.test_clean);
  std::size_t seen = 0;
  Evaluate(oracle, suite.test_clean, suite.databases, "clean",
           [&](const ExampleOutcome& outcome) {
             ++seen;
             EXPECT_NE(outcome.example, nullptr);
           });
  EXPECT_EQ(seen, suite.test_clean.size());
}

/// Runs `model` serially and with `threads` workers, collecting the
/// observer stream both times, and asserts bit-identical results.
void ExpectParallelMatchesSerial(const models::TextToVisModel& model,
                                 const std::vector<dataset::Example>& test,
                                 const std::vector<dataset::GeneratedDatabase>&
                                     databases,
                                 std::size_t threads) {
  auto run = [&](std::size_t num_threads,
                 std::vector<ExampleOutcome>* outcomes) {
    EvalOptions options;
    options.num_threads = num_threads;
    return Evaluate(model, test, databases, "suite",
                    [outcomes](const ExampleOutcome& o) {
                      outcomes->push_back(o);
                    },
                    options);
  };
  std::vector<ExampleOutcome> serial_outcomes;
  std::vector<ExampleOutcome> parallel_outcomes;
  EvalResult serial = run(1, &serial_outcomes);
  EvalResult parallel = run(threads, &parallel_outcomes);
  EXPECT_TRUE(serial == parallel) << "EvalResult differs across thread counts";
  ASSERT_EQ(serial_outcomes.size(), parallel_outcomes.size());
  for (std::size_t i = 0; i < serial_outcomes.size(); ++i) {
    EXPECT_EQ(serial_outcomes[i].example, parallel_outcomes[i].example);
    EXPECT_EQ(serial_outcomes[i].predicted, parallel_outcomes[i].predicted);
    EXPECT_EQ(serial_outcomes[i].overall, parallel_outcomes[i].overall);
    EXPECT_EQ(serial_outcomes[i].execution, parallel_outcomes[i].execution);
  }
}

TEST(ParallelHarness, OracleDeterministicAcrossThreadCounts) {
  const dataset::BenchmarkSuite& suite = SmallSuite();
  OracleModel oracle(&suite.test_clean);
  ExpectParallelMatchesSerial(oracle, suite.test_clean, suite.databases, 4);
}

TEST(ParallelHarness, BrokenModelDeterministicAcrossThreadCounts) {
  const dataset::BenchmarkSuite& suite = SmallSuite();
  BrokenModel broken;
  ExpectParallelMatchesSerial(broken, suite.test_clean, suite.databases, 3);
}

// The full GRED pipeline under concurrency: exercises the mutex-guarded
// annotation cache (concurrent misses on the perturbed schemas), the
// shared embedding libraries, and the per-stage timing atomics. Run
// under -DGRED_SANITIZE=thread this is the harness's data-race canary.
TEST(ParallelHarness, GredDeterministicAcrossThreadCounts) {
  const dataset::BenchmarkSuite& suite = SmallSuite();
  llm::SimulatedChatModel llm;
  models::TrainingCorpus corpus;
  corpus.train = &suite.train;
  corpus.databases = &suite.databases;
  core::Gred gred(corpus, &llm);
  ExpectParallelMatchesSerial(gred, suite.test_both, suite.databases_rob, 4);
  EXPECT_GE(gred.stage_stats().translate_calls, suite.test_both.size());
}

TEST(ParallelHarness, TimingSinkCountsEveryExample) {
  const dataset::BenchmarkSuite& suite = SmallSuite();
  OracleModel oracle(&suite.test_clean);
  EvalTiming timing;
  EvalOptions options;
  options.num_threads = 4;
  options.timing = &timing;
  Evaluate(oracle, suite.test_clean, suite.databases, "clean", nullptr,
           options);
  EXPECT_EQ(timing.translate.count(), suite.test_clean.size());
  EXPECT_EQ(timing.execute.count(), suite.test_clean.size());
  EXPECT_GE(timing.translate.nanos(), 0);
}

// A mistyped GRED_BENCH_THREADS must abort (util/env.h's exit-2
// contract), not fall back to every core: `gredvis eval` and the
// examples reach DefaultEvalThreads without validating it first.
TEST(EvalDeathTest, DefaultThreadsRejectsInvalidBenchThreads) {
  const char* kVar = "GRED_BENCH_THREADS";
  const char* saved = std::getenv(kVar);
  const std::string restore = saved != nullptr ? saved : "";
  for (const char* bad : {"0", "-2", "four", ""}) {
    setenv(kVar, bad, /*overwrite=*/1);
    EXPECT_EXIT((void)DefaultEvalThreads(), ::testing::ExitedWithCode(2),
                "GRED_BENCH_THREADS")
        << "'" << bad << "'";
  }
  if (saved != nullptr) {
    setenv(kVar, restore.c_str(), /*overwrite=*/1);
  } else {
    unsetenv(kVar);
  }
}

}  // namespace
}  // namespace gred::eval
