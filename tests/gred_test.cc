// Tests for the GRED pipeline: preparatory phase, three stages, traces,
// ablation switches and the prompt-order flag.

#include <gtest/gtest.h>

#include <atomic>
#include <ostream>
#include <thread>

#include "analysis/analyzer.h"
#include "analysis/repairer.h"
#include "dvq/components.h"
#include "dvq/parser.h"
#include "gred/gred.h"
#include "llm/prompt.h"
#include "llm/resilient.h"
#include "llm/sim_llm.h"
#include "util/rng.h"

namespace gred::core {

// Readable gtest failure output for trace comparisons (found by ADL).
void PrintTo(const Gred::StageTrace& stage, std::ostream* os) {
  *os << "{dvq=\"" << stage.dvq << "\" degraded=" << stage.degraded
      << " lint_rejected=" << stage.lint_rejected
      << " repaired=" << stage.repaired << "}";
}

void PrintTo(const Gred::Trace& trace, std::ostream* os) {
  *os << "{dvq_gen=\"" << trace.dvq_gen << "\" retune=";
  PrintTo(trace.retune, os);
  *os << " debug=";
  PrintTo(trace.debug, os);
  *os << "}";
}

namespace {

class GredFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset::BenchmarkOptions options;
    options.train_size = 240;
    options.test_size = 40;
    suite_ = new dataset::BenchmarkSuite(
        dataset::BuildBenchmarkSuite(options));
    corpus_.train = &suite_->train;
    corpus_.databases = &suite_->databases;
    llm_ = new llm::SimulatedChatModel();
  }
  static dataset::BenchmarkSuite* suite_;
  static models::TrainingCorpus corpus_;
  static llm::SimulatedChatModel* llm_;
};

dataset::BenchmarkSuite* GredFixture::suite_ = nullptr;
models::TrainingCorpus GredFixture::corpus_;
llm::SimulatedChatModel* GredFixture::llm_ = nullptr;

TEST_F(GredFixture, AnnotationGeneratorProducesColumnLines) {
  const schema::Database& db = suite_->databases[0].data.db_schema();
  Result<std::string> annotations = GenerateAnnotations(db, *llm_);
  ASSERT_TRUE(annotations.ok());
  for (const schema::TableDef& table : db.tables()) {
    EXPECT_NE(annotations.value().find("Table " + table.name()),
              std::string::npos);
  }
}

TEST_F(GredFixture, PrepareAnnotationsCoversCorpus) {
  Gred model(corpus_, llm_);
  Result<std::size_t> prepared =
      model.PrepareAnnotations(suite_->databases);
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared.value(), suite_->databases.size());
  // Idempotent (cache hits).
  EXPECT_EQ(model.PrepareAnnotations(suite_->databases).value(),
            suite_->databases.size());
}

TEST_F(GredFixture, TranslatesCleanExample) {
  Gred model(corpus_, llm_);
  const dataset::Example& ex = suite_->test_clean[0];
  const dataset::GeneratedDatabase* db = suite_->FindCleanDb(ex.db_name);
  Gred::Translation out = model.Run(ex.nlq, db->data);
  ASSERT_TRUE(out.dvq.ok()) << out.dvq.status().ToString();
  EXPECT_FALSE(out.trace.dvq_gen.empty());
  EXPECT_FALSE(out.trace.retune.dvq.empty());
  EXPECT_FALSE(out.trace.debug.dvq.empty());
  // The one-line Translate override returns exactly Run's DVQ.
  Result<dvq::DVQ> translated = model.Translate(ex.nlq, db->data);
  ASSERT_TRUE(translated.ok());
  EXPECT_EQ(translated.value().ToString(), out.dvq.value().ToString());
}

TEST_F(GredFixture, AblationSwitchesSkipStages) {
  GredConfig config;
  config.enable_retuner = false;
  config.enable_debugger = false;
  config.name_suffix = " w/o RTN&DBG";
  Gred model(corpus_, llm_, config);
  EXPECT_EQ(model.name(), "GRED w/o RTN&DBG");
  const dataset::Example& ex = suite_->test_clean[1];
  const dataset::GeneratedDatabase* db = suite_->FindCleanDb(ex.db_name);
  Gred::Translation out = model.Run(ex.nlq, db->data);
  ASSERT_TRUE(out.dvq.ok());
  EXPECT_FALSE(out.trace.dvq_gen.empty());
  // Skipped stages leave an all-default StageTrace (not degraded).
  EXPECT_EQ(out.trace.retune, Gred::StageTrace{});
  EXPECT_EQ(out.trace.debug, Gred::StageTrace{});
}

TEST_F(GredFixture, DebuggerRecoversRenamedSchema) {
  Gred full(corpus_, llm_);
  GredConfig no_dbg;
  no_dbg.enable_debugger = false;
  Gred without(corpus_, llm_, no_dbg);
  std::size_t full_hits = 0;
  std::size_t without_hits = 0;
  const std::size_t n = std::min<std::size_t>(25, suite_->test_schema.size());
  for (std::size_t i = 0; i < n; ++i) {
    const dataset::Example& ex = suite_->test_schema[i];
    const dataset::GeneratedDatabase* db = suite_->FindRobDb(ex.db_name);
    Result<dvq::DVQ> a = full.Translate(ex.nlq, db->data);
    Result<dvq::DVQ> b = without.Translate(ex.nlq, db->data);
    if (a.ok() && dvq::OverallMatch(a.value(), ex.dvq)) ++full_hits;
    if (b.ok() && dvq::OverallMatch(b.value(), ex.dvq)) ++without_hits;
  }
  // Section 5.3: the Debugger is the schema-variant workhorse.
  EXPECT_GT(full_hits, without_hits);
}

TEST_F(GredFixture, DebuggerWithoutAnnotationsStillRuns) {
  GredConfig config;
  config.debugger_uses_annotations = false;
  Gred model(corpus_, llm_, config);
  const dataset::Example& ex = suite_->test_schema[0];
  const dataset::GeneratedDatabase* db = suite_->FindRobDb(ex.db_name);
  Gred::Translation out = model.Run(ex.nlq, db->data);
  EXPECT_TRUE(out.dvq.ok());
  EXPECT_FALSE(out.trace.debug.dvq.empty());
}

TEST_F(GredFixture, DeterministicTranslations) {
  Gred model(corpus_, llm_);
  const dataset::Example& ex = suite_->test_both[0];
  const dataset::GeneratedDatabase* db = suite_->FindRobDb(ex.db_name);
  Result<dvq::DVQ> a = model.Translate(ex.nlq, db->data);
  Result<dvq::DVQ> b = model.Translate(ex.nlq, db->data);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().ToString(), b.value().ToString());
}

TEST_F(GredFixture, PromptOrderFlagChangesNothingStructural) {
  GredConfig desc;
  desc.ascending_prompt_order = false;
  Gred model(corpus_, llm_, desc);
  const dataset::Example& ex = suite_->test_clean[2];
  const dataset::GeneratedDatabase* db = suite_->FindCleanDb(ex.db_name);
  Result<dvq::DVQ> out = model.Translate(ex.nlq, db->data);
  EXPECT_TRUE(out.ok());
}

TEST_F(GredFixture, KConfigRespected) {
  GredConfig tiny;
  tiny.k = 1;
  Gred model(corpus_, llm_, tiny);
  EXPECT_EQ(model.config().k, 1u);
  const dataset::Example& ex = suite_->test_clean[3];
  const dataset::GeneratedDatabase* db = suite_->FindCleanDb(ex.db_name);
  EXPECT_TRUE(model.Translate(ex.nlq, db->data).ok());
}

// --- Fault tolerance / graceful degradation ---------------------------------

/// Substrings that identify each of the four Appendix C prompts.
constexpr char kGenerationNeedle[] = "Generate DVQs based on";
constexpr char kRetuneNeedle[] = "Reference DVQs";
constexpr char kDebugNeedle[] = "replace the column names";
constexpr char kAnnotationNeedle[] =
    "natural language annotations to the following";

/// Fails every prompt containing `needle` with a fixed status; delegates
/// everything else to the inner model.
class FailMatchingChatModel : public llm::ChatModel {
 public:
  FailMatchingChatModel(const llm::ChatModel* inner, std::string needle,
                        Status failure = Status::Unavailable("injected"))
      : inner_(inner), needle_(std::move(needle)),
        failure_(std::move(failure)) {}

  Result<std::string> Complete(
      const llm::Prompt& prompt,
      const llm::ChatOptions& options) const override {
    if (llm::RenderPrompt(prompt).find(needle_) != std::string::npos) {
      return failure_;
    }
    return inner_->Complete(prompt, options);
  }

 private:
  const llm::ChatModel* inner_;
  std::string needle_;
  Status failure_;
};

/// Answers every prompt containing `needle` with a fixed completion (one
/// with no extractable DVQ, for the empty-extraction paths); delegates
/// everything else.
class AnswerMatchingChatModel : public llm::ChatModel {
 public:
  AnswerMatchingChatModel(const llm::ChatModel* inner, std::string needle,
                          std::string answer)
      : inner_(inner), needle_(std::move(needle)),
        answer_(std::move(answer)) {}

  Result<std::string> Complete(
      const llm::Prompt& prompt,
      const llm::ChatOptions& options) const override {
    if (llm::RenderPrompt(prompt).find(needle_) != std::string::npos) {
      return answer_;
    }
    return inner_->Complete(prompt, options);
  }

 private:
  const llm::ChatModel* inner_;
  std::string needle_;
  std::string answer_;
};

/// Fails only the first prompt containing `needle` (a one-shot transient
/// fault), then delegates forever after.
class FlakyOnceChatModel : public llm::ChatModel {
 public:
  FlakyOnceChatModel(const llm::ChatModel* inner, std::string needle)
      : inner_(inner), needle_(std::move(needle)) {}

  Result<std::string> Complete(
      const llm::Prompt& prompt,
      const llm::ChatOptions& options) const override {
    if (llm::RenderPrompt(prompt).find(needle_) != std::string::npos &&
        !failed_once_.exchange(true)) {
      return Status::Unavailable("flaky backend");
    }
    return inner_->Complete(prompt, options);
  }

 private:
  const llm::ChatModel* inner_;
  std::string needle_;
  mutable std::atomic<bool> failed_once_{false};
};

TEST_F(GredFixture, DegradedRetunerFallsBackToGeneratorDvq) {
  FailMatchingChatModel failing(llm_, kRetuneNeedle);
  Gred model(corpus_, &failing);
  GredConfig no_rtn;
  no_rtn.enable_retuner = false;
  Gred reference(corpus_, llm_, no_rtn);
  const dataset::Example& ex = suite_->test_clean[0];
  const dataset::GeneratedDatabase* db = suite_->FindCleanDb(ex.db_name);
  Gred::Translation run = model.Run(ex.nlq, db->data);
  const Result<dvq::DVQ>& out = run.dvq;
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const Gred::Trace& trace = run.trace;
  EXPECT_FALSE(trace.dvq_gen.empty());
  EXPECT_TRUE(trace.retune.dvq.empty());  // the stage produced nothing
  EXPECT_TRUE(trace.retune.degraded);
  EXPECT_FALSE(trace.debug.degraded);
  EXPECT_EQ(model.stage_stats().retune_degraded, 1u);
  // The degraded pipeline behaves exactly like one with no retuner.
  Result<dvq::DVQ> expected = reference.Translate(ex.nlq, db->data);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(out.value().ToString(), expected.value().ToString());
}

TEST_F(GredFixture, DegradedDebuggerFallsBackToRetunerDvq) {
  FailMatchingChatModel failing(llm_, kDebugNeedle);
  Gred model(corpus_, &failing);
  const dataset::Example& ex = suite_->test_clean[1];
  const dataset::GeneratedDatabase* db = suite_->FindCleanDb(ex.db_name);
  Gred::Translation run = model.Run(ex.nlq, db->data);
  const Result<dvq::DVQ>& out = run.dvq;
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const Gred::Trace& trace = run.trace;
  EXPECT_FALSE(trace.retune.dvq.empty());
  EXPECT_TRUE(trace.debug.dvq.empty());
  EXPECT_FALSE(trace.retune.degraded);
  EXPECT_TRUE(trace.debug.degraded);
  EXPECT_EQ(model.stage_stats().debug_degraded, 1u);
  // The returned DVQ is the retuner's output, parsed.
  Result<dvq::DVQ> retuned = dvq::Parse(trace.retune.dvq);
  ASSERT_TRUE(retuned.ok());
  EXPECT_EQ(out.value().ToString(), retuned.value().ToString());
}

TEST_F(GredFixture, DegradedAnnotationFailureSkipsDebugger) {
  FailMatchingChatModel failing(llm_, kAnnotationNeedle);
  Gred model(corpus_, &failing);
  const dataset::Example& ex = suite_->test_schema[0];
  const dataset::GeneratedDatabase* db = suite_->FindRobDb(ex.db_name);
  Gred::Translation run = model.Run(ex.nlq, db->data);
  const Result<dvq::DVQ>& out = run.dvq;
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const Gred::Trace& trace = run.trace;
  EXPECT_TRUE(trace.debug.dvq.empty());
  EXPECT_TRUE(trace.debug.degraded);
  EXPECT_EQ(model.stage_stats().debug_degraded, 1u);
  // Annotation failures are excluded from the PrepareAnnotations count.
  Result<std::size_t> prepared = model.PrepareAnnotations(suite_->databases);
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared.value(), 0u);
}

TEST_F(GredFixture, DegradedTraceNeverClaimsCarriedForwardOutput) {
  // A retuner completion with no extractable DVQ must not be recorded as
  // the stage's output (the carried-forward generator DVQ is not the
  // retuner's); it leaves the stage's dvq empty and marks it degraded.
  AnswerMatchingChatModel refusing(llm_, kRetuneNeedle,
                                   "I cannot help with that request.");
  Gred model(corpus_, &refusing);
  const dataset::Example& ex = suite_->test_clean[2];
  const dataset::GeneratedDatabase* db = suite_->FindCleanDb(ex.db_name);
  Gred::Translation run = model.Run(ex.nlq, db->data);
  const Result<dvq::DVQ>& out = run.dvq;
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const Gred::Trace& trace = run.trace;
  EXPECT_FALSE(trace.dvq_gen.empty());
  EXPECT_TRUE(trace.retune.dvq.empty());
  EXPECT_TRUE(trace.retune.degraded);
}

TEST_F(GredFixture, GeneratorFailureSurfacesError) {
  FailMatchingChatModel failing(llm_, kGenerationNeedle);
  Gred model(corpus_, &failing);
  const dataset::Example& ex = suite_->test_clean[3];
  const dataset::GeneratedDatabase* db = suite_->FindCleanDb(ex.db_name);
  Result<dvq::DVQ> out = model.Translate(ex.nlq, db->data);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsTransient());
  Gred::StageStats stats = model.stage_stats();
  EXPECT_EQ(stats.retune_degraded, 0u);
  EXPECT_EQ(stats.debug_degraded, 0u);
}

TEST_F(GredFixture, RetryRecoversDegradableStage) {
  FlakyOnceChatModel flaky(llm_, kRetuneNeedle);
  llm::RetryingChatModel retrying(&flaky, llm::RetryConfig{});
  Gred model(corpus_, &retrying);
  const dataset::Example& ex = suite_->test_clean[0];
  const dataset::GeneratedDatabase* db = suite_->FindCleanDb(ex.db_name);
  Gred::Translation run = model.Run(ex.nlq, db->data);
  const Result<dvq::DVQ>& out = run.dvq;
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const Gred::Trace& trace = run.trace;
  EXPECT_FALSE(trace.retune.degraded);
  EXPECT_FALSE(trace.retune.dvq.empty());
  EXPECT_EQ(model.stage_stats().retune_degraded, 0u);
  EXPECT_EQ(retrying.stats().retries, 1u);
}

TEST_F(GredFixture, DegradedFaultInjectedRunsAreThreadCountInvariant) {
  // The same examples translated serially and by four threads, each run
  // on a fresh fault-injecting stack, must produce identical outcomes:
  // fault draws depend only on (seed, prompt, attempt) and annotation
  // outcomes are prewarmed, never on scheduling.
  const std::size_t n = std::min<std::size_t>(12, suite_->test_clean.size());
  llm::FaultConfig faults;
  faults.transient_rate = 0.3;
  faults.truncate_rate = 0.15;
  faults.garbage_rate = 0.15;
  llm::RetryConfig retry;
  retry.max_attempts = 3;
  auto run = [&](std::size_t threads) {
    llm::FaultInjectingChatModel injector(llm_, faults);
    llm::RetryingChatModel retrying(&injector, retry);
    Gred model(corpus_, &retrying);
    (void)model.PrepareAnnotations(suite_->databases);
    std::vector<std::string> outcomes(n);
    auto score = [&](std::size_t i) {
      const dataset::Example& ex = suite_->test_clean[i];
      const dataset::GeneratedDatabase* db = suite_->FindCleanDb(ex.db_name);
      Result<dvq::DVQ> out = model.Translate(ex.nlq, db->data);
      outcomes[i] = out.ok() ? out.value().ToString()
                             : out.status().ToString();
    };
    if (threads <= 1) {
      for (std::size_t i = 0; i < n; ++i) score(i);
    } else {
      std::vector<std::thread> workers;
      workers.reserve(threads);
      for (std::size_t t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          for (std::size_t i = t; i < n; i += threads) score(i);
        });
      }
      for (std::thread& w : workers) w.join();
    }
    return outcomes;
  };
  std::vector<std::string> serial = run(1);
  std::vector<std::string> parallel = run(4);
  EXPECT_EQ(serial, parallel);
}

/// Stateless fault injection: a prompt's fate is a function of its text
/// alone (fail, truncate, or pass through), so the same prompt gets the
/// same answer in any interleaving — unlike llm::FaultInjectingChatModel,
/// whose per-prompt attempt counter makes repeats order-dependent.
class HashFaultChatModel : public llm::ChatModel {
 public:
  explicit HashFaultChatModel(const llm::ChatModel* inner) : inner_(inner) {}

  Result<std::string> Complete(
      const llm::Prompt& prompt,
      const llm::ChatOptions& options) const override {
    const std::uint64_t h = Fnv1a64(llm::RenderPrompt(prompt));
    if (h % 5 == 0) return Status::Unavailable("injected");
    Result<std::string> out = inner_->Complete(prompt, options);
    if (out.ok() && h % 5 == 1) {
      return out.value().substr(0, out.value().size() / 2);  // truncated
    }
    return out;
  }

 private:
  const llm::ChatModel* inner_;
};

TEST_F(GredFixture, ConcurrentRunsReturnTheirOwnTrace) {
  // Eight threads translate different examples through one Gred; every
  // call's trace must equal the serial run's trace for that example,
  // field for field. Lint + repair on renamed schemas exercise the
  // lint_rejected / repaired flags too.
  GredConfig config;
  config.enable_lint = true;
  config.enable_repair = true;
  HashFaultChatModel faulty(llm_);
  const std::size_t n = std::min<std::size_t>(32, suite_->test_both.size());
  auto run = [&](std::size_t threads) {
    Gred model(corpus_, &faulty, config);
    std::vector<Gred::Translation> out(n, {Status::Internal("not run"), {}});
    auto translate = [&](std::size_t i) {
      const dataset::Example& ex = suite_->test_both[i];
      out[i] = model.Run(ex.nlq, suite_->FindRobDb(ex.db_name)->data);
    };
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (std::size_t i = t; i < n; i += threads) translate(i);
      });
    }
    for (std::thread& w : workers) w.join();
    return out;
  };
  std::vector<Gred::Translation> serial = run(1);
  std::vector<Gred::Translation> parallel = run(8);
  std::size_t degraded = 0;
  std::size_t accepted = 0;
  std::size_t linted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(parallel[i].trace, serial[i].trace);
    EXPECT_EQ(parallel[i].dvq.status().ToString(),
              serial[i].dvq.status().ToString());
    if (serial[i].dvq.ok() && parallel[i].dvq.ok()) {
      EXPECT_EQ(parallel[i].dvq.value().ToString(),
                serial[i].dvq.value().ToString());
    }
    for (const Gred::StageTrace* stage :
         {&serial[i].trace.retune, &serial[i].trace.debug}) {
      degraded += stage->degraded;
      accepted += !stage->dvq.empty();
      linted += stage->lint_rejected || stage->repaired;
    }
  }
  // The faults and the lint gate must actually bite, and not everywhere.
  EXPECT_GT(degraded, 0u);
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(linted, 0u);
}

TEST_F(GredFixture, RepairGateRescuesLintRejectedRetunerCandidate) {
  // Find a clean example whose DVQ, with one select column misspelled,
  // lints broken but repairs back to error-free — the candidate shape
  // the repair gate exists for.
  const dataset::Example* example = nullptr;
  const dataset::GeneratedDatabase* db = nullptr;
  std::string broken_text;
  for (const dataset::Example& candidate : suite_->test_clean) {
    const dataset::GeneratedDatabase* cdb =
        suite_->FindCleanDb(candidate.db_name);
    if (cdb == nullptr) continue;
    analysis::DvqAnalyzer analyzer(&cdb->data.db_schema());
    if (!analyzer.Analyze(candidate.dvq).empty()) continue;
    dvq::DVQ broken = candidate.dvq;
    dvq::SelectExpr* victim = nullptr;
    for (dvq::SelectExpr& e : broken.query.select) {
      if (e.col.column != "*") {
        victim = &e;
        break;
      }
    }
    if (victim == nullptr) continue;
    victim->col.column += victim->col.column.back();  // double the last char
    if (!analysis::HasErrors(analyzer.Analyze(broken))) continue;
    analysis::DvqRepairer repairer(&cdb->data.db_schema());
    if (!repairer.Repair(broken).success) continue;
    example = &candidate;
    db = cdb;
    broken_text = broken.ToString();
    break;
  }
  ASSERT_NE(example, nullptr) << "no repairable corpus mutant found";

  // The retuner stage always answers with the broken DVQ. Lint alone
  // rejects it (degrade, keep the generator's DVQ); lint + repair
  // rescues it (accept the repaired candidate, nothing degrades).
  AnswerMatchingChatModel broken_retuner(llm_, kRetuneNeedle, broken_text);
  GredConfig lint_only;
  lint_only.enable_lint = true;
  Gred linted(corpus_, &broken_retuner, lint_only);
  Gred::Translation rejected = linted.Run(example->nlq, db->data);
  ASSERT_TRUE(rejected.dvq.ok()) << rejected.dvq.status().ToString();
  const Gred::Trace& lint_trace = rejected.trace;
  EXPECT_TRUE(lint_trace.retune.lint_rejected);
  EXPECT_TRUE(lint_trace.retune.degraded);
  EXPECT_FALSE(lint_trace.retune.repaired);
  EXPECT_EQ(linted.stage_stats().retune_lint_trips, 1u);
  EXPECT_EQ(linted.stage_stats().retune_repairs, 0u);

  GredConfig with_repair = lint_only;
  with_repair.enable_repair = true;
  Gred repairing(corpus_, &broken_retuner, with_repair);
  Gred::Translation rescued = repairing.Run(example->nlq, db->data);
  ASSERT_TRUE(rescued.dvq.ok()) << rescued.dvq.status().ToString();
  const Gred::Trace& trace = rescued.trace;
  EXPECT_TRUE(trace.retune.repaired);
  EXPECT_FALSE(trace.retune.lint_rejected);
  EXPECT_FALSE(trace.retune.degraded);
  EXPECT_EQ(repairing.stage_stats().retune_repairs, 1u);
  EXPECT_EQ(repairing.stage_stats().retune_lint_trips, 0u);
  // The accepted retuner DVQ is the repaired candidate: not the broken
  // text, and error-free against the schema.
  EXPECT_FALSE(trace.retune.dvq.empty());
  EXPECT_NE(trace.retune.dvq, broken_text);
  Result<dvq::DVQ> accepted = dvq::Parse(trace.retune.dvq);
  ASSERT_TRUE(accepted.ok());
  analysis::DvqAnalyzer analyzer(&db->data.db_schema());
  EXPECT_FALSE(analysis::HasErrors(analyzer.Analyze(accepted.value())));
}

}  // namespace
}  // namespace gred::core
