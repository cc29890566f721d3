#include "gred/gred.h"

#include <algorithm>

#include "analysis/analyzer.h"
#include "analysis/repairer.h"
#include "dvq/parser.h"
#include "llm/prompt.h"
#include "util/rng.h"
#include "util/strings.h"

namespace gred::core {

namespace {

/// Working-phase sampling parameters (Section 5.1).
llm::ChatOptions WorkingOptions() {
  llm::ChatOptions options;
  options.temperature = 0.0;
  options.frequency_penalty = -0.5;
  options.presence_penalty = -0.5;
  return options;
}

/// Preparation-phase sampling parameters (Section 5.1).
llm::ChatOptions PreparationOptions() {
  return llm::ChatOptions{};  // all zeros
}

}  // namespace

Result<std::string> GenerateAnnotations(const schema::Database& db,
                                        const llm::ChatModel& llm) {
  llm::Prompt prompt = llm::BuildAnnotationPrompt(db);
  return llm.Complete(prompt, PreparationOptions());
}

Gred::Gred(const models::TrainingCorpus& corpus, const llm::ChatModel* llm,
           GredConfig config)
    : config_(std::move(config)), llm_(llm), databases_(corpus.databases) {
  // Preparatory phase (Section 4.1): the embedding vector library over
  // the training split's NLQs and DVQs, built with the semantic embedder
  // (the stand-in for text-embedding-3-large). Each library embeds a
  // repeated text once; queries are embedded afresh on every call.
  nlq_index_ = std::make_unique<models::ExampleIndex>(corpus.train, &embedder_);
  dvq_index_ = std::make_unique<models::DvqIndex>(corpus.train, &embedder_);
  for (const dataset::GeneratedDatabase& db : *corpus.databases) {
    db_schema_prompts_[strings::ToLower(db.data.name())] =
        db.data.db_schema().RenderSchemaPrompt();
  }
  // Resolve each training example's schema prompt once (db names need
  // lower-casing); Translate used to redo this on every retrieval hit.
  example_schema_prompts_.reserve(corpus.train->size());
  for (const dataset::Example& ex : *corpus.train) {
    auto it = db_schema_prompts_.find(strings::ToLower(ex.db_name));
    example_schema_prompts_.push_back(
        it == db_schema_prompts_.end() ? nullptr : &it->second);
  }
}

Result<std::string> Gred::AnnotationsFor(
    const schema::Database& db, const std::string& schema_prompt) const {
  std::string fingerprint = strings::Format(
      "%016llx", static_cast<unsigned long long>(Fnv1a64(schema_prompt)));
  {
    std::lock_guard<std::mutex> lock(annotation_mutex_);
    auto it = annotation_cache_.find(fingerprint);
    if (it != annotation_cache_.end()) return it->second;
  }
  // Generate outside the lock so a miss does not serialize concurrent
  // Translate calls on other databases. The outcome — success or failure
  // — is cached either way: the first insert wins, so every later call
  // replays the same result (with a fault-injecting LLM this is what
  // keeps a schema's annotation fate independent of thread interleaving).
  Result<std::string> annotations = GenerateAnnotations(db, *llm_);
  std::lock_guard<std::mutex> lock(annotation_mutex_);
  return annotation_cache_.emplace(fingerprint, std::move(annotations))
      .first->second;
}

Result<std::size_t> Gred::PrepareAnnotations(
    const std::vector<dataset::GeneratedDatabase>& databases) const {
  std::size_t annotated = 0;
  for (const dataset::GeneratedDatabase& db : databases) {
    const schema::Database& schema = db.data.db_schema();
    if (AnnotationsFor(schema, schema.RenderSchemaPrompt()).ok()) {
      ++annotated;
    }
  }
  return annotated;
}

embed::CachingEmbedder::Stats Gred::embed_cache_stats() const {
  const std::size_t distinct =
      nlq_index_->distinct_size() + dvq_index_->distinct_size();
  return {.hits = nlq_index_->size() + dvq_index_->size() - distinct,
          .misses = distinct};
}

Gred::StageStats Gred::stage_stats() const {
  auto load = [](const std::atomic<std::uint64_t>& n) {
    return n.load(std::memory_order_relaxed);
  };
  const StageCounters& rtn = retuner_counters_;
  const StageCounters& dbg = debugger_counters_;
  return {.retrieval_seconds = retrieval_time_.seconds(),
          .retune_seconds = rtn.time.seconds(),
          .debug_seconds = dbg.time.seconds(),
          .translate_calls = load(translate_calls_),
          .retune_degraded = load(rtn.degraded),
          .debug_degraded = load(dbg.degraded),
          .retune_budget_trips = load(rtn.budget_trips),
          .debug_budget_trips = load(dbg.budget_trips),
          .retune_lint_trips = load(rtn.lint_trips),
          .debug_lint_trips = load(dbg.lint_trips),
          .retune_repairs = load(rtn.repairs),
          .debug_repairs = load(dbg.repairs)};
}

/// Validates a stage's DVQ text under the configured per-stage budget.
/// With unlimited stage_limits this is a plain Parse — bit-identical to
/// the pre-guard pipeline, and never kResourceExhausted.
Result<dvq::DVQ> Gred::ParseWithinStageBudget(const std::string& text) const {
  if (config_.stage_limits.Unlimited()) return dvq::Parse(text);
  ExecContext guard(config_.stage_limits);
  return dvq::Parse(text, &guard);
}

Gred::StageTrace Gred::AcceptStage(const Result<std::string>& completion,
                                   const schema::Database& schema,
                                   StageCounters* counters,
                                   std::string* current) const {
  // A truncated/corrupted/oversized completion must not replace a
  // healthy DVQ. With enable_lint the bar rises: a candidate the
  // analyzer proves broken against the schema (error-level diagnostic)
  // is rejected exactly like a budget trip, unless enable_repair's one
  // deterministic repair attempt (DESIGN.md §17) makes it error-free.
  StageTrace stage;
  std::string candidate =
      completion.ok() ? llm::ExtractDvqText(completion.value()) : "";
  Result<dvq::DVQ> parsed =
      candidate.empty()
          ? Result<dvq::DVQ>(Status::ParseError("stage produced no DVQ"))
          : ParseWithinStageBudget(candidate);
  if (parsed.ok() && config_.enable_lint) {
    analysis::DvqAnalyzer analyzer(&schema);
    stage.lint_rejected = analysis::HasErrors(analyzer.Analyze(parsed.value()));
    if (stage.lint_rejected && config_.enable_repair) {
      analysis::DvqRepairer repairer(&schema);
      analysis::RepairResult repaired = repairer.Repair(parsed.value());
      if (repaired.success) {
        candidate = repaired.dvq.ToString();
        stage.lint_rejected = false;
        stage.repaired = true;
        counters->repairs.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (!parsed.ok() || stage.lint_rejected) {
    stage.degraded = true;
    counters->degraded.fetch_add(1, std::memory_order_relaxed);
    if (parsed.status().IsResourceExhausted()) {
      counters->budget_trips.fetch_add(1, std::memory_order_relaxed);
    }
    if (stage.lint_rejected) {
      counters->lint_trips.fetch_add(1, std::memory_order_relaxed);
    }
    return stage;
  }
  stage.dvq = candidate;
  *current = std::move(candidate);
  return stage;
}

Result<std::string> Gred::RetuneCompletion(const std::string& current) const {
  std::vector<models::DvqIndex::Hit> hits =
      dvq_index_->TopK(current, config_.k);
  std::vector<std::string> references;
  references.reserve(hits.size());
  for (const models::DvqIndex::Hit& hit : hits) {
    references.push_back(hit.example->DvqText());
  }
  return llm_->Complete(llm::BuildRetunePrompt(references, current),
                        WorkingOptions());
}

Result<std::string> Gred::DebugCompletion(
    const std::string& current, const std::string& target_schema,
    const schema::Database& schema) const {
  // An annotation-generation failure (cached per schema) fails the
  // stage like a failed completion: no debugger prompt is sent.
  std::string annotations;
  if (config_.debugger_uses_annotations) {
    Result<std::string> fetched = AnnotationsFor(schema, target_schema);
    if (!fetched.ok()) return fetched.status();
    annotations = std::move(fetched).value();
  }
  // With linting on, the debugger does not rediscover schema mismatches
  // from the annotations alone: the analyzer's findings on the incoming
  // DVQ ride along in the prompt as structured repair evidence (empty
  // findings leave the prompt byte-identical to the stock C.4 prompt).
  std::string lint_findings;
  if (config_.enable_lint) {
    Result<dvq::DVQ> incoming = dvq::Parse(current);
    if (incoming.ok()) {
      analysis::DvqAnalyzer analyzer(&schema);
      lint_findings =
          analysis::RenderDiagnostics(analyzer.Analyze(incoming.value()));
    }
  }
  return llm_->Complete(llm::BuildDebugPrompt(target_schema, annotations,
                                              current, lint_findings),
                        WorkingOptions());
}

Gred::Translation Gred::Run(const std::string& nlq,
                            const storage::DatabaseData& db,
                            const TranslateOptions& options) const {
  Trace trace;
  translate_calls_.fetch_add(1, std::memory_order_relaxed);

  // --- NLQ-Retrieval Generator -------------------------------------------
  std::string target_schema;
  {
    ScopedTimer timer(&retrieval_time_);
    std::vector<models::ExampleIndex::Hit> hits =
        nlq_index_->TopK(nlq, config_.k);
    if (hits.empty()) {
      return {Status::NotFound("GRED: empty embedding library"), trace};
    }
    // hits are descending by similarity; the paper assembles the prompt in
    // ascending order so the most similar example sits next to the
    // question.
    if (config_.ascending_prompt_order) {
      std::reverse(hits.begin(), hits.end());
    }
    std::vector<llm::GenerationExample> examples;
    examples.reserve(hits.size());
    for (const models::ExampleIndex::Hit& hit : hits) {
      llm::GenerationExample ex;
      const std::string* schema_prompt = example_schema_prompts_[hit.index];
      if (schema_prompt != nullptr) {
        ex.schema_prompt = *schema_prompt;
      }
      ex.nlq = hit.example->nlq;
      ex.dvq = hit.example->DvqText();
      examples.push_back(std::move(ex));
    }
    target_schema = db.db_schema().RenderSchemaPrompt();
    llm::Prompt gen_prompt =
        llm::BuildGenerationPrompt(examples, target_schema, nlq);
    Result<std::string> gen_completion =
        llm_->Complete(gen_prompt, WorkingOptions());
    if (!gen_completion.ok()) return {gen_completion.status(), trace};
    trace.dvq_gen = llm::ExtractDvqText(gen_completion.value());
    if (trace.dvq_gen.empty()) {
      return {Status::ExecutionError("GRED: generator produced no DVQ"),
              trace};
    }
  }
  std::string current = trace.dvq_gen;

  // --- DVQ-Retrieval Retuner, Annotation-based Debugger -----------------
  if (config_.enable_retuner && options.enable_retuner) {
    ScopedTimer timer(&retuner_counters_.time);
    trace.retune = AcceptStage(RetuneCompletion(current), db.db_schema(),
                               &retuner_counters_, &current);
  }
  if (config_.enable_debugger && options.enable_debugger) {
    ScopedTimer timer(&debugger_counters_.time);
    trace.debug =
        AcceptStage(DebugCompletion(current, target_schema, db.db_schema()),
                    db.db_schema(), &debugger_counters_, &current);
  }

  // The final parse is the generator-or-survivor DVQ: there is nothing
  // to fall back to, so a tripped budget here surfaces as a typed
  // kResourceExhausted (the generator-failure convention).
  return {ParseWithinStageBudget(current), std::move(trace)};
}

}  // namespace gred::core
