#ifndef GREDVIS_GRED_GRED_H_
#define GREDVIS_GRED_GRED_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "embed/caching_embedder.h"
#include "embed/embedder.h"
#include "llm/chat_model.h"
#include "models/model.h"
#include "models/retrieval.h"
#include "util/resource_guard.h"
#include "util/timing.h"

namespace gred::core {

/// Configuration of the GRED pipeline (Section 4).
struct GredConfig {
  /// Retrieval depth for both the NLQ and DVQ libraries (paper: K=10).
  std::size_t k = 10;
  /// Stage switches for the Table 4 ablations.
  bool enable_retuner = true;    // w/o RTN when false
  bool enable_debugger = true;   // w/o DBG when false
  /// Annotation-grounding ablation: when false the Debugger prompt ships
  /// the bare schema with no NL annotations, so hallucinated names can
  /// only be repaired by name similarity (Section 4.2 argues the
  /// annotations are what make the repair reliable).
  bool debugger_uses_annotations = true;
  /// Prompt example order: true = ascending similarity (most similar
  /// example adjacent to the question; the paper's choice), false =
  /// descending (ablation).
  bool ascending_prompt_order = true;
  /// Optional display-name suffix (" w/o RTN", ...).
  std::string name_suffix;
  /// Per-stage resource limits (util/resource_guard.h) applied when a
  /// stage's completion is validated: lex + parse work is charged in
  /// accounted ticks (one per token), so an oversized or pathologically
  /// nested LLM completion trips the budget deterministically. A tripped
  /// retuner/debugger stage degrades to the previous stage's DVQ exactly
  /// like an LLM failure (DESIGN.md §8); a tripped generator — which has
  /// no fallback — surfaces kResourceExhausted. Default: unlimited.
  GuardLimits stage_limits;
  /// Static analysis gate (DESIGN.md §12). When true, every retuner and
  /// debugger candidate DVQ is linted against the target database schema
  /// (analysis::DvqAnalyzer); a candidate carrying an error-level
  /// diagnostic is rejected exactly like a budget trip — the previous
  /// stage's DVQ carries forward — and the current DVQ's diagnostics are
  /// fed into the debugger prompt as structured repair evidence. Default
  /// off: the stock pipeline (and its outputs) stay byte-identical.
  bool enable_lint = false;
  /// Static repair gate (DESIGN.md §17), meaningful only with
  /// enable_lint. When true, a lint-rejected retuner/debugger candidate
  /// gets one deterministic repair attempt (analysis::DvqRepairer)
  /// before degradation: if the repairer converges to an error-free DVQ
  /// the repaired candidate is accepted (no degradation, no lint trip),
  /// otherwise the stage degrades as before. Default off: the lint-only
  /// pipeline stays byte-identical.
  bool enable_repair = false;
};

/// Per-call pipeline controls, for callers that must shed work on
/// some requests without rebuilding the pipeline (the serving layer's
/// brownout mode, DESIGN.md §16). A disabled stage is *skipped* — not
/// degraded: no LLM call is made, no degradation counter moves, and
/// the previous stage's DVQ carries forward exactly as if the stage
/// were disabled in GredConfig. Defaults run the full pipeline.
struct TranslateOptions {
  bool enable_retuner = true;
  bool enable_debugger = true;
};

/// Generates the natural-language annotation text for one database by
/// prompting `llm` with the Appendix C.1 prompt (preparation phase uses
/// zero penalties, per Section 5.1).
Result<std::string> GenerateAnnotations(const schema::Database& db,
                                        const llm::ChatModel& llm);

/// The GRED framework: NLQ-Retrieval Generator -> DVQ-Retrieval Retuner
/// -> Annotation-based Debugger, all through LLM prompts (Appendix C).
class Gred : public models::TextToVisModel {
 public:
  /// `corpus` supplies the embedding libraries (training split) and the
  /// clean databases whose schemas accompany in-context examples.
  /// `llm` is the chat model (not owned).
  Gred(const models::TrainingCorpus& corpus, const llm::ChatModel* llm,
       GredConfig config = {});

  std::string name() const override { return "GRED" + config_.name_suffix; }

  /// What one Retuner or Debugger run did. A stage accepts its LLM's DVQ
  /// only when it parses within GredConfig::stage_limits and, with
  /// enable_lint, lints clean or is repaired clean (enable_repair);
  /// otherwise it degrades: `dvq` stays empty (the stage produced
  /// nothing usable) and the previous stage's DVQ carries forward
  /// (DESIGN.md §8). A stage that did not run is all-default.
  struct StageTrace {
    std::string dvq;  // the accepted DVQ text
    bool degraded = false;
    /// Subset of degradations where the candidate parsed but the static
    /// analyzer found an error-level diagnostic.
    bool lint_rejected = false;
    /// The candidate was lint-rejected, then statically repaired to an
    /// error-free DVQ which was accepted. Excludes `lint_rejected` and
    /// `degraded`.
    bool repaired = false;
    bool operator==(const StageTrace&) const = default;
  };

  /// One call's intermediate artifacts (for the case study, the serving
  /// layer's per-request degradation flags, and tests). The generator
  /// has no fallback, so it has no degraded flag — its failures fail
  /// the call.
  struct Trace {
    std::string dvq_gen;
    StageTrace retune;
    StageTrace debug;
    bool operator==(const Trace&) const = default;
  };

  /// Run's result: the final DVQ (or the error that failed the call)
  /// and the call's own trace, filled as far as the pipeline got.
  struct Translation {
    Result<dvq::DVQ> dvq;
    Trace trace;
  };

  /// Translates one question: the single traced entry point.
  ///
  /// Thread-safe: concurrent calls share the annotation cache
  /// (mutex-guarded) and the immutable embedding libraries built in the
  /// constructor; each call's trace is its own.
  ///
  /// Fault tolerance: a retuner or debugger failure (LLM error after any
  /// retries, a completion with no extractable DVQ, a budget or lint
  /// trip, or a failed annotation fetch for the debugger) degrades the
  /// call instead of failing it. Only a generator failure, which leaves
  /// nothing to fall back to, returns an error.
  Translation Run(const std::string& nlq, const storage::DatabaseData& db,
                  const TranslateOptions& options = {}) const;

  /// The models::TextToVisModel interface (eval, baselines): Run's DVQ.
  Result<dvq::DVQ> Translate(const std::string& nlq,
                             const storage::DatabaseData& db) const override {
    return Run(nlq, db).dvq;
  }

  /// Preparatory phase, step 2 (Section 4.1): generates and caches the
  /// NL annotations for every given database up front, so Run never
  /// pays annotation latency. Returns the number of databases
  /// successfully annotated (cache hits included); failures — possible
  /// only with a fault-injecting LLM — are cached too (so the outcome is
  /// decided once, deterministically) and excluded from the count.
  Result<std::size_t> PrepareAnnotations(
      const std::vector<dataset::GeneratedDatabase>& databases) const;

  /// Cumulative wall time spent in each pipeline stage across every
  /// call on this instance (summed over threads in parallel runs).
  struct StageStats {
    double retrieval_seconds = 0.0;  // NLQ-Retrieval Generator
    double retune_seconds = 0.0;     // DVQ-Retrieval Retuner
    double debug_seconds = 0.0;      // Annotation-based Debugger
    std::uint64_t translate_calls = 0;
    /// Calls whose retuner / debugger stage fell back to the previous
    /// stage's DVQ (StageTrace::degraded).
    std::uint64_t retune_degraded = 0;
    std::uint64_t debug_degraded = 0;
    /// Subset of the degradations above caused specifically by the
    /// per-stage resource budget (GredConfig::stage_limits) tripping
    /// while validating the stage's completion.
    std::uint64_t retune_budget_trips = 0;
    std::uint64_t debug_budget_trips = 0;
    /// Degradations caused by the static analysis gate
    /// (StageTrace::lint_rejected; zero when linting is off).
    std::uint64_t retune_lint_trips = 0;
    std::uint64_t debug_lint_trips = 0;
    /// Lint-rejected candidates rescued by the static repairer and
    /// accepted (StageTrace::repaired; zero when repair is off).
    std::uint64_t retune_repairs = 0;
    std::uint64_t debug_repairs = 0;
  };
  StageStats stage_stats() const;

  /// The embedding libraries' fold counts, in the shape of the
  /// CachingEmbedder counters they replace: `misses` is the distinct NLQ
  /// and DVQ texts the preparatory phase embedded, `hits` the training
  /// rows folded into an earlier row with the same text. Fixed at
  /// construction: Run embeds each query afresh and keeps nothing.
  embed::CachingEmbedder::Stats embed_cache_stats() const;

  const GredConfig& config() const { return config_; }

 private:
  /// Cumulative counters of one degradable stage (see StageStats).
  struct StageCounters {
    AtomicDuration time;
    std::atomic<std::uint64_t> degraded{0};
    std::atomic<std::uint64_t> budget_trips{0};
    std::atomic<std::uint64_t> lint_trips{0};
    std::atomic<std::uint64_t> repairs{0};
  };

  /// Parses stage output under config_.stage_limits (one accounted tick
  /// per token); see GredConfig::stage_limits for the degradation
  /// contract. Unlimited limits parse unguarded.
  Result<dvq::DVQ> ParseWithinStageBudget(const std::string& text) const;

  /// The Retuner's and the Debugger's LLM completions for `current`
  /// (prompts C.3 and C.4).
  Result<std::string> RetuneCompletion(const std::string& current) const;
  Result<std::string> DebugCompletion(const std::string& current,
                                      const std::string& target_schema,
                                      const schema::Database& schema) const;

  /// The Retuner/Debugger acceptance rule (StageTrace): accepts the DVQ
  /// extracted from `completion` into `*current` or leaves `*current`
  /// as it is, and counts the outcome in `counters`.
  StageTrace AcceptStage(const Result<std::string>& completion,
                         const schema::Database& schema,
                         StageCounters* counters, std::string* current) const;

  /// Annotation collection, keyed by schema fingerprint (clean and
  /// perturbed corpora share database names but not schemas). Failures
  /// are cached alongside successes: a schema's annotation outcome is
  /// decided exactly once per Gred instance, which keeps fault-injected
  /// runs deterministic (later calls replay the cached outcome instead
  /// of re-drawing faults under racy thread interleavings).
  /// `schema_prompt` is `db.RenderSchemaPrompt()`, which the caller has
  /// already rendered; its FNV-1a hash is the cache key.
  Result<std::string> AnnotationsFor(const schema::Database& db,
                                     const std::string& schema_prompt) const;

  GredConfig config_;
  const llm::ChatModel* llm_;  // not owned
  const std::vector<dataset::GeneratedDatabase>* databases_;
  embed::SemanticHashEmbedder embedder_;
  std::unique_ptr<models::ExampleIndex> nlq_index_;
  std::unique_ptr<models::DvqIndex> dvq_index_;
  std::map<std::string, std::string> db_schema_prompts_;  // by db name
  /// Schema prompt per training example (nullptr when the example's
  /// database is unknown), resolved once at construction so Run
  /// never lower-cases a db name on the retrieval hot path.
  std::vector<const std::string*> example_schema_prompts_;
  mutable std::mutex annotation_mutex_;  // guards annotation_cache_
  mutable std::map<std::string, Result<std::string>> annotation_cache_;
  mutable AtomicDuration retrieval_time_;
  mutable std::atomic<std::uint64_t> translate_calls_{0};
  mutable StageCounters retuner_counters_;
  mutable StageCounters debugger_counters_;
};

}  // namespace gred::core

#endif  // GREDVIS_GRED_GRED_H_
