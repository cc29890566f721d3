#ifndef GREDVIS_BENCH_COMMON_H_
#define GREDVIS_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "dataset/benchmark.h"
#include "eval/metrics.h"
#include "gred/gred.h"
#include "llm/resilient.h"
#include "llm/sim_llm.h"
#include "models/model.h"
#include "models/rgvisnet.h"
#include "models/seq2vis.h"
#include "models/transformer.h"
#include "util/json.h"

namespace gred::bench {

/// Builds the fault/retry decorator stack around `base` from the given
/// knobs. With `fault_rate == 0` the stack is empty and `base` itself is
/// the active model (so fault-free runs are bit-identical to a run with
/// no decorators at all). With a nonzero rate the injector fires
/// transient faults at `fault_rate` and corrupts completions (truncation
/// and garbage prefixes) at half that rate each, and the retrier makes
/// up to `retries` attempts per call.
struct ResilientStack {
  std::unique_ptr<llm::FaultInjectingChatModel> injector;
  std::unique_ptr<llm::RetryingChatModel> retrier;
  const llm::ChatModel* active = nullptr;  // top of the stack (or `base`)
};
ResilientStack MakeResilientStack(const llm::ChatModel* base,
                                  double fault_rate, std::size_t retries);

/// Shared experiment context: the benchmark suite, the simulated LLM and
/// all four systems, built once per binary.
///
/// Environment overrides (for quick local runs):
///   GRED_BENCH_TRAIN_SIZE, GRED_BENCH_TEST_SIZE, GRED_BENCH_SEED
///   (suite shape) and GRED_BENCH_THREADS (eval worker count; default
///   hardware concurrency), all validated up front via util/env.h's
///   strict readers;
///   GRED_BENCH_FAULT_RATE (probability of an injected transient LLM
///   fault per call, default 0 = no fault layer) and
///   GRED_BENCH_RETRIES (LLM attempts per call when the fault layer is
///   active, default 3);
///   GRED_BENCH_DEADLINE (per-example accounted-tick deadline) and
///   GRED_BENCH_ROW_BUDGET (per-example materialized-row budget), both
///   default unset = unguarded — when set they arm the eval watchdog
///   and GRED's per-stage budgets (util/resource_guard.h);
///   GRED_BENCH_LINT=1 turns on the static analysis gate (DESIGN.md
///   §12): GRED rejects stage candidates carrying error-level
///   diagnostics, and eval tallies per-code diagnostics over every
///   parsed prediction (reported on stderr; stdout tables unchanged).
class BenchContext {
 public:
  BenchContext();

  const dataset::BenchmarkSuite& suite() const { return suite_; }
  const llm::SimulatedChatModel& llm() const { return llm_; }
  const models::TrainingCorpus& corpus() const { return corpus_; }

  /// The chat model GRED talks to: the bare simulated LLM, or the
  /// fault-injecting + retrying stack when GRED_BENCH_FAULT_RATE > 0.
  const llm::ChatModel* chat_model() const { return stack_.active; }
  double fault_rate() const { return fault_rate_; }
  std::size_t retries() const { return retries_; }

  /// Per-example resource limits from GRED_BENCH_DEADLINE /
  /// GRED_BENCH_ROW_BUDGET (all-zero when neither is set).
  const GuardLimits& guard_limits() const { return guard_limits_; }

  /// Whether GRED_BENCH_LINT armed the static analysis gate.
  bool lint() const { return lint_; }

  /// The three baselines, in paper order.
  std::vector<const models::TextToVisModel*> Baselines() const;

  const core::Gred& gred() const { return *gred_; }

  /// Builds a GRED variant for the ablation table (same chat model /
  /// fault stack as `gred()`).
  std::unique_ptr<core::Gred> MakeGred(core::GredConfig config) const;

  /// Builds a GRED variant against an explicit chat model (for fault
  /// sweeps that need a fresh decorator stack per configuration).
  std::unique_ptr<core::Gred> MakeGred(core::GredConfig config,
                                       const llm::ChatModel* chat) const;

 private:
  dataset::BenchmarkSuite suite_;
  llm::SimulatedChatModel llm_;
  double fault_rate_ = 0.0;
  std::size_t retries_ = 3;
  bool lint_ = false;
  GuardLimits guard_limits_;
  ResilientStack stack_;
  models::TrainingCorpus corpus_;
  std::unique_ptr<models::Seq2Vis> seq2vis_;
  std::unique_ptr<models::TransformerModel> transformer_;
  std::unique_ptr<models::RGVisNet> rgvisnet_;
  std::unique_ptr<core::Gred> gred_;
};

/// The report path of a sweep binary: its one optional argument, or
/// nullptr when it was run without one (tables only). More than one
/// argument prints usage and exits(2) before any work starts.
const char* ReportPathArg(int argc, char** argv);

/// Writes a sweep's final JSON report to `path`, stamped with
/// `generated_by` ("bench/<binary>"), `build_type` (CMAKE_BUILD_TYPE at
/// configure time), `tainted` (build type is not Release: the numbers
/// are written but must not be committed) and `host_cpus`
/// (HardwareThreads()). Returns false, after printing why, when the
/// file cannot be written.
bool WriteReport(json::Value report, const std::string& binary,
                 const char* path);

/// Prints one paper-style results table (Vis/Data/Axis/Overall columns).
void PrintResultsTable(const std::string& title,
                       const std::vector<eval::EvalResult>& results);

/// Runs every given model over a test set. `databases` must be the corpus
/// the test set's DVQs are written against.
///
/// Evaluation is parallel by default (GRED_BENCH_THREADS workers, else
/// hardware concurrency) and reports per-model wall clock plus a stage
/// breakdown (translate / execute, and for GRED the retrieval / retune /
/// debug pipeline stages) on stderr.
std::vector<eval::EvalResult> RunModels(
    const std::vector<const models::TextToVisModel*>& models,
    const std::vector<dataset::Example>& test,
    const std::vector<dataset::GeneratedDatabase>& databases,
    const std::string& test_set_name);

}  // namespace gred::bench

#endif  // GREDVIS_BENCH_COMMON_H_
