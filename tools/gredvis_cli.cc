// gredvis — unified command-line front end for the library.
//
//   gredvis stats                       dataset statistics (Figure 2)
//   gredvis schema <db>                 print a database schema
//   gredvis annotate <db>               LLM annotations for a database
//   gredvis translate <db> "<question>" run GRED on one question
//   gredvis eval <model> <set>          accuracy tables
//   gredvis export <dir>                dump the benchmark as JSON
//   gredvis serve                       long-lived NDJSON server on
//                                       stdin/stdout (DESIGN.md §13)
//
// Scale with GRED_BENCH_TRAIN_SIZE / GRED_BENCH_TEST_SIZE (defaults are
// CLI-friendly: 1500 train / 200 test). `serve` additionally reads
// GRED_SERVE_WORKERS, GRED_SERVE_QUEUE, GRED_SERVE_TIMINGS,
// GRED_SERVE_DEADLINE_MS, GRED_SERVE_ROW_BUDGET and the hardening
// knobs: GRED_SERVE_COST_GATE (static admission pricing: reject
// provably over-budget queries before any executor work, DESIGN.md
// §17), GRED_SERVE_BROWNOUT_HIGH / GRED_SERVE_BROWNOUT_LOW /
// GRED_SERVE_BROWNOUT_DEADLINE_MS / GRED_SERVE_BROWNOUT_ROW_BUDGET
// (brownout load-shedding), GRED_SERVE_RATE / GRED_SERVE_RATE_BURST
// (per-session token buckets), GRED_SERVE_BREAKER_FAILURES /
// GRED_SERVE_BREAKER_COOLDOWN (circuit breaker around the LLM stack).
// All knobs are validated strictly (util/env.h): a malformed value
// prints a message and exits 2 rather than silently running on the
// wrong configuration. SIGTERM/SIGINT drain gracefully: no new
// admissions, every admitted request answered, then exit.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "dataset/benchmark.h"
#include "dataset/io.h"
#include "eval/metrics.h"
#include "gred/gred.h"
#include "llm/circuit_breaker.h"
#include "llm/resilient.h"
#include "llm/sim_llm.h"
#include "models/rgvisnet.h"
#include "models/seq2vis.h"
#include "models/transformer.h"
#include "serve/server.h"
#include "util/env.h"
#include "util/strings.h"
#include "util/table_printer.h"
#include "dvq/sql.h"
#include "viz/chart.h"
#include "viz/svg.h"

namespace {

using namespace gred;

/// Set by the SIGTERM/SIGINT handler; ServeStream checks it before each
/// blocking read. Registered without SA_RESTART so the signal interrupts
/// the read instead of resuming it — the only async-signal work done is
/// this store.
std::atomic<bool> g_stop{false};

void HandleStopSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

int Usage() {
  std::fprintf(
      stderr,
      "usage: gredvis <command> [args]\n"
      "  stats                     dataset statistics (Figure 2)\n"
      "  schema <db>               print a database schema\n"
      "  annotate <db>             LLM annotations for a database\n"
      "  translate <db> <question> run GRED on one question\n"
      "  eval <model> <set>        model in {seq2vis,transformer,rgvisnet,"
      "gred}; set in {clean,nlq,schema,both}\n"
      "  export <dir>              dump the benchmark as JSON\n"
      "  serve                     NDJSON request/response loop on "
      "stdin/stdout\n");
  return 2;
}

dataset::BenchmarkSuite BuildSuite() {
  dataset::BenchmarkOptions options;
  options.train_size = EnvSizeOrDie("GRED_BENCH_TRAIN_SIZE", 1500);
  options.test_size = EnvSizeOrDie("GRED_BENCH_TEST_SIZE", 200);
  std::fprintf(stderr, "[gredvis] building suite (%zu train / %zu test)\n",
               options.train_size, options.test_size);
  return dataset::BuildBenchmarkSuite(options);
}

int CmdStats() {
  dataset::BenchmarkSuite suite = BuildSuite();
  dataset::DatasetStats stats =
      dataset::ComputeStats(suite.test_clean, suite.databases);
  TablePrinter table({"Metric", "Value"});
  for (const auto& [chart, count] : stats.by_chart) {
    table.AddRow({"chart: " + chart, std::to_string(count)});
  }
  for (const auto& [level, count] : stats.by_hardness) {
    table.AddRow({"hardness: " + level, std::to_string(count)});
  }
  table.AddRow({"databases", std::to_string(stats.num_databases)});
  table.AddRow({"tables", std::to_string(stats.num_tables)});
  table.AddRow({"columns", std::to_string(stats.num_columns)});
  table.AddRow({"avg tables/db",
                strings::Format("%.2f", stats.avg_tables_per_db)});
  table.AddRow({"avg columns/table",
                strings::Format("%.2f", stats.avg_columns_per_table)});
  std::printf("%s", table.ToString().c_str());
  return 0;
}

int CmdSchema(const std::string& db_name) {
  dataset::BenchmarkSuite suite = BuildSuite();
  const dataset::GeneratedDatabase* db = suite.FindCleanDb(db_name);
  if (db == nullptr) {
    std::fprintf(stderr, "unknown database '%s'\n", db_name.c_str());
    return 1;
  }
  std::printf("%s", db->data.db_schema().RenderSchemaPrompt().c_str());
  return 0;
}

int CmdAnnotate(const std::string& db_name) {
  dataset::BenchmarkSuite suite = BuildSuite();
  const dataset::GeneratedDatabase* db = suite.FindCleanDb(db_name);
  if (db == nullptr) {
    std::fprintf(stderr, "unknown database '%s'\n", db_name.c_str());
    return 1;
  }
  llm::SimulatedChatModel llm;
  Result<std::string> annotations =
      core::GenerateAnnotations(db->data.db_schema(), llm);
  if (!annotations.ok()) {
    std::fprintf(stderr, "%s\n", annotations.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", annotations.value().c_str());
  return 0;
}

int CmdTranslate(const std::string& db_name, const std::string& question) {
  dataset::BenchmarkSuite suite = BuildSuite();
  const dataset::GeneratedDatabase* db = suite.FindCleanDb(db_name);
  if (db == nullptr) {
    std::fprintf(stderr, "unknown database '%s'\n", db_name.c_str());
    return 1;
  }
  llm::SimulatedChatModel llm;
  // GRED_BENCH_FAULT_RATE > 0 wires the fault-injecting + retrying stack
  // in front of the LLM (same knobs as the bench harness), to watch the
  // pipeline degrade on a single question.
  double fault_rate = EnvRateOrDie("GRED_BENCH_FAULT_RATE", 0.0);
  llm::FaultConfig faults;
  faults.transient_rate = fault_rate;
  faults.truncate_rate = fault_rate / 2;
  faults.garbage_rate = fault_rate / 2;
  llm::FaultInjectingChatModel faulty(&llm, faults);
  llm::RetryConfig retry;
  retry.max_attempts = EnvSizeOrDie("GRED_BENCH_RETRIES", 3);
  llm::RetryingChatModel retrying(&faulty, retry);
  const llm::ChatModel* chat = fault_rate > 0.0
                                   ? static_cast<const llm::ChatModel*>(
                                         &retrying)
                                   : &llm;
  models::TrainingCorpus corpus;
  corpus.train = &suite.train;
  corpus.databases = &suite.databases;
  core::Gred gred(corpus, chat);
  const core::Gred::Translation translation = gred.Run(question, db->data);
  const core::Gred::Trace& trace = translation.trace;
  if (!translation.dvq.ok()) {
    std::fprintf(stderr, "translation failed: %s\n",
                 translation.dvq.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "[gredvis] generator: %s\n", trace.dvq_gen.c_str());
  std::fprintf(stderr, "[gredvis] retuner:   %s\n",
               trace.retune.degraded ? "(degraded; generator DVQ kept)"
                                     : trace.retune.dvq.c_str());
  std::fprintf(stderr, "[gredvis] debugger:  %s\n",
               trace.debug.degraded ? "(degraded; previous DVQ kept)"
                                    : trace.debug.dvq.c_str());
  const dvq::DVQ& dvq = translation.dvq.value();
  std::printf("DVQ: %s\n", dvq.ToString().c_str());
  std::printf("SQL: %s\n", dvq::ToSql(dvq).c_str());
  Result<viz::Chart> chart = viz::BuildChart(dvq, db->data);
  if (!chart.ok()) {
    std::printf("no chart produced: %s\n",
                chart.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", viz::RenderAscii(chart.value()).c_str());
  return 0;
}

int CmdServe() {
  dataset::BenchmarkSuite suite = BuildSuite();
  llm::SimulatedChatModel llm;
  // The same optional fault/retry stack as `translate`, so a serve
  // session can be exercised under injected LLM faults.
  double fault_rate = EnvRateOrDie("GRED_BENCH_FAULT_RATE", 0.0);
  llm::FaultConfig faults;
  faults.transient_rate = fault_rate;
  faults.truncate_rate = fault_rate / 2;
  faults.garbage_rate = fault_rate / 2;
  llm::FaultInjectingChatModel faulty(&llm, faults);
  llm::RetryConfig retry;
  retry.max_attempts = EnvSizeOrDie("GRED_BENCH_RETRIES", 3);
  llm::RetryingChatModel retrying(&faulty, retry);
  const llm::ChatModel* chat =
      fault_rate > 0.0 ? static_cast<const llm::ChatModel*>(&retrying) : &llm;

  // Optional circuit breaker around whatever the stack is so far: stops
  // hammering a dead backend instead of burning the retry budget on
  // every request (DESIGN.md §16). 0 = off.
  serve::ServerOptions options;
  std::unique_ptr<llm::CircuitBreakerChatModel> breaker;
  std::uint64_t breaker_failures =
      EnvCountOrDie("GRED_SERVE_BREAKER_FAILURES", 0);
  if (breaker_failures > 0) {
    llm::BreakerConfig config;
    config.failure_threshold = static_cast<std::size_t>(breaker_failures);
    config.open_cooldown = static_cast<std::size_t>(
        EnvCountOrDie("GRED_SERVE_BREAKER_COOLDOWN", 8));
    breaker = std::make_unique<llm::CircuitBreakerChatModel>(chat, config);
    chat = breaker.get();
    options.breaker = breaker.get();
  }

  models::TrainingCorpus corpus;
  corpus.train = &suite.train;
  corpus.databases = &suite.databases;
  core::Gred gred(corpus, chat);
  // Annotations resolve up front (preparation phase), so no request
  // pays annotation latency and concurrent sessions stay deterministic.
  Result<std::size_t> annotated = gred.PrepareAnnotations(suite.databases);
  if (annotated.ok()) {
    std::fprintf(stderr, "[gredvis] annotated %zu databases\n",
                 annotated.value());
  }

  options.num_workers =
      static_cast<std::size_t>(EnvCountOrDie("GRED_SERVE_WORKERS", 0));
  options.queue_capacity = EnvSizeOrDie("GRED_SERVE_QUEUE", 64);
  options.include_timings = EnvFlagOrDie("GRED_SERVE_TIMINGS", true);
  options.default_limits.deadline_ticks =
      EnvCountOrDie("GRED_SERVE_DEADLINE_MS", 0) *
      serve::kAccountedTicksPerMs;
  options.default_limits.row_budget =
      EnvCountOrDie("GRED_SERVE_ROW_BUDGET", 0);
  // Static admission pricing against the effective per-request limits.
  options.cost_gate = EnvFlagOrDie("GRED_SERVE_COST_GATE", false);
  // Brownout watermarks + the tighter limits applied while browned out.
  options.brownout_high_watermark = static_cast<std::size_t>(
      EnvCountOrDie("GRED_SERVE_BROWNOUT_HIGH", 0));
  options.brownout_low_watermark = static_cast<std::size_t>(
      EnvCountOrDie("GRED_SERVE_BROWNOUT_LOW", 0));
  options.brownout_limits.deadline_ticks =
      EnvCountOrDie("GRED_SERVE_BROWNOUT_DEADLINE_MS", 0) *
      serve::kAccountedTicksPerMs;
  options.brownout_limits.row_budget =
      EnvCountOrDie("GRED_SERVE_BROWNOUT_ROW_BUDGET", 0);
  // Per-session token buckets (both knobs > 0 to arm).
  options.rate_refill_per_request = EnvRateOrDie("GRED_SERVE_RATE", 0.0);
  options.rate_burst =
      static_cast<double>(EnvCountOrDie("GRED_SERVE_RATE_BURST", 0));

  // `{"type":"reload"}` rebuilds the suite and pipeline from the same
  // environment configuration and swaps it in as a new epoch; requests
  // already admitted finish on the epoch they started with.
  options.reload_handler = [chat]() -> Result<serve::EpochPayload> {
    auto new_suite =
        std::make_shared<dataset::BenchmarkSuite>(BuildSuite());
    models::TrainingCorpus new_corpus;
    new_corpus.train = &new_suite->train;
    new_corpus.databases = &new_suite->databases;
    auto new_gred = std::make_shared<core::Gred>(new_corpus, chat);
    Result<std::size_t> prepared =
        new_gred->PrepareAnnotations(new_suite->databases);
    if (!prepared.ok()) return prepared.status();
    serve::EpochPayload payload;
    payload.suite = std::move(new_suite);
    payload.gred = std::move(new_gred);
    return payload;
  };

  serve::Server server(&suite, &gred, options);

  // Graceful drain on SIGTERM/SIGINT: the handler flips g_stop and —
  // registered without SA_RESTART — interrupts the blocking stdin read;
  // ServeStream then closes the queue, answers everything admitted and
  // returns. Requests arriving mid-drain get {"error":"shutting_down"}.
  struct sigaction action = {};
  action.sa_handler = HandleStopSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately no SA_RESTART
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  std::fprintf(stderr,
               "[gredvis] serving on stdin/stdout (%zu workers, queue %zu)\n",
               server.options().num_workers, server.options().queue_capacity);
  int rc = server.ServeStream(std::cin, std::cout, &g_stop);
  serve::ServerStats stats = server.stats();
  std::fprintf(stderr,
               "[gredvis] served %llu requests (%llu ok, %llu failed, "
               "%llu invalid, %llu shed, %llu rate-limited, "
               "%llu during drain, %llu browned out, %llu reloads)\n",
               static_cast<unsigned long long>(stats.received),
               static_cast<unsigned long long>(stats.completed),
               static_cast<unsigned long long>(stats.failed),
               static_cast<unsigned long long>(stats.rejected_invalid),
               static_cast<unsigned long long>(stats.rejected_overload),
               static_cast<unsigned long long>(stats.rejected_ratelimit),
               static_cast<unsigned long long>(stats.rejected_shutdown),
               static_cast<unsigned long long>(stats.degraded_brownout),
               static_cast<unsigned long long>(stats.reloads_ok));
  if (g_stop.load(std::memory_order_relaxed)) {
    std::fprintf(stderr, "[gredvis] drained after signal\n");
  }
  return rc;
}

int CmdEval(const std::string& model_name, const std::string& set_name) {
  dataset::BenchmarkSuite suite = BuildSuite();
  models::TrainingCorpus corpus;
  corpus.train = &suite.train;
  corpus.databases = &suite.databases;
  llm::SimulatedChatModel llm;
  std::unique_ptr<models::TextToVisModel> model;
  if (model_name == "seq2vis") {
    model = std::make_unique<models::Seq2Vis>(corpus);
  } else if (model_name == "transformer") {
    model = std::make_unique<models::TransformerModel>(corpus);
  } else if (model_name == "rgvisnet") {
    model = std::make_unique<models::RGVisNet>(corpus);
  } else if (model_name == "gred") {
    model = std::make_unique<core::Gred>(corpus, &llm);
  } else {
    std::fprintf(stderr, "unknown model '%s'\n", model_name.c_str());
    return 1;
  }
  const std::vector<dataset::Example>* test = nullptr;
  const std::vector<dataset::GeneratedDatabase>* dbs = nullptr;
  if (set_name == "clean") {
    test = &suite.test_clean;
    dbs = &suite.databases;
  } else if (set_name == "nlq") {
    test = &suite.test_nlq;
    dbs = &suite.databases;
  } else if (set_name == "schema") {
    test = &suite.test_schema;
    dbs = &suite.databases_rob;
  } else if (set_name == "both") {
    test = &suite.test_both;
    dbs = &suite.databases_rob;
  } else {
    std::fprintf(stderr, "unknown test set '%s'\n", set_name.c_str());
    return 1;
  }
  eval::EvalResult result = eval::Evaluate(*model, *test, *dbs, set_name);
  TablePrinter table({"Vis Acc.", "Data Acc.", "Axis Acc.", "Acc.",
                      "Exec Acc."});
  table.AddRow({FormatPercent(result.counts.VisAcc()),
                FormatPercent(result.counts.DataAcc()),
                FormatPercent(result.counts.AxisAcc()),
                FormatPercent(result.counts.OverallAcc()),
                FormatPercent(result.counts.ExecutionAcc())});
  std::printf("%s on %s (%zu examples)\n%s", result.model_name.c_str(),
              set_name.c_str(), result.counts.total,
              table.ToString().c_str());
  return 0;
}

int CmdExport(const std::string& dir) {
  if (std::system(("mkdir -p " + dir).c_str()) != 0) {
    std::fprintf(stderr, "cannot create %s\n", dir.c_str());
    return 1;
  }
  dataset::BenchmarkSuite suite = BuildSuite();
  struct Split {
    const char* name;
    const std::vector<dataset::Example>* examples;
  };
  const Split kSplits[] = {
      {"train", &suite.train},          {"test_clean", &suite.test_clean},
      {"test_nlq", &suite.test_nlq},    {"test_schema", &suite.test_schema},
      {"test_both", &suite.test_both},
  };
  for (const Split& split : kSplits) {
    std::string path = dir + "/" + split.name + ".json";
    Status status = dataset::WriteJsonFile(
        path, dataset::ExamplesToJson(*split.examples));
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu examples)\n", path.c_str(),
                split.examples->size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  if (command == "stats") return CmdStats();
  if (command == "schema" && argc >= 3) return CmdSchema(argv[2]);
  if (command == "annotate" && argc >= 3) return CmdAnnotate(argv[2]);
  if (command == "translate" && argc >= 4) {
    return CmdTranslate(argv[2], argv[3]);
  }
  if (command == "eval" && argc >= 4) return CmdEval(argv[2], argv[3]);
  if (command == "export" && argc >= 3) return CmdExport(argv[2]);
  if (command == "serve") return CmdServe();
  return Usage();
}
