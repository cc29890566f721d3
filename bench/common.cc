#include "bench/common.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "util/env.h"
#include "util/strings.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace gred::bench {

ResilientStack MakeResilientStack(const llm::ChatModel* base,
                                  double fault_rate, std::size_t retries) {
  ResilientStack stack;
  if (fault_rate <= 0.0) {
    stack.active = base;
    return stack;
  }
  llm::FaultConfig faults;
  faults.transient_rate = fault_rate;
  faults.truncate_rate = fault_rate / 2;
  faults.garbage_rate = fault_rate / 2;
  stack.injector =
      std::make_unique<llm::FaultInjectingChatModel>(base, faults);
  llm::RetryConfig retry;
  retry.max_attempts = retries;
  stack.retrier = std::make_unique<llm::RetryingChatModel>(
      stack.injector.get(), retry);
  stack.active = stack.retrier.get();
  return stack;
}

BenchContext::BenchContext() {
  dataset::BenchmarkOptions options;
  options.train_size =
      EnvSizeOrDie("GRED_BENCH_TRAIN_SIZE", options.train_size);
  options.test_size = EnvSizeOrDie("GRED_BENCH_TEST_SIZE", options.test_size);
  options.seed = EnvSizeOrDie("GRED_BENCH_SEED", options.seed);
  // Validate every override up front so a typo aborts before the
  // (expensive) suite build instead of mid-run inside eval::Evaluate.
  std::size_t threads = EnvSizeOrDie("GRED_BENCH_THREADS", HardwareThreads());
  fault_rate_ = EnvRateOrDie("GRED_BENCH_FAULT_RATE", 0.0);
  retries_ = EnvSizeOrDie("GRED_BENCH_RETRIES", 3);
  guard_limits_.deadline_ticks = EnvSizeOrDie("GRED_BENCH_DEADLINE", 0);
  guard_limits_.row_budget = EnvSizeOrDie("GRED_BENCH_ROW_BUDGET", 0);
  lint_ = EnvFlagOrDie("GRED_BENCH_LINT", false);
  stack_ = MakeResilientStack(&llm_, fault_rate_, retries_);
  std::fprintf(stderr,
               "[bench] building suite: %zu databases, %zu train, %zu test "
               "(%zu eval threads)\n",
               options.num_databases, options.train_size, options.test_size,
               threads);
  if (fault_rate_ > 0.0) {
    std::fprintf(stderr,
                 "[bench] fault injection on: rate %.3f, %zu attempts/call\n",
                 fault_rate_, retries_);
  }
  if (!guard_limits_.Unlimited()) {
    std::fprintf(stderr,
                 "[bench] resource guard on: deadline %llu ticks, "
                 "row budget %llu (0 = unlimited)\n",
                 static_cast<unsigned long long>(guard_limits_.deadline_ticks),
                 static_cast<unsigned long long>(guard_limits_.row_budget));
  }
  if (lint_) {
    std::fprintf(stderr,
                 "[bench] static analysis gate on: GRED rejects error-level "
                 "candidates; eval tallies diagnostics\n");
  }
  suite_ = dataset::BuildBenchmarkSuite(options);
  corpus_.train = &suite_.train;
  corpus_.databases = &suite_.databases;
  std::fprintf(stderr, "[bench] training baselines...\n");
  seq2vis_ = std::make_unique<models::Seq2Vis>(corpus_);
  transformer_ = std::make_unique<models::TransformerModel>(corpus_);
  rgvisnet_ = std::make_unique<models::RGVisNet>(corpus_);
  core::GredConfig gred_config;
  gred_config.stage_limits = guard_limits_;
  gred_config.enable_lint = lint_;
  gred_ = std::make_unique<core::Gred>(corpus_, stack_.active,
                                       std::move(gred_config));
  std::fprintf(stderr, "[bench] ready\n");
}

std::vector<const models::TextToVisModel*> BenchContext::Baselines() const {
  return {seq2vis_.get(), transformer_.get(), rgvisnet_.get()};
}

std::unique_ptr<core::Gred> BenchContext::MakeGred(
    core::GredConfig config) const {
  return MakeGred(std::move(config), stack_.active);
}

std::unique_ptr<core::Gred> BenchContext::MakeGred(
    core::GredConfig config, const llm::ChatModel* chat) const {
  // Variants inherit the context-wide guard unless the caller set an
  // explicit per-stage budget; with the env knobs unset this is a no-op.
  if (config.stage_limits.Unlimited()) config.stage_limits = guard_limits_;
  if (lint_) config.enable_lint = true;
  return std::make_unique<core::Gred>(corpus_, chat, std::move(config));
}

const char* ReportPathArg(int argc, char** argv) {
  if (argc > 2) {
    std::fprintf(stderr, "usage: %s [REPORT_JSON]\n", argv[0]);
    std::exit(2);
  }
  return argc == 2 ? argv[1] : nullptr;
}

bool WriteReport(json::Value report, const std::string& binary,
                 const char* path) {
  const std::string build_type =
      GRED_BUILD_TYPE[0] != '\0' ? GRED_BUILD_TYPE : "unknown";
  const bool tainted = build_type != "Release";
  if (tainted) {
    std::fprintf(stderr,
                 "[bench] WARNING: build type is '%s', not Release; the "
                 "report is marked \"tainted\": true\n",
                 build_type.c_str());
  }
  report.Set("generated_by", json::Value::Str("bench/" + binary));
  report.Set("build_type", json::Value::Str(build_type));
  report.Set("tainted", json::Value::Bool(tainted));
  report.Set("host_cpus",
             json::Value::Int(static_cast<std::int64_t>(HardwareThreads())));
  std::ofstream out(path);
  out << report.Dump(2) << '\n';
  if (!out) {
    std::fprintf(stderr, "[bench] FAIL: could not write %s\n", path);
    return false;
  }
  std::printf("wrote %s\n", path);
  return true;
}

void PrintResultsTable(const std::string& title,
                       const std::vector<eval::EvalResult>& results) {
  std::printf("\n%s\n", title.c_str());
  TablePrinter table({"Model", "Vis Acc.", "Data Acc.", "Axis Acc.", "Acc."});
  for (const eval::EvalResult& r : results) {
    table.AddRow({r.model_name, FormatPercent(r.counts.VisAcc()),
                  FormatPercent(r.counts.DataAcc()),
                  FormatPercent(r.counts.AxisAcc()),
                  FormatPercent(r.counts.OverallAcc())});
  }
  std::printf("%s", table.ToString().c_str());
  std::fflush(stdout);
}

std::vector<eval::EvalResult> RunModels(
    const std::vector<const models::TextToVisModel*>& models,
    const std::vector<dataset::Example>& test,
    const std::vector<dataset::GeneratedDatabase>& databases,
    const std::string& test_set_name) {
  std::vector<eval::EvalResult> results;
  for (const models::TextToVisModel* model : models) {
    std::fprintf(stderr, "[bench] evaluating %s on %s (%zu examples)...\n",
                 model->name().c_str(), test_set_name.c_str(), test.size());
    const auto* gred = dynamic_cast<const core::Gred*>(model);
    core::Gred::StageStats before;
    if (gred != nullptr) before = gred->stage_stats();
    eval::EvalTiming timing;
    eval::EvalOptions options;
    options.timing = &timing;
    // Arm the per-example watchdog from the env knobs (no-op when unset;
    // re-read here so RunModels works without a BenchContext too).
    options.guard.deadline_ticks = EnvSizeOrDie("GRED_BENCH_DEADLINE", 0);
    options.guard.row_budget = EnvSizeOrDie("GRED_BENCH_ROW_BUDGET", 0);
    options.lint = EnvFlagOrDie("GRED_BENCH_LINT", false);
    auto start = std::chrono::steady_clock::now();
    results.push_back(eval::Evaluate(*model, test, databases, test_set_name,
                                     nullptr, options));
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    std::fprintf(stderr,
                 "[bench]   %.2fs wall | translate %.2fs, execute %.2fs "
                 "(summed over threads)\n",
                 wall, timing.translate.seconds(), timing.execute.seconds());
    if (results.back().counts.resource_exhausted != 0) {
      std::fprintf(stderr,
                   "[bench]   resource guard tripped on %zu examples\n",
                   results.back().counts.resource_exhausted);
    }
    if (options.lint && !results.back().counts.diagnostics.empty()) {
      std::string per_code;
      for (const auto& [code, count] : results.back().counts.diagnostics) {
        if (!per_code.empty()) per_code += ", ";
        per_code += code + " x" + std::to_string(count);
      }
      std::fprintf(stderr, "[bench]   lint diagnostics: %s\n",
                   per_code.c_str());
    }
    if (gred != nullptr) {
      core::Gred::StageStats after = gred->stage_stats();
      std::fprintf(stderr,
                   "[bench]   GRED stages: retrieval %.2fs, retune %.2fs, "
                   "debug %.2fs over %llu calls\n",
                   after.retrieval_seconds - before.retrieval_seconds,
                   after.retune_seconds - before.retune_seconds,
                   after.debug_seconds - before.debug_seconds,
                   static_cast<unsigned long long>(after.translate_calls -
                                                   before.translate_calls));
      std::uint64_t rtn_deg = after.retune_degraded - before.retune_degraded;
      std::uint64_t dbg_deg = after.debug_degraded - before.debug_degraded;
      if (rtn_deg != 0 || dbg_deg != 0) {
        std::fprintf(stderr,
                     "[bench]   GRED degraded stages: retuner %llu, "
                     "debugger %llu\n",
                     static_cast<unsigned long long>(rtn_deg),
                     static_cast<unsigned long long>(dbg_deg));
      }
      std::uint64_t rtn_budget =
          after.retune_budget_trips - before.retune_budget_trips;
      std::uint64_t dbg_budget =
          after.debug_budget_trips - before.debug_budget_trips;
      if (rtn_budget != 0 || dbg_budget != 0) {
        std::fprintf(stderr,
                     "[bench]   GRED stage-budget trips: retuner %llu, "
                     "debugger %llu\n",
                     static_cast<unsigned long long>(rtn_budget),
                     static_cast<unsigned long long>(dbg_budget));
      }
      std::uint64_t rtn_lint = after.retune_lint_trips - before.retune_lint_trips;
      std::uint64_t dbg_lint = after.debug_lint_trips - before.debug_lint_trips;
      if (rtn_lint != 0 || dbg_lint != 0) {
        std::fprintf(stderr,
                     "[bench]   GRED lint rejections: retuner %llu, "
                     "debugger %llu\n",
                     static_cast<unsigned long long>(rtn_lint),
                     static_cast<unsigned long long>(dbg_lint));
      }
    }
  }
  return results;
}

}  // namespace gred::bench
