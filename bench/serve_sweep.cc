// Serving-layer load generator: deterministic trace replay against the
// `gredvis serve` engine (src/serve) at a sweep of worker counts.
//
// The trace is the clean test split rendered as wire requests (cycled
// when GRED_SERVE_REQUESTS exceeds the split), replayed two ways:
//
//   * serial baseline — every request through Server::Handle on one
//     thread; this is the reference transcript;
//   * concurrent sweep — the same trace through Server::Submit with
//     1/2/4/8 workers (timings off). The load loop retries shed
//     requests until admitted, so the full trace completes and the
//     transcript must be byte-identical to the serial baseline — the
//     serving layer's determinism contract, asserted here, not printed.
//
// A final burst point (one worker, queue capacity one, no retries)
// measures the admission-control path itself: over-capacity requests
// must be rejected immediately, never queued, and every submission must
// still get exactly one response.
//
// Reported per sweep point: wall clock, QPS, p50/p95/p99 latency and
// the rejection/retry counts. GRED_SERVE_JSON=<path> additionally
// writes the machine-readable report that scripts/bench_report --serve
// wraps into BENCH_serve.json.
//
// Environment: GRED_BENCH_TRAIN_SIZE / GRED_BENCH_TEST_SIZE /
// GRED_BENCH_SEED shape the suite (as in every bench);
// GRED_SERVE_REQUESTS (trace length, default 96), GRED_SERVE_QUEUE
// (sweep queue capacity, default 64), GRED_SERVE_THREADS (narrow the
// sweep to one worker count).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/env.h"
#include "util/json.h"
#include "util/strings.h"
#include "util/table_printer.h"

namespace {

using gred::json::Parse;
using gred::json::ParseResult;
using gred::json::Value;

/// True iff `response` is the admission-control rejection (and not a
/// translate result that merely failed).
bool IsOverloaded(const std::string& response) {
  ParseResult parsed = Parse(response);
  if (!parsed.ok()) return false;
  const Value* code = parsed.value().Find("code");
  return code != nullptr && code->string_value() == "Unavailable";
}

/// Nearest-rank percentile of an ascending-sorted sample.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  std::size_t rank =
      static_cast<std::size_t>(q * static_cast<double>(sorted.size()));
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

}  // namespace

int main() {
  using namespace gred;

  dataset::BenchmarkOptions suite_options;
  suite_options.seed = EnvSizeOrDie("GRED_BENCH_SEED", suite_options.seed);
  suite_options.train_size =
      EnvSizeOrDie("GRED_BENCH_TRAIN_SIZE", suite_options.train_size);
  suite_options.test_size =
      EnvSizeOrDie("GRED_BENCH_TEST_SIZE", suite_options.test_size);
  dataset::BenchmarkSuite suite = dataset::BuildBenchmarkSuite(suite_options);

  llm::SimulatedChatModel llm;
  models::TrainingCorpus corpus;
  corpus.train = &suite.train;
  corpus.databases = &suite.databases;
  core::Gred gred(corpus, &llm);
  // Annotations resolve serially up front so every sweep point sees the
  // same warm cache (the sweep measures serving, not annotation).
  (void)gred.PrepareAnnotations(suite.databases);

  const std::size_t num_requests = EnvSizeOrDie("GRED_SERVE_REQUESTS", 96);
  const std::size_t queue_capacity = EnvSizeOrDie("GRED_SERVE_QUEUE", 64);

  // The wire trace: the clean test split, cycled to the target length.
  std::vector<std::string> trace;
  trace.reserve(num_requests);
  for (std::size_t i = 0; i < num_requests; ++i) {
    const dataset::Example& example =
        suite.test_clean[i % suite.test_clean.size()];
    Value request = Value::Object();
    request.Set("id", Value::Int(static_cast<std::int64_t>(i)));
    request.Set("nlq", Value::Str(example.nlq));
    request.Set("db", Value::Str(example.db_name));
    trace.push_back(request.Dump());
  }

  serve::ServerOptions base_options;
  base_options.queue_capacity = queue_capacity;
  base_options.include_timings = false;  // the determinism switch

  // Serial baseline: the reference transcript, one request at a time.
  std::vector<std::string> expected(num_requests);
  double serial_wall = 0.0;
  {
    serve::ServerOptions options = base_options;
    options.num_workers = 1;
    serve::Server server(&suite, &gred, options);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < num_requests; ++i) {
      expected[i] = server.Handle(trace[i]);
    }
    serial_wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  }

  std::vector<std::size_t> worker_sweep = {1, 2, 4, 8};
  if (std::getenv("GRED_SERVE_THREADS") != nullptr) {
    worker_sweep = {EnvSizeOrDie("GRED_SERVE_THREADS", 1)};
  }

  struct SweepResult {
    std::size_t workers = 0;
    double wall_s = 0.0;
    double qps = 0.0;
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
    std::uint64_t rejected = 0;  // sheds absorbed by the retry loop
    bool identical = true;
  };
  std::vector<SweepResult> sweep;
  bool all_identical = true;

  for (std::size_t workers : worker_sweep) {
    serve::ServerOptions options = base_options;
    options.num_workers = workers;
    serve::Server server(&suite, &gred, options);

    // Per-request completion slots. A worker writes a slot exactly once
    // (the retry loop resubmits only overload rejections, which answer
    // inline and never reach a slot); Shutdown's join publishes them.
    struct Outcome {
      std::string response;
      double latency_us = 0.0;
    };
    std::vector<Outcome> outcomes(num_requests);

    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < num_requests; ++i) {
      const auto first_attempt = std::chrono::steady_clock::now();
      bool admitted = false;
      while (!admitted) {
        // The overload response is delivered inline on this thread
        // before Submit returns, so the flag is readable right after.
        auto shed = std::make_shared<std::atomic<bool>>(false);
        server.Submit(trace[i],
                      [&outcomes, i, first_attempt, shed](
                          const std::string& response) {
                        if (IsOverloaded(response)) {
                          shed->store(true);
                          return;
                        }
                        outcomes[i].latency_us =
                            std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() -
                                first_attempt)
                                .count();
                        outcomes[i].response = response;
                      });
        admitted = !shed->load();
        if (!admitted) std::this_thread::yield();
      }
    }
    server.Shutdown();  // drain: every admitted request has answered
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();

    SweepResult result;
    result.workers = workers;
    result.wall_s = wall;
    result.qps = wall > 0 ? static_cast<double>(num_requests) / wall : 0.0;
    result.rejected = server.stats().rejected_overload;

    std::vector<double> latencies;
    latencies.reserve(num_requests);
    for (std::size_t i = 0; i < num_requests; ++i) {
      latencies.push_back(outcomes[i].latency_us);
      if (outcomes[i].response != expected[i]) {
        result.identical = false;
        std::fprintf(stderr,
                     "[bench] FAIL: request %zu with %zu workers diverged "
                     "from the serial transcript\n",
                     i, workers);
      }
    }
    std::sort(latencies.begin(), latencies.end());
    result.p50_us = Percentile(latencies, 0.50);
    result.p95_us = Percentile(latencies, 0.95);
    result.p99_us = Percentile(latencies, 0.99);
    all_identical = all_identical && result.identical;
    sweep.push_back(result);
  }

  // Overload burst: capacity one, one worker, no retries. Admission
  // control must shed immediately and still answer every submission.
  std::uint64_t burst_rejected = 0;
  std::uint64_t burst_responses = 0;
  bool burst_accounted = true;
  {
    serve::ServerOptions options = base_options;
    options.num_workers = 1;
    options.queue_capacity = 1;
    serve::Server server(&suite, &gred, options);
    std::atomic<std::uint64_t> responses{0};
    for (const std::string& line : trace) {
      server.Submit(line, [&responses](const std::string&) {
        responses.fetch_add(1, std::memory_order_relaxed);
      });
    }
    server.Shutdown();
    serve::ServerStats stats = server.stats();
    burst_rejected = stats.rejected_overload;
    burst_responses = responses.load();
    // Exactly one response per submission, shed or served; nothing may
    // linger in the queue after shutdown.
    burst_accounted = burst_responses == num_requests &&
                      stats.received == num_requests &&
                      stats.queue_depth == 0;
    if (!burst_accounted) {
      std::fprintf(stderr,
                   "[bench] FAIL: burst accounted %llu responses for %zu "
                   "submissions (%llu rejected)\n",
                   static_cast<unsigned long long>(burst_responses),
                   num_requests,
                   static_cast<unsigned long long>(burst_rejected));
    }
  }

  TablePrinter table({"Workers", "Wall (s)", "QPS", "p50 (us)", "p95 (us)",
                      "p99 (us)", "Shed", "Replay"});
  for (const SweepResult& result : sweep) {
    table.AddRow({std::to_string(result.workers),
                  strings::Format("%.3f", result.wall_s),
                  strings::Format("%.1f", result.qps),
                  strings::Format("%.0f", result.p50_us),
                  strings::Format("%.0f", result.p95_us),
                  strings::Format("%.0f", result.p99_us),
                  std::to_string(result.rejected),
                  result.identical ? "identical" : "DIVERGED"});
  }

  std::printf("\nServe sweep: %zu requests over %zu test examples "
              "(queue capacity %zu)\n",
              num_requests, suite.test_clean.size(), queue_capacity);
  std::printf("%s", table.ToString().c_str());
  std::printf("serial baseline: %.3f s (%.1f QPS)\n", serial_wall,
              serial_wall > 0 ? static_cast<double>(num_requests) / serial_wall
                              : 0.0);
  std::printf("overload burst (queue=1): %llu/%zu shed, accounting %s\n",
              static_cast<unsigned long long>(burst_rejected), num_requests,
              burst_accounted ? "ok" : "FAILED");
  std::printf("concurrent replay identical to serial transcript: %s\n",
              all_identical ? "ok" : "FAILED");

  if (const char* out_path = std::getenv("GRED_SERVE_JSON")) {
    Value report = Value::Object();
    report.Set("schema", Value::Str("gredvis-bench-serve/1"));
    report.Set("requests", Value::Int(static_cast<std::int64_t>(num_requests)));
    report.Set("queue_capacity",
               Value::Int(static_cast<std::int64_t>(queue_capacity)));
    Value serial = Value::Object();
    serial.Set("wall_s", Value::Number(serial_wall));
    serial.Set("qps", Value::Number(
                          serial_wall > 0
                              ? static_cast<double>(num_requests) / serial_wall
                              : 0.0));
    report.Set("serial", std::move(serial));
    Value points = Value::Array();
    for (const SweepResult& result : sweep) {
      Value point = Value::Object();
      point.Set("workers", Value::Int(static_cast<std::int64_t>(result.workers)));
      point.Set("wall_s", Value::Number(result.wall_s));
      point.Set("qps", Value::Number(result.qps));
      point.Set("p50_us", Value::Number(result.p50_us));
      point.Set("p95_us", Value::Number(result.p95_us));
      point.Set("p99_us", Value::Number(result.p99_us));
      point.Set("rejected_overload",
                Value::Int(static_cast<std::int64_t>(result.rejected)));
      point.Set("replay_identical", Value::Bool(result.identical));
      points.Append(std::move(point));
    }
    report.Set("sweep", std::move(points));
    Value burst = Value::Object();
    burst.Set("submitted", Value::Int(static_cast<std::int64_t>(num_requests)));
    burst.Set("rejected_overload",
              Value::Int(static_cast<std::int64_t>(burst_rejected)));
    burst.Set("rejection_rate",
              Value::Number(num_requests > 0
                                ? static_cast<double>(burst_rejected) /
                                      static_cast<double>(num_requests)
                                : 0.0));
    burst.Set("accounting_ok", Value::Bool(burst_accounted));
    report.Set("overload_burst", std::move(burst));

    std::ofstream out(out_path);
    out << report.Dump(2) << '\n';
    if (!out) {
      std::fprintf(stderr, "[bench] FAIL: could not write %s\n", out_path);
      return 1;
    }
    std::printf("wrote %s\n", out_path);
  }

  return all_identical && burst_accounted ? 0 : 1;
}
