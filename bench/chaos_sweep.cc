// Deterministic chaos harness for the hardened serving layer
// (DESIGN.md §16): drives `serve::Server` through a scripted fault
// schedule — admission bursts, a wedged worker, injected LLM faults,
// per-session rate limiting, brownout watermarks and a mid-run hot
// reload — and asserts the invariants that make overload behavior
// trustworthy rather than merely survivable:
//
//   * exactly-once: every submitted line is answered exactly once,
//     whether served, degraded or rejected;
//   * balance: after the drain, received == completed + failed +
//     rejected_{overload,invalid,ratelimit,shutdown} + stats +
//     reload requests (ServerStats::Balanced);
//   * drain terminates: Shutdown returns with the queue empty;
//   * economics: against a 100% faulty backend, the circuit breaker
//     reaches the backend >= 5x less often than the retry stack alone;
//   * identity: with every resilience knob off, concurrent responses
//     are byte-identical per id to a serial Handle() replay.
//
// The schedule is a pure function of request indices — no wall clock,
// no RNG beyond the fault injector's seeded per-prompt streams — so a
// failure reproduces bit-for-bit.
//
// Environment: GRED_BENCH_TRAIN_SIZE / GRED_BENCH_TEST_SIZE /
// GRED_BENCH_SEED (suite shape), GRED_CHAOS_REQUESTS (chaos trace
// length, default 200), GRED_SERVE_WORKERS (chaos worker count, default
// 2), GRED_BENCH_FAULT_RATE (chaos-phase LLM fault rate, default 0.2),
// GRED_BENCH_RETRIES (default 3), GRED_SERVE_BREAKER_FAILURES /
// GRED_SERVE_BREAKER_COOLDOWN (breaker knobs, defaults 5 / 8).
//
// Usage: chaos_sweep [REPORT_JSON] — with an argument, also writes the
// machine-readable report (scripts/bench_report --chaos writes
// BENCH_serve.json this way).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "llm/circuit_breaker.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/env.h"
#include "util/json.h"
#include "util/strings.h"

namespace {

using gred::json::Parse;
using gred::json::ParseResult;
using gred::json::Value;

/// The typed rejection taxonomy, keyed by the response's error string
/// (all three share code "Unavailable" — the string is the contract).
struct Taxonomy {
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;  // served, ok=false (trips, translate errors)
  std::uint64_t overloaded = 0;
  std::uint64_t rate_limited = 0;
  std::uint64_t shutting_down = 0;
  std::uint64_t brownout = 0;  // served in degraded mode (subset of ok/failed)
};

void Classify(const std::string& response, Taxonomy* out) {
  ParseResult parsed = Parse(response);
  if (!parsed.ok()) return;
  const Value& obj = parsed.value();
  const Value* error = obj.Find("error");
  const std::string message =
      error != nullptr ? error->string_value() : std::string();
  if (message == "overloaded") {
    ++out->overloaded;
  } else if (message == "rate_limited") {
    ++out->rate_limited;
  } else if (message == "shutting_down") {
    ++out->shutting_down;
  } else {
    const Value* ok = obj.Find("ok");
    if (ok != nullptr && ok->bool_value()) {
      ++out->ok;
    } else {
      ++out->failed;
    }
  }
  const Value* degraded = obj.Find("degraded");
  if (degraded != nullptr && degraded->Find("brownout") != nullptr) {
    ++out->brownout;
  }
}

gred::llm::Prompt OneLinePrompt(std::size_t i) {
  return {{gred::llm::ChatMessage::Role::kUser,
           "chaos request " + std::to_string(i)}};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gred;

  const char* report_path = bench::ReportPathArg(argc, argv);
  bool all_ok = true;
  auto check = [&all_ok](bool condition, const char* what) {
    if (!condition) {
      std::fprintf(stderr, "[bench] FAIL: %s\n", what);
      all_ok = false;
    }
    return condition;
  };

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

  const std::size_t num_requests = EnvSizeOrDie("GRED_CHAOS_REQUESTS", 200);
  const std::size_t workers = EnvSizeOrDie("GRED_SERVE_WORKERS", 2);
  const double fault_rate = EnvRateOrDie("GRED_BENCH_FAULT_RATE", 0.2);
  const std::size_t retries = EnvSizeOrDie("GRED_BENCH_RETRIES", 3);
  const std::size_t breaker_failures =
      EnvSizeOrDie("GRED_SERVE_BREAKER_FAILURES", 5);
  const std::size_t breaker_cooldown =
      EnvSizeOrDie("GRED_SERVE_BREAKER_COOLDOWN", 8);

  // -------------------------------------------------------------------
  // Phase A — dead-backend economics. Identical demand against a 100%
  // transiently-failing backend, once through the retry stack alone and
  // once with the breaker in front. The breaker must cut backend call
  // attempts by >= 5x: that is the whole argument for carrying it.
  std::uint64_t retry_only_attempts = 0;
  std::uint64_t breaker_attempts = 0;
  std::uint64_t breaker_fast_failures = 0;
  {
    llm::RetryConfig retry_config;
    retry_config.max_attempts = retries;

    bench::ResilientStack dead_a =
        bench::MakeResilientStack(&llm, 1.0, retries);
    bench::ResilientStack dead_b =
        bench::MakeResilientStack(&llm, 1.0, retries);
    llm::BreakerConfig breaker_config;
    breaker_config.failure_threshold = breaker_failures;
    breaker_config.open_cooldown = breaker_cooldown;
    llm::CircuitBreakerChatModel breaker(dead_b.active, breaker_config);

    for (std::size_t i = 0; i < num_requests; ++i) {
      (void)dead_a.active->Complete(OneLinePrompt(i), {});
      (void)breaker.Complete(OneLinePrompt(i), {});
    }
    retry_only_attempts = dead_a.injector->stats().calls;
    breaker_attempts = dead_b.injector->stats().calls;
    breaker_fast_failures = breaker.stats().fast_failures;
    check(breaker_attempts > 0, "breaker admitted no probes at all");
    check(retry_only_attempts >=
              5 * (breaker_attempts > 0 ? breaker_attempts : 1),
          "breaker saved < 5x backend attempts at 100% fault rate");
    // Shed demand is counted, never silently dropped.
    check(breaker.stats().admitted + breaker_fast_failures ==
              breaker.stats().calls,
          "breaker accounting does not balance");
  }

  // -------------------------------------------------------------------
  // Phase B — the chaos run. Every resilience knob armed at once:
  // injected LLM faults behind retry + breaker, sessioned rate
  // limiting, brownout watermarks over a small queue, a wedged worker,
  // bursty admission, and a hot reload halfway through the schedule.
  Taxonomy taxonomy;
  serve::ServerStats chaos_stats;
  bool exactly_once = true;
  bool balanced = false;
  std::uint64_t chaos_submitted = 0;
  {
    bench::ResilientStack stack =
        bench::MakeResilientStack(&llm, fault_rate, retries);
    llm::BreakerConfig breaker_config;
    breaker_config.failure_threshold = breaker_failures;
    breaker_config.open_cooldown = breaker_cooldown;
    llm::CircuitBreakerChatModel breaker(stack.active, breaker_config);

    core::Gred gred(corpus, &breaker);
    (void)gred.PrepareAnnotations(suite.databases);

    serve::ServerOptions options;
    options.num_workers = workers;
    options.queue_capacity = 8;
    options.include_timings = false;
    options.brownout_high_watermark = 4;
    options.brownout_low_watermark = 1;
    options.brownout_limits.row_budget = 64;
    // Refill below 1/num_sessions: each session's own admissions tick
    // the shared clock ~4x per own request, so 0.1/tick leaves a real
    // deficit and the buckets drain — the limiter genuinely fires.
    options.rate_burst = 4.0;
    options.rate_refill_per_request = 0.1;
    options.breaker = &breaker;
    // The reload epoch is a genuinely fresh build: a copied suite and a
    // new pipeline (annotated against the healthy backend) — in-flight
    // requests keep the epoch they snapshotted.
    options.reload_handler = [&suite, &llm]() -> Result<serve::EpochPayload> {
      auto new_suite = std::make_shared<dataset::BenchmarkSuite>(suite);
      models::TrainingCorpus new_corpus;
      new_corpus.train = &new_suite->train;
      new_corpus.databases = &new_suite->databases;
      auto new_gred = std::make_shared<core::Gred>(new_corpus, &llm);
      Result<std::size_t> prepared =
          new_gred->PrepareAnnotations(new_suite->databases);
      if (!prepared.ok()) return prepared.status();
      serve::EpochPayload payload;
      payload.suite = std::move(new_suite);
      payload.gred = std::move(new_gred);
      return payload;
    };
    serve::Server server(&suite, &gred, options);

    // One slot per scheduled line; ids are slot indices. Slot layout:
    // [0] the wedge, [1..num_requests] the trace, [num_requests+1] the
    // mid-run reload, [num_requests+2] a stats probe under load.
    const std::size_t slots = num_requests + 3;
    std::vector<std::atomic<int>> answered(slots);
    std::vector<std::string> responses(slots);
    std::mutex response_mu;
    auto record = [&](std::size_t slot) {
      return [&, slot](const std::string& response) {
        answered[slot].fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(response_mu);
        responses[slot] = response;
      };
    };
    auto translate_line = [&](std::size_t slot, std::size_t example,
                              const std::string& session) {
      const dataset::Example& ex =
          suite.test_clean[example % suite.test_clean.size()];
      Value request = Value::Object();
      request.Set("id", Value::Int(static_cast<std::int64_t>(slot)));
      request.Set("nlq", Value::Str(ex.nlq));
      request.Set("db", Value::Str(ex.db_name));
      request.Set("session", Value::Str(session));
      request.Set("chart", Value::Bool(false));
      return request.Dump();
    };

    // The wedge: submitted first (empty queue, fresh session, so its
    // admission is certain), its completion callback blocks one worker
    // until the schedule releases it — a stand-in for a stuck client or
    // a pathologically slow request.
    std::promise<void> wedge_started;
    std::promise<void> wedge_release;
    std::shared_future<void> wedge_future = wedge_release.get_future().share();
    server.Submit(translate_line(0, 0, "wedge"),
                  [&](const std::string& response) {
                    answered[0].fetch_add(1, std::memory_order_relaxed);
                    {
                      std::lock_guard<std::mutex> lock(response_mu);
                      responses[0] = response;
                    }
                    wedge_started.set_value();
                    wedge_future.wait();
                  });
    ++chaos_submitted;
    wedge_started.get_future().wait();  // one worker is now wedged

    // The burst schedule: requests land in bursts of 16 across four
    // sessions, with the queue deliberately smaller than a burst.
    for (std::size_t i = 0; i < num_requests; ++i) {
      const std::size_t slot = i + 1;
      server.Submit(
          translate_line(slot, i, "s" + std::to_string(i % 4)),
          record(slot));
      ++chaos_submitted;
      if (i == num_requests / 2) {
        Value reload = Value::Object();
        reload.Set("id",
                   Value::Int(static_cast<std::int64_t>(num_requests + 1)));
        reload.Set("type", Value::Str("reload"));
        server.Submit(reload.Dump(), record(num_requests + 1));
        ++chaos_submitted;
      }
      if (i == (3 * num_requests) / 4) {
        Value stats_req = Value::Object();
        stats_req.Set("id",
                      Value::Int(static_cast<std::int64_t>(num_requests + 2)));
        stats_req.Set("type", Value::Str("stats"));
        server.Submit(stats_req.Dump(), record(num_requests + 2));
        ++chaos_submitted;
      }
      if ((i + 1) % 16 == 0) {
        // End of burst: give workers one scheduling quantum, so bursts
        // hit a partially drained queue instead of pure lockstep.
        std::this_thread::yield();
      }
    }

    wedge_release.set_value();
    server.Shutdown();  // must terminate: this IS the drain invariant

    chaos_stats = server.stats();
    balanced = chaos_stats.Balanced();
    check(balanced, "chaos counters do not balance after drain");
    check(chaos_stats.queue_depth == 0, "jobs lingered after drain");
    check(chaos_stats.received == chaos_submitted,
          "received != submitted lines");
    for (std::size_t slot = 0; slot < slots; ++slot) {
      const int count = answered[slot].load(std::memory_order_relaxed);
      if (count != 1) {
        std::fprintf(stderr,
                     "[bench] FAIL: slot %zu answered %d times "
                     "(expected 1)\n",
                     slot, count);
        exactly_once = false;
      }
    }
    all_ok = all_ok && exactly_once;
    for (const std::string& response : responses) {
      if (!response.empty()) Classify(response, &taxonomy);
    }
    check(chaos_stats.reloads_ok == 1, "mid-run reload did not land");
    check(chaos_stats.epoch == 2, "epoch did not advance after reload");
    // Limiter outcomes depend only on the (serial) submission order, so
    // this is deterministic; tiny smoke schedules drain no bucket.
    check(num_requests < 48 || taxonomy.rate_limited > 0,
          "rate limiter never fired over a draining schedule");
  }

  // -------------------------------------------------------------------
  // Phase C — knobs-off identity. Same server code, every resilience
  // knob off, no faults: the concurrent transcript must be
  // byte-identical per id to the serial Handle() replay.
  bool identity_ok = true;
  const std::size_t identity_requests = std::min<std::size_t>(
      num_requests, suite.test_clean.size());
  {
    core::Gred gred(corpus, &llm);
    (void)gred.PrepareAnnotations(suite.databases);

    serve::ServerOptions options;
    options.num_workers = workers;
    // The queue covers the whole trace: nothing sheds, so the
    // concurrent transcript and the serial replay see identical work.
    options.queue_capacity = std::max<std::size_t>(identity_requests, 1);
    options.include_timings = false;

    std::vector<std::string> trace;
    for (std::size_t i = 0; i < identity_requests; ++i) {
      const dataset::Example& ex = suite.test_clean[i];
      Value request = Value::Object();
      request.Set("id", Value::Int(static_cast<std::int64_t>(i)));
      request.Set("nlq", Value::Str(ex.nlq));
      request.Set("db", Value::Str(ex.db_name));
      trace.push_back(request.Dump());
    }

    std::vector<std::string> serial(identity_requests);
    {
      serve::Server reference(&suite, &gred, options);
      for (std::size_t i = 0; i < identity_requests; ++i) {
        serial[i] = reference.Handle(trace[i]);
      }
    }
    std::vector<std::string> concurrent(identity_requests);
    {
      serve::Server server(&suite, &gred, options);
      for (std::size_t i = 0; i < identity_requests; ++i) {
        server.Submit(trace[i], [&concurrent, i](const std::string& r) {
          concurrent[i] = r;
        });
      }
      server.Shutdown();
      check(server.stats().Balanced(), "identity-phase counters unbalanced");
    }
    for (std::size_t i = 0; i < identity_requests; ++i) {
      if (serial[i] != concurrent[i]) {
        std::fprintf(stderr,
                     "[bench] FAIL: knobs-off response %zu diverged from "
                     "serial replay\n",
                     i);
        identity_ok = false;
      }
    }
    all_ok = all_ok && identity_ok;
  }

  // -------------------------------------------------------------------
  // Report
  const double attempt_ratio =
      breaker_attempts > 0 ? static_cast<double>(retry_only_attempts) /
                                 static_cast<double>(breaker_attempts)
                           : 0.0;
  std::printf("\nChaos sweep: %zu chaos requests, %zu workers, fault rate "
              "%.2f, breaker %zu/%zu\n",
              num_requests, workers, fault_rate, breaker_failures,
              breaker_cooldown);
  std::printf("economics: retry-only %llu backend attempts vs breaker %llu "
              "(%.1fx saved, %llu fast-failed)\n",
              static_cast<unsigned long long>(retry_only_attempts),
              static_cast<unsigned long long>(breaker_attempts),
              attempt_ratio,
              static_cast<unsigned long long>(breaker_fast_failures));
  std::printf("chaos: %llu submitted -> %llu ok, %llu failed, %llu "
              "overloaded, %llu rate-limited, %llu shutting-down, %llu "
              "browned-out; exactly-once %s, balanced %s\n",
              static_cast<unsigned long long>(chaos_submitted),
              static_cast<unsigned long long>(taxonomy.ok),
              static_cast<unsigned long long>(taxonomy.failed),
              static_cast<unsigned long long>(taxonomy.overloaded),
              static_cast<unsigned long long>(taxonomy.rate_limited),
              static_cast<unsigned long long>(taxonomy.shutting_down),
              static_cast<unsigned long long>(taxonomy.brownout),
              exactly_once ? "ok" : "FAILED", balanced ? "ok" : "FAILED");
  std::printf("identity: %zu knobs-off requests %s the serial replay\n",
              identity_requests,
              identity_ok ? "byte-identical to" : "DIVERGED from");

  if (report_path != nullptr) {
    Value report = Value::Object();
    report.Set("schema", Value::Str("gredvis-bench-chaos/1"));
    Value economics = Value::Object();
    economics.Set("requests",
                  Value::Int(static_cast<std::int64_t>(num_requests)));
    economics.Set("retry_only_attempts",
                  Value::Int(static_cast<std::int64_t>(retry_only_attempts)));
    economics.Set("breaker_attempts",
                  Value::Int(static_cast<std::int64_t>(breaker_attempts)));
    economics.Set("attempts_saved_ratio", Value::Number(attempt_ratio));
    economics.Set("breaker_fast_failures",
                  Value::Int(static_cast<std::int64_t>(breaker_fast_failures)));
    economics.Set("failure_threshold",
                  Value::Int(static_cast<std::int64_t>(breaker_failures)));
    economics.Set("open_cooldown",
                  Value::Int(static_cast<std::int64_t>(breaker_cooldown)));
    report.Set("economics", std::move(economics));

    Value chaos = Value::Object();
    chaos.Set("submitted",
              Value::Int(static_cast<std::int64_t>(chaos_submitted)));
    chaos.Set("workers", Value::Int(static_cast<std::int64_t>(workers)));
    chaos.Set("fault_rate", Value::Number(fault_rate));
    chaos.Set("ok", Value::Int(static_cast<std::int64_t>(taxonomy.ok)));
    chaos.Set("failed",
              Value::Int(static_cast<std::int64_t>(taxonomy.failed)));
    chaos.Set("rejected_overload",
              Value::Int(static_cast<std::int64_t>(taxonomy.overloaded)));
    chaos.Set("rejected_ratelimit",
              Value::Int(static_cast<std::int64_t>(taxonomy.rate_limited)));
    chaos.Set("rejected_shutdown",
              Value::Int(static_cast<std::int64_t>(taxonomy.shutting_down)));
    chaos.Set("degraded_brownout",
              Value::Int(static_cast<std::int64_t>(
                  chaos_stats.degraded_brownout)));
    chaos.Set("reloads_ok",
              Value::Int(static_cast<std::int64_t>(chaos_stats.reloads_ok)));
    chaos.Set("epoch",
              Value::Int(static_cast<std::int64_t>(chaos_stats.epoch)));
    chaos.Set("exactly_once", Value::Bool(exactly_once));
    chaos.Set("balanced", Value::Bool(balanced));
    report.Set("chaos", std::move(chaos));

    Value identity = Value::Object();
    identity.Set("requests",
                 Value::Int(static_cast<std::int64_t>(identity_requests)));
    identity.Set("replay_identical", Value::Bool(identity_ok));
    report.Set("identity", std::move(identity));
    if (!bench::WriteReport(std::move(report), "chaos_sweep", report_path)) {
      return 1;
    }
  }

  return all_ok ? 0 : 1;
}
