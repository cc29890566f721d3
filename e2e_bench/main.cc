// End-to-end serving benchmark: replays the four nvBench-Rob test
// splits through serve::Server -> core::Gred -> viz::BuildChart and
// prints one JSON result line with the metrics BENCHMARK.json names
// (e2e_bench/run.py builds the binary and runs it).
//
//   e2e_bench --workload nlq_closed|schema_open --seed N --seconds S
//             --trace 0|1 [--train-size N] [--test-size N]
//
// The corpus is the repository's fixed nvBench-Rob reproduction (the
// default suite seed) at the workload's library and test-pool sizes;
// --seed orders the requests (within blocks of a fixed order, see
// kOrderBlock) and draws the open loop's arrivals. (A per-seed corpus made
// failure rates swing by a fifth between seeds: failures cluster in a few
// generated databases.)
//
// One run sets up the corpora and pipeline several times (setup_s is the
// median), warms the process up and times a short scaling pass at nproc
// workers and at one, then serves the workload for --seconds. Requests
// are distinct test examples, so the timed pass sees each question once,
// as a server of independent users would. With --trace 1 the same
// requests are served a second time, on a second deployment that has
// first served the same warm-up and scaling passes (so its caches are as
// warm as the timed pass found them), with the LLM decorator recording
// and Gred/server/embedding counters snapshotted around the pass; the
// retrieval indexes and the static analyzers are then replayed on the
// served inputs, and the result line carries the per-layer ledger
// instead of the end-to-end metrics.
//
// Correctness gate (exit 1, no result line): a submission answered other
// than exactly once, unbalanced server counters after drain, a response
// that differs from the first answer to the same request in any pass
// (ids and timings_us stripped), a generator whose mean lateness is a
// material share of the median latency, or (traced) a ledger that does
// not reconcile: an LLM call no stage prompt marker matched, an LLM task
// time above the Gred stage timer that contains it, Gred's stage timers
// not within 5% of the server's translate timer, or layer times not
// within 5% of the end-to-end latency. A build with
// assertions or sanitizers compiled in exits 3 before measuring.
//
// The result line's "failed" counts unanswered and refused submissions;
// answers that are "ok":false (a translation that does not execute, or a
// request the guards or the cost gate turn down) are deterministic per
// request and scored by failed_ratio instead.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/cost_estimator.h"
#include "dataset/benchmark.h"
#include "dvq/parser.h"
#include "embed/caching_embedder.h"
#include "embed/embedder.h"
#include "embed/kernel.h"
#include "eval/metrics.h"
#include "gred/gred.h"
#include "llm/sim_llm.h"
#include "load.h"
#include "models/retrieval.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "traced_llm.h"
#include "util/json.h"
#include "util/rng.h"

namespace gred::e2e {
namespace {

// ---------------------------------------------------------------------------
// Workloads

using Split = std::vector<dataset::Example> dataset::BenchmarkSuite::*;

struct Workload {
  const char* name;
  std::size_t train_size;
  /// Examples per test split; two splits are served. Sized so a 20 s
  /// timed pass (nlq_closed: at 1.5x its present throughput) plus the
  /// warm-up does not run out of distinct questions.
  std::size_t test_size;
  /// Closed loop (nproc requests in flight) when true; otherwise an open
  /// loop with Poisson arrivals at `rate_rps`.
  bool closed_loop;
  double rate_rps;
  Split splits[2];
  bool renamed_schemas;  // serve databases_rob instead of the clean corpus
  bool want_chart;       // request "chart":true (Vega-Lite rendering)
  bool lint_and_repair;  // GredConfig::enable_lint + enable_repair
  bool cost_gate;        // ServerOptions::cost_gate
  GuardLimits default_limits;
  /// Latency limit for slo_met_ratio.
  double slo_ms;
};

/// nlq_closed: the lexical/phrasal axis at nvBench library scale, closed
/// loop, so it measures capacity. schema_open: the schema axis behind the
/// production guard stack, open loop at about 35% of its capacity on a
/// 4-core AMD EPYC host (~1700 rps closed-loop at 4 workers). At 800 rps
/// (about half) latency read lower but spread more between runs, as the
/// host's speed drifted. The 20 ms deadline and 5000-row budget arm the
/// cost gate, which the server's unlimited defaults would leave idle.
const Workload kWorkloads[] = {
    {"nlq_closed", 20000, 15000, true, 0.0,
     {&dataset::BenchmarkSuite::test_clean, &dataset::BenchmarkSuite::test_nlq},
     false, false, false, false, GuardLimits{}, 20.0},
    {"schema_open", 6000, 8000, false, 600.0,
     {&dataset::BenchmarkSuite::test_schema,
      &dataset::BenchmarkSuite::test_both},
     true, true, true, true,
     GuardLimits{.deadline_ticks = 20 * serve::kAccountedTicksPerMs,
                 .row_budget = 5000},
     10.0},
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Requests are sent in a fixed shuffle of the pool, which the seed
/// reorders only within consecutive blocks of kOrderBlock. A timed pass
/// serves a prefix of that order, so every seed serves nearly the same
/// questions and the ratios do not swing with which ones a seed drew.
constexpr std::uint64_t kPoolOrderSeed = 0x2545f4914f6cdd1dULL;
constexpr std::size_t kOrderBlock = 256;
/// Requests in the warm-up pass, and in each scaling pass (nproc
/// workers, then one worker) over the warm-up's last requests.
constexpr std::size_t kWarmupRequests = 1500;
constexpr std::size_t kScalingRequests = 400;
/// Served inputs replayed through the retrieval indexes and analyzers.
constexpr std::size_t kReplayInputs = 256;
/// The timed pass is cut into this many equal windows; throughput and
/// latency quantiles are medians over the windows, so one stall of the
/// host moves one window, not the result.
constexpr std::size_t kWindows = 10;
/// A timed pass is invalid when the generator's mean lateness exceeds
/// this share of the median latency.
constexpr double kMaxLatenessShare = 0.1;
/// trace.coverage must land within 1 +- this.
constexpr double kCoverageTolerance = 0.05;
/// Server backlog bound: seconds of open-loop arrivals, so a stall of the
/// host queues requests (and shows in latency) instead of shedding them.
/// A refusal therefore marks a server that fell behind its load, and
/// counts as a failed operation.
constexpr std::size_t kQueueCapacity = 4096;

// ---------------------------------------------------------------------------
// Arguments and provenance

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::size_t train_size = 0;  // 0 = the workload's
  std::size_t test_size = 0;   // 0 = the workload's
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload "
               "nlq_closed|schema_open --seed N --seconds S --trace 0|1 "
               "[--train-size N] [--test-size N]\n",
               problem.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) args.workload = &w;
      }
      if (args.workload == nullptr) Usage(std::string("unknown workload ") + value);
      continue;
    }
    char* end = nullptr;
    const double number = std::strtod(value, &end);
    if (end == value || *end != '\0' || !std::isfinite(number) || number < 0) {
      Usage("bad value for " + flag + ": " + value);
    }
    const bool whole = number == std::floor(number) && number < 1e15;
    if (flag == "--seed" && whole) {
      args.seed = static_cast<std::uint64_t>(number);
      have_seed = true;
    } else if (flag == "--seconds" && number > 0) {
      args.seconds = number;
    } else if (flag == "--trace" && (number == 0 || number == 1)) {
      args.trace = number == 1;
      have_trace = true;
    } else if (flag == "--train-size" && whole && number >= 1) {
      args.train_size = static_cast<std::size_t>(number);
    } else if (flag == "--test-size" && whole && number >= 1) {
      args.test_size = static_cast<std::size_t>(number);
    } else {
      Usage("bad flag or value: " + flag + " " + value);
    }
  }
  if (args.workload == nullptr || !have_seed || args.seconds <= 0 ||
      !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  return args;
}

std::size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return HardwareThreads();
}

/// What makes a build unfit to time: assertions or sanitizers.
std::vector<std::string> BuildTaints() {
  std::vector<std::string> taints;
#ifndef NDEBUG
  taints.push_back("assertions (NDEBUG unset)");
#endif
#if defined(_GLIBCXX_ASSERTIONS) || defined(_GLIBCXX_DEBUG)
  taints.push_back("libstdc++ assertions");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  taints.push_back("sanitizer");
#endif
#ifdef __has_feature
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                     \
    __has_feature(undefined_behavior_sanitizer)
  taints.push_back("sanitizer");
#endif
#endif
  return taints;
}

void PrintProvenance(const Args& args, std::size_t nproc) {
  json::Value p = json::Value::Object();
  p.Set("nproc", json::Value::Int(static_cast<std::int64_t>(nproc)));
  p.Set("dot_target",
        json::Value::Str(embed::DotTargetName(embed::ActiveDotTarget())));
#ifdef __VERSION__
  p.Set("compiler", json::Value::Str(__VERSION__));
#endif
#ifdef NDEBUG
  p.Set("ndebug", json::Value::Bool(true));
#else
  p.Set("ndebug", json::Value::Bool(false));
#endif
  p.Set("workload", json::Value::Str(args.workload->name));
  p.Set("seed", json::Value::Int(static_cast<std::int64_t>(args.seed)));
  p.Set("seconds", json::Value::Number(args.seconds));
  p.Set("trace", json::Value::Bool(args.trace));
  json::Value line = json::Value::Object();
  line.Set("provenance", std::move(p));
  std::printf("%s\n", line.Dump().c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Statistics

/// Linear-interpolated quantile, q in [0,1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Micros(Clock::time_point start) { return Seconds(start) * 1e6; }

// ---------------------------------------------------------------------------
// Deployment: corpora, pipeline and the distinct request list

struct Request {
  std::string body;  // wire request without "{" and id
  const dataset::Example* example = nullptr;
  const dataset::GeneratedDatabase* db = nullptr;
};

struct SetupTimes {
  double suite_s = 0.0;
  double gred_s = 0.0;
  double annotations_s = 0.0;
};

struct Deployment {
  dataset::BenchmarkSuite suite;
  /// What the server resolves database names against: the suite itself,
  /// or (renamed_schemas) a view whose `databases` are the renamed ones.
  dataset::BenchmarkSuite renamed_view;
  const dataset::BenchmarkSuite* serving = nullptr;
  std::unique_ptr<core::Gred> gred;
  std::vector<Request> requests;
};

std::unique_ptr<Deployment> Deploy(const Args& args, const llm::ChatModel* chat,
                                   SetupTimes* times) {
  const Workload& workload = *args.workload;
  auto d = std::make_unique<Deployment>();
  dataset::BenchmarkOptions options;
  options.train_size = args.train_size > 0 ? args.train_size : workload.train_size;
  options.test_size = args.test_size > 0 ? args.test_size : workload.test_size;

  Clock::time_point start = Clock::now();
  d->suite = dataset::BuildBenchmarkSuite(options);
  d->serving = &d->suite;
  if (workload.renamed_schemas) {
    d->renamed_view.databases = std::move(d->suite.databases_rob);
    d->serving = &d->renamed_view;
  }
  times->suite_s = Seconds(start);

  start = Clock::now();
  core::GredConfig config;
  config.enable_lint = workload.lint_and_repair;
  config.enable_repair = workload.lint_and_repair;
  models::TrainingCorpus corpus;
  corpus.train = &d->suite.train;
  corpus.databases = &d->suite.databases;
  d->gred = std::make_unique<core::Gred>(corpus, chat, config);
  times->gred_s = Seconds(start);

  start = Clock::now();
  const std::vector<dataset::GeneratedDatabase>* corpora[] = {
      &d->suite.databases, workload.renamed_schemas ? &d->renamed_view.databases
                                                    : &d->suite.databases_rob};
  for (const std::vector<dataset::GeneratedDatabase>* corpus_dbs : corpora) {
    Result<std::size_t> annotated = d->gred->PrepareAnnotations(*corpus_dbs);
    if (!annotated.ok() || annotated.value() != corpus_dbs->size()) {
      std::fprintf(stderr, "e2e_bench: annotation preparation failed\n");
      std::exit(1);
    }
  }
  times->annotations_s = Seconds(start);

  for (Split split : workload.splits) {
    for (const dataset::Example& example : d->suite.*split) {
      Request request;
      request.example = &example;
      request.db = d->serving->FindCleanDb(example.db_name);
      if (request.db == nullptr) {
        std::fprintf(stderr, "e2e_bench: no database %s\n",
                     example.db_name.c_str());
        std::exit(1);
      }
      json::Value wire = json::Value::Object();
      wire.Set("nlq", json::Value::Str(example.nlq));
      wire.Set("db", json::Value::Str(example.db_name));
      wire.Set("chart", json::Value::Bool(workload.want_chart));
      request.body = wire.Dump().substr(1);
      d->requests.push_back(std::move(request));
    }
  }
  return d;
}

// ---------------------------------------------------------------------------
// Responses

/// A response line with its id and wall-clock timings removed: what must
/// be byte-identical for one request across every pass. (Server::Process
/// writes both keys in fixed positions: id first, flat timings_us last.)
std::string Canonical(const std::string& response) {
  std::string out = response;
  static const std::string kId = "{\"id\":";
  if (out.rfind(kId, 0) == 0) {
    const std::size_t comma = out.find(',', kId.size());
    if (comma != std::string::npos) out.erase(1, comma);
  }
  const std::size_t timings = out.rfind(",\"timings_us\":{");
  if (timings != std::string::npos) {
    out.erase(timings);
    out += '}';
  }
  return out;
}

/// Admission refusals (overloaded, rate_limited, shutting_down).
bool IsRefusal(const std::string& response) {
  return response.find("\"code\":\"Unavailable\"") != std::string::npos;
}

struct Timings {
  bool present = false;
  double translate_us = 0.0;
  double execute_us = 0.0;
  double total_us = 0.0;
};

Timings ParseTimings(const std::string& response) {
  Timings t;
  static const std::string kKey = "\"timings_us\":";
  const std::size_t at = response.rfind(kKey);
  if (at == std::string::npos) return t;
  const std::size_t begin = at + kKey.size();
  json::ParseResult parsed =
      json::Parse(response.substr(begin, response.size() - 1 - begin));
  if (!parsed.ok()) return t;
  const json::Value* translate = parsed.value().Find("translate_us");
  const json::Value* execute = parsed.value().Find("execute_us");
  const json::Value* total = parsed.value().Find("total_us");
  if (translate == nullptr || execute == nullptr || total == nullptr) return t;
  t.present = true;
  t.translate_us = translate->number_value();
  t.execute_us = execute->number_value();
  t.total_us = total->number_value();
  return t;
}

/// The first answer seen to one distinct request, which every later
/// answer to it must reproduce.
struct Reference {
  bool answered = false;
  std::string canonical;
  bool ok = false;
  bool executed = false;  // BuildChart ran (not cost-rejected)
  bool exact = false;     // exact match against gold
  std::string dvq;
};

bool FillReference(const std::string& response, const dataset::Example& gold,
                   Reference* ref) {
  json::ParseResult parsed = json::Parse(response);
  if (!parsed.ok()) return false;
  const json::Value& v = parsed.value();
  const json::Value* ok = v.Find("ok");
  const json::Value* dvq = v.Find("dvq");
  ref->answered = true;
  ref->canonical = Canonical(response);
  ref->ok = ok != nullptr && ok->bool_value();
  ref->executed = dvq != nullptr && v.Find("cost_exceeded") == nullptr;
  if (dvq != nullptr) {
    ref->dvq = dvq->string_value();
    ref->exact = eval::ScorePrediction(gold, dvq::Parse(ref->dvq)).overall;
  }
  return true;
}

/// Everything measured from one pass.
struct PassStats {
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t not_ok = 0;   // not ok, or refused (failed_ratio)
  std::size_t refused = 0;  // unanswered, or refused by admission control
  std::size_t exact = 0;
  std::size_t slo_met = 0;
  std::size_t not_once = 0;    // submissions answered other than once
  std::size_t mismatched = 0;  // answers differing from the reference
  std::vector<double> latency_ms;  // ok responses
  // Responses carrying timings_us:
  std::vector<double> timed_latency_us;
  std::vector<double> queue_wait_ms;
  std::vector<double> translate_us;
  std::vector<double> respond_us;
  std::vector<double> execute_us;  // only where BuildChart ran
  std::vector<double> lateness_ms;
  double wall_s = 0.0;
  bool drained = true;
  serve::ServerStats server;
  /// Per window of a timed pass: latencies of the ok responses due in it,
  /// and ok responses completed in it.
  double window_s = 0.0;
  std::vector<std::vector<double>> window_latency_ms;
  std::vector<double> window_ok;

  double Throughput() const {
    if (window_ok.empty()) return Ratio(static_cast<double>(ok), wall_s);
    std::vector<double> rates;
    for (double n : window_ok) rates.push_back(n / window_s);
    return Quantile(rates, 0.5);
  }
  double Latency(double q) const {
    if (window_latency_ms.empty()) return Quantile(latency_ms, q);
    std::vector<double> per_window;
    for (const std::vector<double>& w : window_latency_ms) {
      per_window.push_back(Quantile(w, q));
    }
    return Quantile(per_window, 0.5);
  }
  double LatencyP50() const { return Latency(0.5); }
};

/// Scores one drained pass. The first answer to a request becomes its
/// reference (and is scored against gold); later ones must match it.
/// `seconds` > 0 marks a timed pass, measured in kWindows windows.
PassStats Measure(const PassRecord& record, const serve::ServerStats& server,
                  const Deployment& d, double slo_ms, double seconds,
                  std::vector<Reference>* refs) {
  PassStats s;
  if (seconds > 0) {
    s.window_s = seconds / static_cast<double>(kWindows);
    s.window_latency_ms.resize(kWindows);
    s.window_ok.resize(kWindows);
  }
  auto window = [&](Clock::time_point t) {
    const double at = std::chrono::duration<double>(t - record.start).count();
    return static_cast<std::size_t>(std::max(0.0, at / s.window_s));
  };
  s.wall_s = record.wall_s;
  s.lateness_ms = record.lateness_ms;
  s.drained = record.drained;
  s.server = server;
  for (const Slot& slot : record.slots) {
    ++s.sent;
    const std::uint32_t responses = slot.responses.load();
    if (responses != 1) ++s.not_once;
    if (responses == 0 || IsRefusal(slot.response)) {
      ++s.not_ok;
      ++s.refused;
      continue;
    }
    Reference& ref = (*refs)[slot.request];
    if (!ref.answered) {
      if (!FillReference(slot.response, *d.requests[slot.request].example, &ref)) {
        ++s.mismatched;
      }
    } else if (Canonical(slot.response) != ref.canonical) {
      ++s.mismatched;
    }
    const double latency_ms =
        std::chrono::duration<double, std::milli>(slot.done - slot.due).count();
    if (ref.exact) ++s.exact;
    if (ref.ok) {
      ++s.ok;
      s.latency_ms.push_back(latency_ms);
      if (latency_ms <= slo_ms) ++s.slo_met;
      if (s.window_s > 0) {
        if (window(slot.due) < kWindows) {
          s.window_latency_ms[window(slot.due)].push_back(latency_ms);
        }
        if (window(slot.done) < kWindows) s.window_ok[window(slot.done)] += 1;
      }
    } else {
      ++s.not_ok;
    }
    const Timings t = ParseTimings(slot.response);
    if (!t.present) continue;
    s.timed_latency_us.push_back(latency_ms * 1000.0);
    s.queue_wait_ms.push_back(latency_ms - t.total_us / 1000.0);
    s.translate_us.push_back(t.translate_us);
    s.respond_us.push_back(t.total_us - t.translate_us - t.execute_us);
    if (ref.executed) s.execute_us.push_back(t.execute_us);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Passes

class Runner {
 public:
  Runner(const Args& args, std::size_t nproc, const Deployment& d)
      : args_(args), workload_(*args.workload), nproc_(nproc) {
    order_.resize(d.requests.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    Rng(kPoolOrderSeed).Shuffle(&order_);
    Rng seeded(args.seed ^ 0x5851f42d4c957f2dULL);
    for (std::size_t begin = 0; begin < order_.size(); begin += kOrderBlock) {
      const auto first = order_.begin() + static_cast<std::ptrdiff_t>(begin);
      const auto last =
          order_.begin() +
          static_cast<std::ptrdiff_t>(std::min(begin + kOrderBlock, order_.size()));
      std::vector<std::size_t> block(first, last);
      seeded.Shuffle(&block);
      std::copy(block.begin(), block.end(), first);
    }
    for (const Request& r : d.requests) bodies_.push_back(r.body);
    refs_.resize(d.requests.size());
  }

  /// The workload's own load for --seconds at nproc workers.
  PassStats ServeWorkload(const Deployment& d) {
    LoadOptions load;
    if (workload_.closed_loop) {
      load.in_flight = nproc_;
    } else {
      load.rate_rps = workload_.rate_rps;
    }
    load.seconds = args_.seconds;
    load.seed = args_.seed ^ 0x9e3779b97f4a7c15ULL;
    return Serve(d, nproc_, load);
  }

  /// The last `count` requests of the order, closed loop with one in
  /// flight per worker.
  PassStats ServeClosed(const Deployment& d, std::size_t workers,
                        std::size_t count) {
    LoadOptions load;
    load.in_flight = workers;
    load.max_requests = std::min(count, order_.size());
    load.first = order_.size() - load.max_requests;
    return Serve(d, workers, load);
  }

  const std::vector<std::size_t>& order() const { return order_; }
  const std::vector<Reference>& refs() const { return refs_; }

  /// FNV-1a over the canonical answers in request order.
  std::uint64_t Digest() const {
    std::uint64_t h = Fnv1a64(std::string());
    for (const Reference& ref : refs_) {
      if (!ref.answered) continue;
      h = Fnv1a64Continue(h, ref.canonical);
      h = Fnv1a64Continue(h, std::string("\n"));
    }
    return h;
  }

 private:
  PassStats Serve(const Deployment& d, std::size_t workers,
                  const LoadOptions& load) {
    serve::ServerOptions options;
    options.num_workers = workers;
    options.queue_capacity = kQueueCapacity;
    options.default_limits = workload_.default_limits;
    options.cost_gate = workload_.cost_gate;
    serve::Server server(d.serving, d.gred.get(), options);
    PassRecord record;
    RunLoad(&server, bodies_, order_, load, &record);
    server.Shutdown();
    return Measure(record, server.stats(), d, workload_.slo_ms, load.seconds,
                   &refs_);
  }

  const Args& args_;
  const Workload& workload_;
  const std::size_t nproc_;
  std::vector<std::size_t> order_;  // seeded permutation of the requests
  std::vector<std::string> bodies_;
  std::vector<Reference> refs_;
};

/// Collects gate failures; a run with any prints no result.
struct Gate {
  std::vector<std::string> failures;

  void Check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }

  void CheckPass(const PassStats& s, const std::string& pass) {
    Check(s.drained, pass + ": responses still missing after the drain limit");
    Check(s.not_once == 0, pass + ": " + std::to_string(s.not_once) +
                               " submissions not answered exactly once");
    Check(s.server.Balanced(), pass + ": server counters unbalanced after drain");
    Check(s.mismatched == 0, pass + ": " + std::to_string(s.mismatched) +
                                 " answers differ from earlier answers");
    Check(s.ok > 0, pass + ": no ok responses");
  }

  /// The generator adds its lateness to every measured latency; it must
  /// stay a small share of what the server itself takes.
  void CheckGenerator(const PassStats& s, const std::string& pass) {
    const double late = Mean(s.lateness_ms);
    const double p50 = s.LatencyP50();
    std::fprintf(stderr,
                 "[e2e] %s: generator lateness mean %.3f p99 %.3f ms, "
                 "latency p50 %.3f ms\n",
                 pass.c_str(), late, Quantile(s.lateness_ms, 0.99), p50);
    Check(late <= kMaxLatenessShare * p50,
          pass + ": generator mean lateness " + std::to_string(late) +
              " ms is a material share of latency p50 " + std::to_string(p50) +
              " ms");
  }
};

// ---------------------------------------------------------------------------
// The traced ledger

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Counter snapshots bracketing the traced pass.
struct Counters {
  core::Gred::StageStats stages;
  embed::CachingEmbedder::Stats cache;
  LlmTotals llm;
};

Counters Snapshot(const Deployment& d, const TracedChatModel& chat) {
  return {d.gred->stage_stats(), d.gred->embed_cache_stats(), chat.totals()};
}

/// Per-call times of each layer's public entry points, replayed on the
/// first served inputs after the passes.
struct Replays {
  std::vector<double> nlq_topk_us;
  std::vector<double> dvq_topk_us;
  std::vector<double> lint_us;
  std::vector<double> cost_us;
};

Replays Replay(const Deployment& d, const Runner& runner) {
  Replays r;
  const std::vector<std::size_t>& order = runner.order();
  const std::vector<Reference>& refs = runner.refs();
  std::vector<std::size_t> sample;
  for (std::size_t i : order) {
    if (sample.size() == kReplayInputs) break;
    if (!refs[i].dvq.empty()) sample.push_back(i);
  }

  embed::CachingEmbedder embedder(std::make_unique<embed::SemanticHashEmbedder>());
  models::ExampleIndex nlq_index(&d.suite.train, &embedder);
  models::DvqIndex dvq_index(&d.suite.train, &embedder);
  const std::size_t k = d.gred->config().k;
  for (int round = 0; round < 2; ++round) {  // round 0 fills the embedder
    for (std::size_t i : sample) {
      Clock::time_point start = Clock::now();
      const bool nlq_hit =
          !nlq_index.TopK(d.requests[i].example->nlq, k).empty();
      const double nlq_us = Micros(start);
      start = Clock::now();
      const bool dvq_hit = !dvq_index.TopK(refs[i].dvq, k).empty();
      const double dvq_us = Micros(start);
      if (round == 1 && nlq_hit && dvq_hit) {
        r.nlq_topk_us.push_back(nlq_us);
        r.dvq_topk_us.push_back(dvq_us);
      }
    }
  }

  std::map<const storage::DatabaseData*, std::unique_ptr<analysis::CostEstimator>>
      estimators;
  for (std::size_t i : sample) {
    Result<dvq::DVQ> parsed = dvq::Parse(refs[i].dvq);
    if (!parsed.ok()) continue;
    const storage::DatabaseData& data = d.requests[i].db->data;
    std::unique_ptr<analysis::CostEstimator>& estimator = estimators[&data];
    if (estimator == nullptr) {
      // The first estimate computes table statistics, which the server
      // caches per database; keep that out of the per-call time.
      estimator = std::make_unique<analysis::CostEstimator>(&data);
      (void)estimator->Estimate(parsed.value());
    }
    Clock::time_point start = Clock::now();
    const analysis::DvqAnalyzer analyzer(&data.db_schema());
    const bool clean = analyzer.Analyze(parsed.value()).empty();
    r.lint_us.push_back(Micros(start));
    start = Clock::now();
    const bool priced = estimator->Estimate(parsed.value()).ok();
    r.cost_us.push_back(Micros(start));
    (void)clean;
    (void)priced;
  }
  return r;
}

/// The per-layer metrics of a traced run. Gred stage times come from
/// Gred's own timers, LLM times from the decorator, serve and exec times
/// from the response's timings_us, queue wait from the client latency.
std::vector<Metric> Ledger(const PassStats& traced, const PassStats& untraced,
                           const PassStats& scale_n, const PassStats& scale_1,
                           std::size_t nproc, const Counters& before,
                           const Counters& after, const Replays& replays,
                           const std::vector<SetupTimes>& setups,
                           Gate* gate) {
  const core::Gred::StageStats& s0 = before.stages;
  const core::Gred::StageStats& s1 = after.stages;
  const LlmTotals llm = Delta(after.llm, before.llm);
  const double calls = static_cast<double>(s1.translate_calls - s0.translate_calls);
  auto task = [&](LlmTask t) { return llm[static_cast<std::size_t>(t)]; };
  auto llm_per_request_us = [&](LlmTask t) {
    return Ratio(static_cast<double>(task(t).nanos) / 1e3, calls);
  };
  auto llm_per_call_us = [&](LlmTask t) {
    return Ratio(static_cast<double>(task(t).nanos) / 1e3,
                 static_cast<double>(task(t).calls));
  };
  auto prompt_kib = [&](LlmTask t) {
    return Ratio(static_cast<double>(task(t).prompt_bytes) / 1024.0,
                 static_cast<double>(task(t).calls));
  };
  std::uint64_t llm_calls = 0;
  for (const LlmTaskTotals& t : llm) llm_calls += t.calls;

  // Per-request wall time of each Gred stage; its self part excludes the
  // LLM call the stage makes.
  const double retrieval_us =
      Ratio((s1.retrieval_seconds - s0.retrieval_seconds) * 1e6, calls);
  const double retune_us = Ratio((s1.retune_seconds - s0.retune_seconds) * 1e6, calls);
  const double debug_us = Ratio((s1.debug_seconds - s0.debug_seconds) * 1e6, calls);
  const double translate_us = Mean(traced.translate_us);
  const double other_us = translate_us - retrieval_us - retune_us - debug_us;

  // Reconciliation of clocks that were read independently. Every LLM call
  // must carry a stage's prompt marker (else its time would fall out of
  // the stage self times unnoticed); the decorator's time per task must
  // fit inside the Gred stage timer around that call; and Gred's stage
  // timers must add up to the server's translate timer.
  gate->Check(task(LlmTask::kOther).calls == 0,
              std::to_string(task(LlmTask::kOther).calls) +
                  " LLM calls matched no stage prompt marker");
  const struct {
    LlmTask task;
    const char* stage;
    double stage_us;
  } stage_llm[] = {{LlmTask::kGenerate, "retrieval", retrieval_us},
                   {LlmTask::kRetune, "retune", retune_us},
                   {LlmTask::kDebug, "debug", debug_us}};
  for (const auto& s : stage_llm) {
    gate->Check(llm_per_request_us(s.task) <= s.stage_us,
                std::string("LLM time in the ") + s.stage + " stage (" +
                    std::to_string(llm_per_request_us(s.task)) +
                    " us/request) exceeds the stage timer (" +
                    std::to_string(s.stage_us) + " us/request)");
  }
  gate->Check(std::fabs(other_us) <= kCoverageTolerance * translate_us,
              "Gred stage timers miss " + std::to_string(other_us) + " of " +
                  std::to_string(translate_us) + " us of translate time");

  // Coverage: every attributed layer (all but gred.other, the part of
  // translate no stage timer saw) against the client-side latency. Queue
  // wait and response assembly are differences of the client and server
  // clocks, so this reduces to 1 - gred.other / latency; the checks above
  // are the ones that compare independent clocks.
  const double requests = static_cast<double>(traced.timed_latency_us.size());
  double execute_sum = 0.0;
  for (double v : traced.execute_us) execute_sum += v;
  const double coverage =
      Ratio(Mean(traced.queue_wait_ms) * 1000.0 + Mean(traced.respond_us) +
                Ratio(execute_sum, requests) + retrieval_us + retune_us + debug_us,
            Mean(traced.timed_latency_us));
  gate->Check(std::fabs(coverage - 1.0) <= kCoverageTolerance,
              "trace.coverage " + std::to_string(coverage) + " is not within 5% of 1");

  const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
  const double misses = static_cast<double>(after.cache.misses - before.cache.misses);
  auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return Quantile(v, 0.5);
  };
  const serve::ServerStats& server = traced.server;
  return {
      {"serve.queue_wait_ms.p50", Quantile(traced.queue_wait_ms, 0.5), "ms"},
      {"serve.queue_wait_ms.p99", Quantile(traced.queue_wait_ms, 0.99), "ms"},
      {"serve.respond_us.mean", Mean(traced.respond_us), "us"},
      {"serve.rejected_overload", count(server.rejected_overload), "count"},
      {"serve.rejected_cost", count(server.rejected_cost), "count"},
      {"serve.resource_exhausted", count(server.resource_exhausted), "count"},
      {"gred.translate_us.p50", Quantile(traced.translate_us, 0.5), "us"},
      {"gred.translate_us.p99", Quantile(traced.translate_us, 0.99), "us"},
      {"gred.retrieval_self_us.mean",
       retrieval_us - llm_per_request_us(LlmTask::kGenerate), "us"},
      {"gred.retune_self_us.mean", retune_us - llm_per_request_us(LlmTask::kRetune),
       "us"},
      {"gred.debug_self_us.mean", debug_us - llm_per_request_us(LlmTask::kDebug),
       "us"},
      {"gred.other_us.mean", other_us, "us"},
      {"gred.scaling_efficiency",
       Ratio(scale_n.Throughput(), static_cast<double>(nproc) * scale_1.Throughput()),
       "ratio"},
      {"llm.generate_us.mean", llm_per_call_us(LlmTask::kGenerate), "us"},
      {"llm.retune_us.mean", llm_per_call_us(LlmTask::kRetune), "us"},
      {"llm.debug_us.mean", llm_per_call_us(LlmTask::kDebug), "us"},
      {"llm.calls_per_request", Ratio(count(llm_calls), calls), "calls/req"},
      {"llm.prompt_kb.generate", prompt_kib(LlmTask::kGenerate), "KiB"},
      {"llm.prompt_kb.retune", prompt_kib(LlmTask::kRetune), "KiB"},
      {"llm.prompt_kb.debug", prompt_kib(LlmTask::kDebug), "KiB"},
      {"embed.cache_hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"models.nlq_topk_us.p50", Quantile(replays.nlq_topk_us, 0.5), "us"},
      {"models.dvq_topk_us.p50", Quantile(replays.dvq_topk_us, 0.5), "us"},
      {"analysis.lint_trips",
       count((s1.retune_lint_trips + s1.debug_lint_trips) -
             (s0.retune_lint_trips + s0.debug_lint_trips)),
       "count"},
      {"analysis.repairs",
       count((s1.retune_repairs + s1.debug_repairs) -
             (s0.retune_repairs + s0.debug_repairs)),
       "count"},
      {"analysis.lint_us.mean", Mean(replays.lint_us), "us"},
      {"analysis.cost_us.mean", Mean(replays.cost_us), "us"},
      {"exec.build_chart_us.p50", Quantile(traced.execute_us, 0.5), "us"},
      {"exec.build_chart_us.p99", Quantile(traced.execute_us, 0.99), "us"},
      {"setup.suite_s", setup_median(&SetupTimes::suite_s), "s"},
      {"setup.gred_s", setup_median(&SetupTimes::gred_s), "s"},
      {"setup.annotations_s", setup_median(&SetupTimes::annotations_s), "s"},
      {"trace.coverage", coverage, "ratio"},
      {"trace.overhead_ratio", Ratio(traced.LatencyP50(), untraced.LatencyP50()),
       "ratio"},
      {"gen.lateness_p99_ms", Quantile(traced.lateness_ms, 0.99), "ms"},
  };
}

// ---------------------------------------------------------------------------
// Run

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Run(const Args& args) {
  const Workload& workload = *args.workload;
  const std::size_t nproc = Nproc();
  PrintProvenance(args, nproc);
  const std::vector<std::string> taints = BuildTaints();
  for (const std::string& taint : taints) {
    std::fprintf(stderr, "e2e_bench: refusing to measure a tainted build: %s\n",
                 taint.c_str());
  }
  if (!taints.empty()) return 3;

  // Set-up, repeated for a steady median. The last deployment serves the
  // timed pass; a traced run keeps the one before it too for the traced
  // pass, so tracing never sees caches the timed pass filled.
  llm::SimulatedChatModel simulated;
  TracedChatModel chat(&simulated);
  const std::size_t keep = args.trace ? 2 : 1;
  std::vector<std::unique_ptr<Deployment>> deployments;
  std::vector<SetupTimes> setups(kSetupRepeats);
  for (SetupTimes& times : setups) {
    if (deployments.size() == keep) deployments.erase(deployments.begin());
    deployments.push_back(Deploy(args, &chat, &times));
  }
  const Deployment& d = *deployments.back();

  Runner runner(args, nproc, d);
  Gate gate;
  // Warm-up, then scaling: requests from the end of the order (which the
  // timed pass does not reach), first to take the process's own warm-up
  // (page faults, allocator growth, idle cores) off the timed pass, then
  // the same requests at nproc workers and at one, equally warm.
  PassStats scale_n;
  PassStats scale_1;
  auto warm_up = [&](const Deployment& on, const std::string& which) {
    gate.CheckPass(runner.ServeClosed(on, nproc, kWarmupRequests),
                   which + "warm-up pass");
    scale_n = runner.ServeClosed(on, nproc, kScalingRequests);
    scale_1 = runner.ServeClosed(on, 1, kScalingRequests);
    gate.CheckPass(scale_n, which + "scaling pass (nproc workers)");
    gate.CheckPass(scale_1, which + "scaling pass (1 worker)");
  };
  warm_up(d, "");

  const PassStats timed = runner.ServeWorkload(d);
  gate.CheckPass(timed, "timed pass");
  gate.CheckGenerator(timed, "timed pass");

  PassStats traced;
  Counters before;
  Counters after;
  if (args.trace) {
    // The traced deployment takes the same warm-up and scaling passes
    // (reported scaling is from this second, equally warm round).
    const Deployment& other = *deployments.front();
    warm_up(other, "traced deployment: ");
    before = Snapshot(other, chat);
    chat.set_recording(true);
    traced = runner.ServeWorkload(other);
    chat.set_recording(false);
    after = Snapshot(other, chat);
    gate.CheckPass(traced, "traced pass");
    gate.CheckGenerator(traced, "traced pass");
  }

  std::vector<Metric> metrics;
  const PassStats& reported = args.trace ? traced : timed;
  if (args.trace) {
    metrics = Ledger(traced, timed, scale_n, scale_1, nproc, before, after,
                     Replay(d, runner), setups, &gate);
  } else {
    std::vector<double> setup_totals;
    for (const SetupTimes& t : setups) {
      setup_totals.push_back(t.suite_s + t.gred_s + t.annotations_s);
    }
    const double sent = static_cast<double>(timed.sent);
    metrics = {
        {"setup_s", Quantile(setup_totals, 0.5), "s"},
        {"throughput_rps", timed.Throughput(), "1/s"},
        {"latency_p50_ms", timed.LatencyP50(), "ms"},
        {"latency_p99_ms", timed.Latency(0.99), "ms"},
        {"accuracy", Ratio(static_cast<double>(timed.exact), sent), "ratio"},
        {"failed_ratio", Ratio(static_cast<double>(timed.not_ok), sent), "ratio"},
        {"slo_met_ratio", Ratio(static_cast<double>(timed.slo_met), sent), "ratio"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
    };
  }
  for (const Metric& m : metrics) {
    gate.Check(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }

  std::fprintf(stderr,
               "[e2e] %s seed=%llu: %zu sent, %zu ok in %.2f s; scaling "
               "%.1f rps @%zu workers, %.1f rps @1; answer digest %016llx\n",
               workload.name, static_cast<unsigned long long>(args.seed),
               reported.sent, reported.ok, reported.wall_s, scale_n.Throughput(),
               nproc, scale_1.Throughput(),
               static_cast<unsigned long long>(runner.Digest()));
  if (!gate.failures.empty()) {
    for (const std::string& f : gate.failures) {
      std::fprintf(stderr, "[e2e] FAIL: %s\n", f.c_str());
    }
    return 1;
  }

  // "failed" counts operations the server did not complete: unanswered or
  // refused submissions. (The gate has already refused answers given
  // other than once or differing between passes.) An "ok":false answer is
  // a completed operation: the same request gets the same answer in every
  // pass, and failed_ratio, accuracy and slo_met_ratio score it.
  std::string out = "{\"correct\": true, \"attempted\": " +
                    std::to_string(reported.sent) +
                    ", \"failed\": " + std::to_string(reported.refused) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::fprintf(stderr, "[e2e]   %-30s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace gred::e2e

int main(int argc, char** argv) {
  return gred::e2e::Run(gred::e2e::ParseArgs(argc, argv));
}
