// Tests for the serving layer (DESIGN.md §13, hardened in §16):
// wire-protocol parsing and validation, bounded-queue admission control
// (including the overload / rate-limit / shutting-down rejection
// taxonomy), the concurrent worker pool's byte-identity with the serial
// reference path, typed budget trips, brownout degradation, hot-reload
// epoch semantics, the counter-balance invariant, the stats endpoint
// and the stream loop.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dataset/benchmark.h"
#include "gred/gred.h"
#include "llm/sim_llm.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/json.h"

namespace gred::serve {
namespace {

// ---------------------------------------------------------------------------
// Protocol

TEST(ServeProtocol, ParsesFullTranslateRequest) {
  Result<Request> req = ParseRequest(
      "{\"id\": 7, \"nlq\": \"plot a bar chart\", \"db\": \"hr_1\","
      " \"deadline_ms\": 5, \"budget_rows\": 100, \"chart\": false}");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req.value().type, RequestType::kTranslate);
  EXPECT_EQ(req.value().nlq, "plot a bar chart");
  EXPECT_EQ(req.value().db, "hr_1");
  EXPECT_EQ(req.value().limits.deadline_ticks, 5 * kAccountedTicksPerMs);
  EXPECT_EQ(req.value().limits.row_budget, 100u);
  EXPECT_FALSE(req.value().want_chart);
  EXPECT_EQ(req.value().id.number_value(), 7.0);
}

TEST(ServeProtocol, SchemaIsAnAliasForDb) {
  Result<Request> req =
      ParseRequest("{\"nlq\": \"q\", \"schema\": \"library_1\"}");
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req.value().db, "library_1");
  // Defaults: no SLO of its own, chart wanted, null id.
  EXPECT_EQ(req.value().limits.deadline_ticks, 0u);
  EXPECT_EQ(req.value().limits.row_budget, 0u);
  EXPECT_TRUE(req.value().want_chart);
  EXPECT_TRUE(req.value().id.is_null());
}

TEST(ServeProtocol, ParsesStatsRequest) {
  Result<Request> req = ParseRequest("{\"id\": \"s1\", \"type\": \"stats\"}");
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req.value().type, RequestType::kStats);
  EXPECT_EQ(req.value().id.string_value(), "s1");
}

TEST(ServeProtocol, AbsurdDeadlineSaturatesInsteadOfOverflowing) {
  Result<Request> req = ParseRequest(
      "{\"nlq\": \"q\", \"db\": \"d\", \"deadline_ms\": 1e18}");
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req.value().limits.deadline_ticks, ~std::uint64_t{0});
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  struct Case {
    const char* line;
    StatusCode code;
  };
  const Case cases[] = {
      {"{oops", StatusCode::kParseError},
      {"[1, 2]", StatusCode::kInvalidArgument},       // not an object
      {"{\"db\": \"d\"}", StatusCode::kInvalidArgument},  // missing nlq
      {"{\"nlq\": \"q\"}", StatusCode::kInvalidArgument},  // missing db
      {"{\"nlq\": \"\", \"db\": \"d\"}", StatusCode::kInvalidArgument},
      {"{\"nlq\": 3, \"db\": \"d\"}", StatusCode::kInvalidArgument},
      {"{\"nlq\": \"q\", \"db\": \"d\", \"type\": \"delete\"}",
       StatusCode::kInvalidArgument},
      {"{\"nlq\": \"q\", \"db\": \"d\", \"deadline_ms\": \"fast\"}",
       StatusCode::kInvalidArgument},
      {"{\"nlq\": \"q\", \"db\": \"d\", \"budget_rows\": -1}",
       StatusCode::kInvalidArgument},
      {"{\"nlq\": \"q\", \"db\": \"d\", \"deadline_ms\": 1e19}",
       StatusCode::kInvalidArgument},  // out of range
      {"{\"nlq\": \"q\", \"db\": \"d\", \"chart\": \"yes\"}",
       StatusCode::kInvalidArgument},
  };
  for (const Case& c : cases) {
    Result<Request> req = ParseRequest(c.line);
    ASSERT_FALSE(req.ok()) << c.line;
    EXPECT_EQ(req.status().code(), c.code) << c.line;
  }
}

TEST(ServeProtocol, RejectsOversizedLineBeforeParsing) {
  std::string huge(kMaxRequestBytes + 1, 'x');
  Result<Request> req = ParseRequest(huge);
  ASSERT_FALSE(req.ok());
  EXPECT_EQ(req.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(req.status().message().find("too large"), std::string::npos);
}

TEST(ServeProtocol, ErrorResponsesAreWellFormedJson) {
  json::Value id = json::Value::Int(42);
  std::string line = ErrorResponse(&id, Status::NotFound("no such db"));
  json::ParseResult parsed = json::Parse(line);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().Find("id")->number_value(), 42.0);
  EXPECT_FALSE(parsed.value().Find("ok")->bool_value());
  EXPECT_EQ(parsed.value().Find("error")->string_value(), "no such db");
  EXPECT_EQ(parsed.value().Find("code")->string_value(), "NotFound");

  std::string overloaded = OverloadedResponse(nullptr);
  json::ParseResult shed = json::Parse(overloaded);
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed.value().Find("id"), nullptr);
  EXPECT_EQ(shed.value().Find("error")->string_value(), "overloaded");
  EXPECT_EQ(shed.value().Find("code")->string_value(), "Unavailable");
}

// ---------------------------------------------------------------------------
// RequestQueue / Session units

Job MakeJob(const std::string& nlq) {
  Job job;
  job.request.nlq = nlq;
  job.done = [](const std::string&) {};
  return job;
}

TEST(RequestQueue, BoundedAdmissionFifoOrderAndDrainOnClose) {
  RequestQueue queue(2);
  EXPECT_EQ(queue.capacity(), 2u);
  EXPECT_EQ(queue.TryPush(MakeJob("a")), RequestQueue::PushResult::kAccepted);
  EXPECT_EQ(queue.TryPush(MakeJob("b")), RequestQueue::PushResult::kAccepted);
  EXPECT_EQ(queue.depth(), 2u);

  // Full: the job is refused and left with the caller.
  Job rejected = MakeJob("c");
  EXPECT_EQ(queue.TryPush(std::move(rejected)),
            RequestQueue::PushResult::kFull);
  EXPECT_EQ(rejected.request.nlq, "c");  // untouched on failure

  Job out;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out.request.nlq, "a");  // FIFO

  // Close with one job still queued: Pop drains it, then reports end.
  EXPECT_FALSE(queue.closed());
  queue.Close();
  EXPECT_TRUE(queue.closed());
  // After close, refusal is kClosed — even with space free — so the
  // caller can answer "shutting_down" rather than the lie "overloaded".
  EXPECT_EQ(queue.TryPush(MakeJob("d")), RequestQueue::PushResult::kClosed);
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out.request.nlq, "b");
  EXPECT_FALSE(queue.Pop(&out));
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(RequestQueue, ZeroCapacityIsClampedToOne) {
  RequestQueue queue(0);
  EXPECT_EQ(queue.capacity(), 1u);
  EXPECT_EQ(queue.TryPush(MakeJob("a")), RequestQueue::PushResult::kAccepted);
  EXPECT_EQ(queue.TryPush(MakeJob("b")), RequestQueue::PushResult::kFull);
}

// The exactly-once delivery contract under contention (run under TSan
// in tier1.sh): producers race TryPush against consumers racing Pop
// while a closer thread slams the queue shut mid-stream. Every accepted
// job must be popped exactly once; every refused job must never appear;
// nothing may be lost or double-delivered.
TEST(RequestQueue, HammerConcurrentPushPopCloseDeliversExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 250;
  constexpr int kTotal = kProducers * kPerProducer;

  RequestQueue queue(8);
  std::atomic<int> accepted{0};
  std::atomic<int> refused{0};
  std::atomic<int> attempts{0};
  std::vector<std::atomic<int>> delivered(kTotal);
  std::vector<std::atomic<bool>> was_accepted(kTotal);

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int id = p * kPerProducer + i;
        Job job = MakeJob(std::to_string(id));
        const RequestQueue::PushResult result = queue.TryPush(std::move(job));
        if (result == RequestQueue::PushResult::kAccepted) {
          was_accepted[id].store(true, std::memory_order_relaxed);
          accepted.fetch_add(1, std::memory_order_relaxed);
        } else {
          refused.fetch_add(1, std::memory_order_relaxed);
        }
        attempts.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Close mid-stream, racing live pushes: late producers see kClosed.
  threads.emplace_back([&] {
    while (attempts.load(std::memory_order_relaxed) < kTotal / 2) {
      std::this_thread::yield();
    }
    queue.Close();
  });
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      Job job;
      while (queue.Pop(&job)) {
        delivered[std::stoi(job.request.nlq)].fetch_add(
            1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(accepted.load() + refused.load(), kTotal);
  EXPECT_GT(accepted.load(), 0);
  // Everything settled: the queue is closed and drained, and a late
  // push is refused as kClosed, never silently dropped.
  EXPECT_TRUE(queue.closed());
  EXPECT_EQ(queue.TryPush(MakeJob("late")), RequestQueue::PushResult::kClosed);
  int total_delivered = 0;
  for (int id = 0; id < kTotal; ++id) {
    const int count = delivered[id].load();
    total_delivered += count;
    EXPECT_LE(count, 1) << "job " << id << " double-delivered";
    EXPECT_EQ(count == 1, was_accepted[id].load())
        << "job " << id << (count ? " delivered but refused"
                                  : " accepted but lost");
  }
  EXPECT_EQ(total_delivered, accepted.load());
  EXPECT_EQ(queue.depth(), 0u);
}

// ---------------------------------------------------------------------------
// SessionRateLimiter units

TEST(SessionRateLimiter, BurstThenRejectWithoutAdvancingTheClock) {
  SessionRateLimiter limiter(/*refill_per_request=*/0.25, /*burst=*/2.0);
  // A new session gets its full burst…
  EXPECT_TRUE(limiter.Admit("a"));
  EXPECT_TRUE(limiter.Admit("a"));
  EXPECT_EQ(limiter.clock(), 2u);
  // …then runs dry. Rejections do not tick the shared clock, so a
  // limited session cannot refill itself by spamming.
  EXPECT_FALSE(limiter.Admit("a"));
  EXPECT_FALSE(limiter.Admit("a"));
  EXPECT_EQ(limiter.clock(), 2u);
}

TEST(SessionRateLimiter, OtherSessionsAdmissionsRefillTheBucket) {
  SessionRateLimiter limiter(/*refill_per_request=*/0.5, /*burst=*/1.0);
  EXPECT_TRUE(limiter.Admit("a"));   // clock 1
  EXPECT_FALSE(limiter.Admit("a"));  // dry; clock still 1
  // Two admissions elsewhere advance the clock by two ticks = 1 token.
  EXPECT_TRUE(limiter.Admit("b"));  // clock 2
  EXPECT_TRUE(limiter.Admit("c"));  // clock 3
  EXPECT_TRUE(limiter.Admit("a"));  // refilled 0 + 2*0.5 -> admitted
  EXPECT_FALSE(limiter.Admit("a"));
}

TEST(SessionRateLimiter, DeterministicAcrossReplays) {
  // Same admission sequence -> same outcomes, bit for bit.
  std::vector<bool> first;
  std::vector<bool> second;
  for (std::vector<bool>* out : {&first, &second}) {
    SessionRateLimiter limiter(0.25, 2.0);
    for (int i = 0; i < 32; ++i) {
      out->push_back(limiter.Admit(i % 3 == 0 ? "x" : "y"));
    }
  }
  EXPECT_EQ(first, second);
}

TEST(Session, SerializesLinesAndCounts) {
  std::ostringstream out;
  Session session(&out);
  session.Write("{\"ok\":true}");
  session.Write("{\"ok\":false}");
  EXPECT_EQ(session.responses_written(), 2u);
  EXPECT_EQ(out.str(), "{\"ok\":true}\n{\"ok\":false}\n");
}

// ---------------------------------------------------------------------------
// Server end-to-end (shared suite + pipeline, like gred_test)

class ServeFixture : public ::testing::Test {
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
    gred_ = new core::Gred(corpus_, llm_);
    ASSERT_TRUE(gred_->PrepareAnnotations(suite_->databases).ok());
  }

  static std::string RequestLine(int id, const dataset::Example& example) {
    json::Value obj = json::Value::Object();
    obj.Set("id", json::Value::Int(id));
    obj.Set("nlq", json::Value::Str(example.nlq));
    obj.Set("db", json::Value::Str(example.db_name));
    return obj.Dump();
  }

  static dataset::BenchmarkSuite* suite_;
  static models::TrainingCorpus corpus_;
  static llm::SimulatedChatModel* llm_;
  static core::Gred* gred_;
};

dataset::BenchmarkSuite* ServeFixture::suite_ = nullptr;
models::TrainingCorpus ServeFixture::corpus_;
llm::SimulatedChatModel* ServeFixture::llm_ = nullptr;
core::Gred* ServeFixture::gred_ = nullptr;

TEST_F(ServeFixture, HandleAnswersMalformedAndUnknownDbWithTypedErrors) {
  ServerOptions options;
  options.num_workers = 1;
  Server server(suite_, gred_, options);

  json::ParseResult bad = json::Parse(server.Handle("{oops"));
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad.value().Find("ok")->bool_value());
  EXPECT_EQ(bad.value().Find("code")->string_value(), "ParseError");

  json::ParseResult missing = json::Parse(
      server.Handle("{\"id\": 1, \"nlq\": \"q\", \"db\": \"no_such_db\"}"));
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing.value().Find("ok")->bool_value());
  EXPECT_EQ(missing.value().Find("code")->string_value(), "NotFound");
  EXPECT_EQ(missing.value().Find("id")->number_value(), 1.0);
}

TEST_F(ServeFixture, ConcurrentRepliesMatchSerialBatchByteForByte) {
  ServerOptions options;
  options.num_workers = 4;
  options.queue_capacity = 64;
  options.include_timings = false;  // the determinism switch
  Server server(suite_, gred_, options);

  const std::size_t n = std::min<std::size_t>(10, suite_->test_clean.size());
  std::vector<std::string> lines;
  std::map<int, std::string> serial;
  for (std::size_t i = 0; i < n; ++i) {
    lines.push_back(RequestLine(static_cast<int>(i), suite_->test_clean[i]));
    serial[static_cast<int>(i)] = server.Handle(lines.back());
  }

  std::mutex mu;
  std::map<int, std::string> concurrent;
  for (const std::string& line : lines) {
    server.Submit(line, [&mu, &concurrent](const std::string& response) {
      json::ParseResult parsed = json::Parse(response);
      ASSERT_TRUE(parsed.ok()) << response;
      int id = static_cast<int>(parsed.value().Find("id")->number_value());
      std::lock_guard<std::mutex> lock(mu);
      concurrent[id] = response;
    });
  }
  server.Shutdown();  // drains every admitted request

  ASSERT_EQ(concurrent.size(), n);
  for (const auto& [id, response] : serial) {
    EXPECT_EQ(concurrent[id], response) << "request id " << id;
  }
  EXPECT_EQ(server.stats().rejected_overload, 0u);
}

TEST_F(ServeFixture, FullQueueShedsLoadWithOverloadedResponse) {
  ServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 2;
  options.include_timings = false;
  Server server(suite_, gred_, options);

  const std::string line = RequestLine(0, suite_->test_clean[0]);

  // Wedge the single worker: its completion callback blocks until the
  // test releases it, so nothing drains while we fill the queue.
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  std::mutex mu;
  std::vector<std::string> responses;
  server.Submit(line, [&](const std::string& response) {
    started.set_value();
    release_future.wait();
    std::lock_guard<std::mutex> lock(mu);
    responses.push_back(response);
  });
  started.get_future().wait();  // the worker has popped the wedge job

  auto collect = [&](const std::string& response) {
    std::lock_guard<std::mutex> lock(mu);
    responses.push_back(response);
  };
  // Queue is empty again; exactly `queue_capacity` more are admitted…
  server.Submit(line, collect);
  server.Submit(line, collect);
  // …and the next is shed immediately, on the submitting thread.
  bool rejected_inline = false;
  server.Submit(line, [&](const std::string& response) {
    json::ParseResult parsed = json::Parse(response);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().Find("error")->string_value(), "overloaded");
    EXPECT_EQ(parsed.value().Find("code")->string_value(), "Unavailable");
    EXPECT_EQ(parsed.value().Find("id")->number_value(), 0.0);
    rejected_inline = true;
  });
  EXPECT_TRUE(rejected_inline);

  release.set_value();
  server.Shutdown();

  EXPECT_EQ(responses.size(), 3u);  // wedge + the two admitted
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.received, 4u);
  EXPECT_EQ(stats.rejected_overload, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST_F(ServeFixture, RowBudgetTripsAreTypedAndKeepTheDvq) {
  ServerOptions options;
  options.num_workers = 1;
  options.include_timings = false;
  Server server(suite_, gred_, options);

  // Find a request that succeeds cleanly and materializes enough rows
  // that a budget of one row must trip.
  for (std::size_t i = 0; i < suite_->test_clean.size(); ++i) {
    json::ParseResult ok_reply =
        json::Parse(server.Handle(RequestLine(static_cast<int>(i),
                                              suite_->test_clean[i])));
    ASSERT_TRUE(ok_reply.ok());
    if (!ok_reply.value().Find("ok")->bool_value()) continue;
    if (ok_reply.value().Find("rows")->number_value() < 2) continue;

    json::Value obj = json::Value::Object();
    obj.Set("id", json::Value::Int(99));
    obj.Set("nlq", json::Value::Str(suite_->test_clean[i].nlq));
    obj.Set("db", json::Value::Str(suite_->test_clean[i].db_name));
    obj.Set("budget_rows", json::Value::Int(1));
    json::ParseResult tripped = json::Parse(server.Handle(obj.Dump()));
    ASSERT_TRUE(tripped.ok());
    const json::Value& reply = tripped.value();
    EXPECT_FALSE(reply.Find("ok")->bool_value());
    ASSERT_NE(reply.Find("resource_exhausted"), nullptr);
    EXPECT_TRUE(reply.Find("resource_exhausted")->bool_value());
    // The DVQ survived the trip: clients retry with a bigger budget
    // without paying for translation again.
    ASSERT_NE(reply.Find("dvq"), nullptr);
    EXPECT_FALSE(reply.Find("dvq")->string_value().empty());
    ASSERT_NE(reply.Find("code"), nullptr);
    EXPECT_GE(server.stats().resource_exhausted, 1u);
    return;
  }
  FAIL() << "no test example produced a successful multi-row chart";
}

/// Keys of a compact JSON object's outermost level, in wire order
/// (json::Value offers lookup by key, not member order).
std::vector<std::string> TopLevelKeys(const std::string& text) {
  std::vector<std::string> keys;
  int depth = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '"') {
      std::size_t end = i + 1;
      while (text[end] != '"') end += text[end] == '\\' ? 2 : 1;
      if (depth == 1 && end + 1 < text.size() && text[end + 1] == ':') {
        keys.push_back(text.substr(i + 1, end - i - 1));
      }
      i = end;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
    }
  }
  return keys;
}

TEST_F(ServeFixture, CostGateRejectsOverBudgetQueryBeforeExecution) {
  ServerOptions options;
  options.num_workers = 1;
  options.include_timings = false;
  options.cost_gate = true;
  Server server(suite_, gred_, options);
  ServerOptions ungated = options;
  ungated.cost_gate = false;
  Server plain(suite_, gred_, ungated);

  for (std::size_t i = 0; i < suite_->test_clean.size(); ++i) {
    const std::string line =
        RequestLine(static_cast<int>(i), suite_->test_clean[i]);
    // Unlimited requests never gate: byte-identical to a gate-off server.
    ASSERT_EQ(server.Handle(line), plain.Handle(line));
    const std::string ok_text = server.Handle(line);
    json::ParseResult ok_reply = json::Parse(ok_text);
    ASSERT_TRUE(ok_reply.ok());
    if (!ok_reply.value().Find("ok")->bool_value()) continue;
    if (ok_reply.value().Find("rows")->number_value() < 2) continue;
    // The three translated-reply shapes share one head and key order;
    // this pins the wire format (chart, ok and cost-gate paths).
    using Keys = std::vector<std::string>;
    EXPECT_EQ(TopLevelKeys(ok_text),
              (Keys{"id", "ok", "dvq", "sql", "degraded", "rows", "chart"}));
    EXPECT_EQ(TopLevelKeys(ok_reply.value().Find("degraded")->Dump()),
              (Keys{"retuner", "debugger"}));

    // A one-row budget is provably too small (the estimate bounds at
    // least the scan's materialized rows), so the gate must fire —
    // typed, with the priced costs — instead of the executor tripping.
    const std::uint64_t exhausted_before = server.stats().resource_exhausted;
    json::Value obj = json::Value::Object();
    obj.Set("id", json::Value::Int(77));
    obj.Set("nlq", json::Value::Str(suite_->test_clean[i].nlq));
    obj.Set("db", json::Value::Str(suite_->test_clean[i].db_name));
    obj.Set("budget_rows", json::Value::Int(1));
    const std::string gated_text = server.Handle(obj.Dump());
    json::ParseResult gated = json::Parse(gated_text);
    ASSERT_TRUE(gated.ok());
    const json::Value& reply = gated.value();
    EXPECT_EQ(TopLevelKeys(gated_text),
              (Keys{"id", "ok", "dvq", "sql", "degraded", "cost_exceeded",
                    "cost", "error"}));
    EXPECT_EQ(TopLevelKeys(reply.Find("cost")->Dump()),
              (Keys{"ticks", "rows", "bytes", "join_rows", "exceeded"}));
    EXPECT_FALSE(reply.Find("ok")->bool_value());
    ASSERT_NE(reply.Find("error"), nullptr);
    EXPECT_EQ(reply.Find("error")->string_value(), "cost_exceeded");
    ASSERT_NE(reply.Find("cost_exceeded"), nullptr);
    EXPECT_TRUE(reply.Find("cost_exceeded")->bool_value());
    // No executor ran: a runtime trip would have marked the response
    // resource_exhausted and bumped that counter.
    EXPECT_EQ(reply.Find("resource_exhausted"), nullptr);
    EXPECT_EQ(server.stats().resource_exhausted, exhausted_before);
    // The priced estimate and the budget it broke ride along, and the
    // DVQ/SQL survive for a client retry with a bigger budget.
    ASSERT_NE(reply.Find("cost"), nullptr);
    EXPECT_EQ(reply.Find("cost")->Find("exceeded")->string_value(), "rows");
    EXPECT_GE(reply.Find("cost")->Find("rows")->number_value(), 2.0);
    ASSERT_NE(reply.Find("dvq"), nullptr);
    EXPECT_FALSE(reply.Find("dvq")->string_value().empty());

    ServerStats stats = server.stats();
    EXPECT_EQ(stats.rejected_cost, 1u);
    EXPECT_GE(stats.failed, stats.rejected_cost);  // subset accounting
    EXPECT_TRUE(stats.Balanced());

    // The same request without the gate runs the executor and trips at
    // runtime instead — the slow failure the gate pre-empts.
    const std::string runtime_text = plain.Handle(obj.Dump());
    json::ParseResult runtime = json::Parse(runtime_text);
    ASSERT_TRUE(runtime.ok());
    EXPECT_EQ(TopLevelKeys(runtime_text),
              (Keys{"id", "ok", "dvq", "sql", "degraded",
                    "resource_exhausted", "error", "code"}));
    EXPECT_FALSE(runtime.value().Find("ok")->bool_value());
    ASSERT_NE(runtime.value().Find("resource_exhausted"), nullptr);
    EXPECT_EQ(plain.stats().rejected_cost, 0u);
    return;
  }
  FAIL() << "no test example produced a successful multi-row chart";
}

TEST_F(ServeFixture, StatsEndpointReportsCachesAndCounters) {
  ServerOptions options;
  options.num_workers = 1;
  Server server(suite_, gred_, options);

  std::string response;
  server.Submit("{\"id\": 5, \"type\": \"stats\"}",
                [&response](const std::string& r) { response = r; });
  ASSERT_FALSE(response.empty());  // stats answers inline, not queued

  json::ParseResult parsed = json::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  const json::Value& reply = parsed.value();
  EXPECT_TRUE(reply.Find("ok")->bool_value());
  ASSERT_NE(reply.Find("server"), nullptr);
  EXPECT_NE(reply.Find("server")->Find("queue_capacity"), nullptr);
  ASSERT_NE(reply.Find("embed_cache"), nullptr);
  EXPECT_NE(reply.Find("embed_cache")->Find("hit_rate"), nullptr);
  ASSERT_NE(reply.Find("stages"), nullptr);
  EXPECT_NE(reply.Find("stages")->Find("translate_calls"), nullptr);
  EXPECT_EQ(server.stats().stats_requests, 1u);
}

TEST_F(ServeFixture, ServedBatchLeavesEmbedCountsUnchanged) {
  // The served path keeps no per-request embedding state: Gred's
  // library fold counts and the stats endpoint's embed_cache block read
  // the same before and after a concurrent batch of translations.
  ServerOptions options;
  options.num_workers = 4;
  options.queue_capacity = 128;  // the whole batch is admitted
  options.include_timings = false;
  Server server(suite_, gred_, options);
  auto embed_cache_block = [&server] {
    json::ParseResult reply =
        json::Parse(server.Handle("{\"id\": 0, \"type\": \"stats\"}"));
    EXPECT_TRUE(reply.ok());
    const json::Value* block =
        reply.ok() ? reply.value().Find("embed_cache") : nullptr;
    EXPECT_NE(block, nullptr);
    return block == nullptr ? std::string() : block->Dump();
  };
  const embed::CachingEmbedder::Stats before = gred_->embed_cache_stats();
  const std::string block_before = embed_cache_block();
  EXPECT_EQ(before.hits + before.misses, 2 * suite_->train.size());
  EXPECT_GT(before.hits, 0u);

  std::atomic<int> ok{0};
  int id = 1;
  for (const auto* split : {&suite_->test_clean, &suite_->test_nlq}) {
    for (const dataset::Example& ex : *split) {
      server.Submit(RequestLine(id++, ex), [&ok](const std::string& r) {
        json::ParseResult parsed = json::Parse(r);
        if (parsed.ok() && parsed.value().Find("ok")->bool_value()) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  }
  server.Shutdown();
  EXPECT_EQ(server.stats().rejected_overload, 0u);
  EXPECT_GT(ok.load(), 0);

  const embed::CachingEmbedder::Stats after = gred_->embed_cache_stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(embed_cache_block(), block_before);
}

TEST_F(ServeFixture, TimingsAppearOnlyWhenEnabled) {
  ServerOptions timed;
  timed.num_workers = 1;
  timed.include_timings = true;
  Server server(suite_, gred_, timed);
  const std::string line = RequestLine(0, suite_->test_clean[0]);
  json::ParseResult with = json::Parse(server.Handle(line));
  ASSERT_TRUE(with.ok());
  ASSERT_NE(with.value().Find("timings_us"), nullptr);
  EXPECT_NE(with.value().Find("timings_us")->Find("translate_us"), nullptr);
  EXPECT_NE(with.value().Find("timings_us")->Find("total_us"), nullptr);

  ServerOptions untimed = timed;
  untimed.include_timings = false;
  Server quiet(suite_, gred_, untimed);
  json::ParseResult without = json::Parse(quiet.Handle(line));
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(without.value().Find("timings_us"), nullptr);
}

TEST_F(ServeFixture, ServeStreamAnswersEveryLineAndShutsDownCleanly) {
  ServerOptions options;
  options.num_workers = 2;
  options.include_timings = false;
  Server server(suite_, gred_, options);

  std::istringstream in(RequestLine(1, suite_->test_clean[0]) +
                        "\n\n"  // blank line is ignored
                        "{this is not json}\n"
                        "{\"id\": 4, \"type\": \"stats\"}\n");
  std::ostringstream out;
  EXPECT_EQ(server.ServeStream(in, out), 0);

  std::istringstream replies(out.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(replies, line)) {
    json::ParseResult parsed = json::Parse(line);
    EXPECT_TRUE(parsed.ok()) << line;
    ++count;
  }
  EXPECT_EQ(count, 3u);  // one response per non-blank request line

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.received, 3u);
  EXPECT_EQ(stats.rejected_invalid, 1u);
  EXPECT_EQ(stats.stats_requests, 1u);
  EXPECT_EQ(stats.completed + stats.failed, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

// ---------------------------------------------------------------------------
// Hardening: rejection taxonomy, rate limiting, brownout, reload,
// counter balance (DESIGN.md §16)

TEST_F(ServeFixture, SubmitAfterDrainAnswersShuttingDownNotOverloaded) {
  ServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 8;
  options.include_timings = false;
  Server server(suite_, gred_, options);

  server.BeginDrain();  // queue closed; workers still draining

  // Regression: this used to be mislabeled "overloaded", telling
  // clients to retry against a server that is going away.
  bool answered = false;
  server.Submit(RequestLine(3, suite_->test_clean[0]),
                [&](const std::string& response) {
                  json::ParseResult parsed = json::Parse(response);
                  ASSERT_TRUE(parsed.ok()) << response;
                  EXPECT_FALSE(parsed.value().Find("ok")->bool_value());
                  EXPECT_EQ(parsed.value().Find("error")->string_value(),
                            "shutting_down");
                  EXPECT_EQ(parsed.value().Find("code")->string_value(),
                            "Unavailable");
                  EXPECT_EQ(parsed.value().Find("id")->number_value(), 3.0);
                  answered = true;
                });
  EXPECT_TRUE(answered);
  server.Shutdown();

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected_shutdown, 1u);
  EXPECT_EQ(stats.rejected_overload, 0u);
  EXPECT_TRUE(stats.Balanced());
}

TEST_F(ServeFixture, SessionRateLimitRejectsDistinctlyFromOverload) {
  ServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 16;
  options.include_timings = false;
  options.rate_burst = 1.0;
  options.rate_refill_per_request = 0.01;
  Server server(suite_, gred_, options);

  auto translate_line = [&](int id, const char* session) {
    json::Value obj = json::Value::Object();
    obj.Set("id", json::Value::Int(id));
    obj.Set("nlq", json::Value::Str(suite_->test_clean[0].nlq));
    obj.Set("db", json::Value::Str(suite_->test_clean[0].db_name));
    obj.Set("session", json::Value::Str(session));
    return obj.Dump();
  };

  std::mutex mu;
  std::map<int, std::string> responses;
  auto collect = [&](const std::string& response) {
    json::ParseResult parsed = json::Parse(response);
    ASSERT_TRUE(parsed.ok()) << response;
    std::lock_guard<std::mutex> lock(mu);
    responses[static_cast<int>(
        parsed.value().Find("id")->number_value())] = response;
  };

  server.Submit(translate_line(1, "greedy"), collect);  // burst spent
  server.Submit(translate_line(2, "greedy"), collect);  // bucket dry
  server.Submit(translate_line(3, "patient"), collect);  // own bucket
  server.Shutdown();

  ASSERT_EQ(responses.size(), 3u);
  json::ParseResult limited = json::Parse(responses[2]);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited.value().Find("error")->string_value(), "rate_limited");
  EXPECT_EQ(limited.value().Find("code")->string_value(), "Unavailable");
  // The other session's request was admitted and processed (it carries
  // a DVQ; a rate-limit rejection never reaches translation).
  EXPECT_NE(json::Parse(responses[3]).value().Find("dvq"), nullptr);

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected_ratelimit, 1u);
  EXPECT_EQ(stats.rejected_overload, 0u);
  EXPECT_TRUE(stats.Balanced());
}

TEST_F(ServeFixture, BrownoutDegradesInsteadOfRejecting) {
  ServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 8;
  options.include_timings = false;
  options.brownout_high_watermark = 1;
  options.brownout_low_watermark = 0;
  Server server(suite_, gred_, options);

  const std::string line = RequestLine(0, suite_->test_clean[0]);

  // Wedge the single worker so queued depth is under our control.
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  std::mutex mu;
  std::map<int, std::string> responses;
  server.Submit(line, [&](const std::string&) {
    started.set_value();
    release_future.wait();
  });
  started.get_future().wait();

  auto collect = [&](const std::string& response) {
    json::ParseResult parsed = json::Parse(response);
    ASSERT_TRUE(parsed.ok()) << response;
    std::lock_guard<std::mutex> lock(mu);
    responses[static_cast<int>(
        parsed.value().Find("id")->number_value())] = response;
  };
  // Admission-time depth 0: normal mode.
  server.Submit(RequestLine(1, suite_->test_clean[0]), collect);
  // Admission-time depth 1 >= high watermark: degraded, not rejected.
  server.Submit(RequestLine(2, suite_->test_clean[0]), collect);
  release.set_value();
  server.Shutdown();

  ASSERT_EQ(responses.size(), 2u);
  json::ParseResult normal = json::Parse(responses[1]);
  const json::Value* normal_degraded = normal.value().Find("degraded");
  ASSERT_NE(normal_degraded, nullptr);
  // Knobs-off wire format is untouched: no "brownout" key at all.
  EXPECT_EQ(normal_degraded->Find("brownout"), nullptr);
  json::ParseResult browned = json::Parse(responses[2]);
  const json::Value* degraded = browned.value().Find("degraded");
  ASSERT_NE(degraded, nullptr);
  ASSERT_NE(degraded->Find("brownout"), nullptr);
  EXPECT_TRUE(degraded->Find("brownout")->bool_value());

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.degraded_brownout, 1u);
  EXPECT_EQ(stats.rejected_overload, 0u);
  EXPECT_TRUE(stats.Balanced());
}

TEST_F(ServeFixture, ReloadSwapsEpochWhileOldEpochStaysPinned) {
  // The reload handler hands out an owned copy of the suite (so epoch
  // lifetimes are observable) over the shared pipeline.
  auto owned_suite = std::make_shared<dataset::BenchmarkSuite>(*suite_);
  std::weak_ptr<dataset::BenchmarkSuite> watch = owned_suite;

  ServerOptions options;
  options.num_workers = 1;
  options.include_timings = false;
  options.reload_handler = [&owned_suite]() -> Result<EpochPayload> {
    EpochPayload payload;
    payload.suite = owned_suite;
    // Non-owning alias: the fixture's pipeline outlives the server.
    payload.gred = std::shared_ptr<const core::Gred>(
        std::shared_ptr<const core::Gred>{}, gred_);
    return payload;
  };
  {
    Server server(suite_, gred_, options);
    EXPECT_EQ(server.stats().epoch, 1u);
    std::shared_ptr<const ServingEpoch> old_epoch = server.current_epoch();

    json::ParseResult reply =
        json::Parse(server.Handle("{\"id\": 9, \"type\": \"reload\"}"));
    ASSERT_TRUE(reply.ok());
    EXPECT_TRUE(reply.value().Find("ok")->bool_value());
    EXPECT_EQ(reply.value().Find("epoch")->number_value(), 2.0);

    // New admissions see epoch 2; the old epoch survives while held.
    EXPECT_EQ(server.current_epoch()->epoch, 2u);
    EXPECT_EQ(old_epoch->epoch, 1u);

    // Translation still works against the reloaded suite.
    json::ParseResult after =
        json::Parse(server.Handle(RequestLine(1, suite_->test_clean[0])));
    ASSERT_TRUE(after.ok());
    EXPECT_NE(after.value().Find("dvq"), nullptr);

    ServerStats stats = server.stats();
    EXPECT_EQ(stats.epoch, 2u);
    EXPECT_EQ(stats.reload_requests, 1u);
    EXPECT_EQ(stats.reloads_ok, 1u);
    EXPECT_TRUE(stats.Balanced());

    // The reloaded suite is pinned by the live epoch even after the
    // test drops its own reference.
    owned_suite.reset();
    EXPECT_FALSE(watch.expired());
    server.Shutdown();
  }
  // Server gone -> epoch 2 released -> the owned suite dies with it.
  EXPECT_TRUE(watch.expired());
}

TEST_F(ServeFixture, ReloadWithoutHandlerFailsUnimplemented) {
  ServerOptions options;
  options.num_workers = 1;
  Server server(suite_, gred_, options);
  json::ParseResult reply =
      json::Parse(server.Handle("{\"type\": \"reload\"}"));
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply.value().Find("ok")->bool_value());
  EXPECT_EQ(reply.value().Find("code")->string_value(), "Unimplemented");
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.reload_requests, 1u);
  EXPECT_EQ(stats.reloads_ok, 0u);
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_TRUE(stats.Balanced());
}

TEST_F(ServeFixture, CountersBalanceAfterDrainedMixedWorkload) {
  ServerOptions options;
  options.num_workers = 2;
  options.queue_capacity = 4;
  options.include_timings = false;
  options.rate_burst = 2.0;
  options.rate_refill_per_request = 0.1;
  Server server(suite_, gred_, options);

  std::atomic<int> answered{0};
  auto count = [&answered](const std::string&) { answered++; };

  const std::size_t n = std::min<std::size_t>(6, suite_->test_clean.size());
  for (std::size_t i = 0; i < n; ++i) {
    json::Value obj = json::Value::Object();
    obj.Set("id", json::Value::Int(static_cast<int>(i)));
    obj.Set("nlq", json::Value::Str(suite_->test_clean[i].nlq));
    obj.Set("db", json::Value::Str(suite_->test_clean[i].db_name));
    obj.Set("session", json::Value::Str("bursty"));
    server.Submit(obj.Dump(), count);
  }
  server.Submit("{not json", count);
  server.Submit("{\"type\": \"stats\"}", count);
  server.Submit("{\"type\": \"reload\"}", count);  // fails: no handler
  server.Handle(RequestLine(99, suite_->test_clean[0]));  // serial path
  server.Shutdown();

  EXPECT_EQ(answered.load(), static_cast<int>(n) + 3);
  ServerStats stats = server.stats();
  // Every received line resolved to exactly one counted outcome —
  // the invariant the chaos harness leans on, satellite-checked here
  // on a workload that exercises every rejection class.
  EXPECT_TRUE(stats.Balanced())
      << "received=" << stats.received
      << " completed=" << stats.completed << " failed=" << stats.failed
      << " overload=" << stats.rejected_overload
      << " invalid=" << stats.rejected_invalid
      << " ratelimit=" << stats.rejected_ratelimit
      << " shutdown=" << stats.rejected_shutdown
      << " stats=" << stats.stats_requests
      << " reload=" << stats.reload_requests;
  EXPECT_EQ(stats.received, n + 4);
  EXPECT_GE(stats.rejected_ratelimit, 1u);  // burst 2 < n same-session
  EXPECT_EQ(stats.rejected_invalid, 1u);
  EXPECT_EQ(stats.stats_requests, 1u);
  EXPECT_EQ(stats.reload_requests, 1u);
}

}  // namespace
}  // namespace gred::serve
