#include "serve/server.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>

#include "dvq/sql.h"
#include "util/strings.h"
#include "viz/chart.h"

namespace gred::serve {

// ---------------------------------------------------------------------------
// RequestQueue

RequestQueue::RequestQueue(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

RequestQueue::PushResult RequestQueue::TryPush(Job&& job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return PushResult::kClosed;
    if (queue_.size() >= capacity_) return PushResult::kFull;
    queue_.push_back(std::move(job));
  }
  ready_.notify_one();
  return PushResult::kAccepted;
}

bool RequestQueue::Pop(Job* out) {
  std::unique_lock<std::mutex> lock(mu_);
  ready_.wait(lock, [this] { return !queue_.empty() || closed_; });
  if (queue_.empty()) return false;  // closed and drained
  *out = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

void RequestQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  ready_.notify_all();
}

std::size_t RequestQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

// ---------------------------------------------------------------------------
// SessionRateLimiter

SessionRateLimiter::SessionRateLimiter(double refill_per_request,
                                       double burst)
    // burst < 1 would deny every request forever; clamp so an armed
    // limiter always has a working bucket.
    : refill_(refill_per_request), burst_(burst < 1.0 ? 1.0 : burst) {}

bool SessionRateLimiter::Admit(const std::string& session) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = buckets_.try_emplace(session);
  Bucket& bucket = it->second;
  if (inserted) {
    bucket.tokens = burst_;  // new sessions start with their full burst
  } else {
    bucket.tokens = std::min(
        burst_, bucket.tokens + refill_ * static_cast<double>(
                                              ticks_ - bucket.last_tick));
  }
  bucket.last_tick = ticks_;
  if (bucket.tokens < 1.0) return false;  // rejected: clock does not move
  bucket.tokens -= 1.0;
  ++ticks_;
  return true;
}

std::uint64_t SessionRateLimiter::clock() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ticks_;
}

// ---------------------------------------------------------------------------
// Session

void Session::Write(const std::string& response_line) {
  std::lock_guard<std::mutex> lock(mu_);
  (*out_) << response_line << '\n';
  out_->flush();
  responses_.fetch_add(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Server

namespace {

/// Request limits override the server defaults field by field (a
/// request that only sets budget_rows still inherits the default
/// deadline).
GuardLimits MergeLimits(const GuardLimits& request,
                        const GuardLimits& defaults) {
  GuardLimits merged = request;
  if (merged.deadline_ticks == 0) merged.deadline_ticks = defaults.deadline_ticks;
  if (merged.row_budget == 0) merged.row_budget = defaults.row_budget;
  if (merged.memory_budget == 0) merged.memory_budget = defaults.memory_budget;
  if (merged.join_budget == 0) merged.join_budget = defaults.join_budget;
  return merged;
}

/// Brownout caps: each non-zero cap field is a ceiling on the merged
/// limits (min of the two, where 0 means "unlimited" on either side).
GuardLimits TightenLimits(const GuardLimits& base, const GuardLimits& cap) {
  auto tighten = [](std::uint64_t b, std::uint64_t c) {
    if (c == 0) return b;
    if (b == 0) return c;
    return std::min(b, c);
  };
  GuardLimits out;
  out.deadline_ticks = tighten(base.deadline_ticks, cap.deadline_ticks);
  out.row_budget = tighten(base.row_budget, cap.row_budget);
  out.memory_budget = tighten(base.memory_budget, cap.memory_budget);
  out.join_budget = tighten(base.join_budget, cap.join_budget);
  return out;
}

std::int64_t ElapsedMicros(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Wraps a borrowed pointer in a non-owning shared_ptr (epoch 1 borrows
/// the constructor arguments; reloads install owned snapshots).
template <typename T>
std::shared_ptr<const T> Borrow(const T* ptr) {
  return std::shared_ptr<const T>(std::shared_ptr<const T>{}, ptr);
}

}  // namespace

Server::Server(const dataset::BenchmarkSuite* suite, const core::Gred* gred,
               ServerOptions options)
    : options_(options), queue_(options.queue_capacity) {
  if (options_.num_workers == 0) options_.num_workers = HardwareThreads();
  if (options_.brownout_low_watermark > options_.brownout_high_watermark) {
    options_.brownout_low_watermark = options_.brownout_high_watermark;
  }
  auto first = std::make_shared<ServingEpoch>();
  first->epoch = 1;
  first->suite = Borrow(suite);
  first->gred = Borrow(gred);
  epoch_ = std::move(first);
  if (options_.rate_refill_per_request > 0.0 && options_.rate_burst > 0.0) {
    limiter_ = std::make_unique<SessionRateLimiter>(
        options_.rate_refill_per_request, options_.rate_burst);
  }
  pool_ = std::make_unique<ThreadPool>(options_.num_workers);
  workers_.reserve(options_.num_workers);
  for (std::size_t i = 0; i < options_.num_workers; ++i) {
    workers_.push_back(pool_->Submit([this] {
      Job job;
      while (queue_.Pop(&job)) job.done(Process(job.request, job.brownout));
    }));
  }
}

Server::~Server() { Shutdown(); }

void Server::BeginDrain() { queue_.Close(); }

void Server::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  queue_.Close();
  for (std::future<void>& worker : workers_) worker.get();
  workers_.clear();
  // The accounting invariant (ServerStats::Balanced, DESIGN.md §16):
  // with every worker joined, each received line must have resolved to
  // exactly one counted outcome. The chaos harness re-asserts this in
  // release builds; here it is a debug tripwire.
  assert(stats().Balanced() && "serve counters out of balance after drain");
}

std::shared_ptr<const ServingEpoch> Server::current_epoch() const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return epoch_;
}

Result<std::uint64_t> Server::Reload() {
  if (!options_.reload_handler) {
    return Status::Unimplemented("no reload handler configured");
  }
  Result<EpochPayload> payload = options_.reload_handler();
  if (!payload.ok()) return payload.status();
  auto next = std::make_shared<ServingEpoch>();
  next->suite = std::move(payload.value().suite);
  next->gred = std::move(payload.value().gred);
  std::lock_guard<std::mutex> lock(epoch_mu_);
  next->epoch = epoch_->epoch + 1;
  epoch_ = std::move(next);
  reloads_ok_.fetch_add(1, std::memory_order_relaxed);
  return epoch_->epoch;
}

bool Server::DecideBrownout() {
  if (options_.brownout_high_watermark == 0) return false;
  std::lock_guard<std::mutex> lock(brownout_mu_);
  std::size_t depth = queue_.depth();
  if (!brownout_active_ && depth >= options_.brownout_high_watermark) {
    brownout_active_ = true;
  } else if (brownout_active_ &&
             depth <= options_.brownout_low_watermark) {
    brownout_active_ = false;
  }
  return brownout_active_;
}

void Server::Submit(const std::string& line, ResponseCallback done) {
  received_.fetch_add(1, std::memory_order_relaxed);
  Result<Request> parsed = ParseRequest(line);
  if (!parsed.ok()) {
    // Never queued: malformed bytes cost one parse, not a worker slot.
    rejected_invalid_.fetch_add(1, std::memory_order_relaxed);
    done(ErrorResponse(nullptr, parsed.status()));
    return;
  }
  Request& request = parsed.value();
  if (request.type == RequestType::kStats) {
    // The dashboard endpoint answers inline: it reads counters and
    // caches, does no translation work, and must respond even (indeed
    // especially) when the queue is saturated.
    stats_requests_.fetch_add(1, std::memory_order_relaxed);
    done(StatsResponse(request));
    return;
  }
  if (request.type == RequestType::kReload) {
    // Control plane, also inline: the submitting thread pays for the
    // new epoch's construction while workers keep draining the old one.
    done(ReloadResponse(request));
    return;
  }
  if (queue_.closed()) {
    // Draining: tell the client the truth — this is not transient
    // overload, retrying here is futile.
    rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    done(ShuttingDownResponse(&request.id));
    return;
  }
  if (limiter_ != nullptr && !limiter_->Admit(request.session)) {
    rejected_ratelimit_.fetch_add(1, std::memory_order_relaxed);
    done(RateLimitedResponse(&request.id));
    return;
  }
  const bool brownout = DecideBrownout();
  Job job{std::move(request), std::move(done), brownout};
  switch (queue_.TryPush(std::move(job))) {
    case RequestQueue::PushResult::kAccepted:
      if (brownout) {
        degraded_brownout_.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    case RequestQueue::PushResult::kFull:
      // Admission control: reject-on-full is the backpressure contract
      // — a bounded backlog, never an unbounded one.
      rejected_overload_.fetch_add(1, std::memory_order_relaxed);
      job.done(OverloadedResponse(&job.request.id));
      return;
    case RequestQueue::PushResult::kClosed:
      // Lost the race with Close(): same truth as the pre-check above.
      rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
      job.done(ShuttingDownResponse(&job.request.id));
      return;
  }
}

std::string Server::Handle(const std::string& line) {
  // The serial reference path counts exactly like Submit so the
  // Balanced() invariant holds for mixed serial/concurrent workloads.
  received_.fetch_add(1, std::memory_order_relaxed);
  Result<Request> parsed = ParseRequest(line);
  if (!parsed.ok()) {
    rejected_invalid_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(nullptr, parsed.status());
  }
  if (parsed.value().type == RequestType::kStats) {
    stats_requests_.fetch_add(1, std::memory_order_relaxed);
    return StatsResponse(parsed.value());
  }
  if (parsed.value().type == RequestType::kReload) {
    return ReloadResponse(parsed.value());
  }
  return Process(parsed.value(), /*brownout=*/false);
}

int Server::ServeStream(std::istream& in, std::ostream& out,
                        const std::atomic<bool>* stop) {
  Session session(&out);
  std::string line;
  while ((stop == nullptr || !stop->load(std::memory_order_relaxed)) &&
         std::getline(in, line)) {
    if (strings::Trim(line).empty()) continue;
    Submit(line,
           [&session](const std::string& response) { session.Write(response); });
  }
  // EOF or stop: drain everything admitted, then return. Every
  // submitted line has exactly one response on `out` by the time this
  // returns. (A signal interrupting the blocking read lands here too:
  // the handler sets *stop and the failed read exits the loop.)
  Shutdown();
  return 0;
}

std::string Server::Process(const Request& request, bool brownout) const {
  const bool timed = options_.include_timings;
  const auto start = std::chrono::steady_clock::now();

  // Pin this request's serving epoch: a concurrent reload swaps the
  // server's epoch for *subsequent* requests, while this shared_ptr
  // keeps the suite + pipeline we resolve against alive to the end.
  const std::shared_ptr<const ServingEpoch> epoch = current_epoch();

  const dataset::GeneratedDatabase* db = epoch->suite->FindCleanDb(request.db);
  if (db == nullptr) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(&request.id,
                         Status::NotFound("unknown database '" + request.db +
                                          "'"));
  }

  // Translation runs on the epoch's shared Gred (read-only embedding
  // libraries + annotation cache across all sessions); the returned trace
  // carries this request's own degradation flags. Brownout admissions
  // shed the retuner/debugger stages — the quality slope that replaces
  // the reject cliff.
  core::TranslateOptions translate_options;
  translate_options.enable_retuner = !brownout;
  translate_options.enable_debugger = !brownout;
  const auto translate_start = std::chrono::steady_clock::now();
  const core::Gred::Translation translation =
      epoch->gred->Run(request.nlq, db->data, translate_options);
  const std::int64_t translate_us =
      timed ? ElapsedMicros(translate_start) : 0;
  if (!translation.dvq.ok()) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    if (translation.dvq.status().IsResourceExhausted()) {
      resource_exhausted_.fetch_add(1, std::memory_order_relaxed);
    }
    return ErrorResponse(&request.id, translation.dvq.status());
  }
  const dvq::DVQ& query = translation.dvq.value();
  const core::Gred::Trace& trace = translation.trace;

  // Every translated request — charted, failed in the data path, or
  // rejected by the cost gate — answers through this one builder:
  // id, ok, dvq, sql, degraded, then the fields `outcome` sets, then
  // timings_us. One builder keeps the three wire formats in one key
  // order.
  auto respond = [&](bool ok, std::int64_t execute_us, const auto& outcome) {
    json::Value out = json::Value::Object();
    if (!request.id.is_null()) out.Set("id", request.id);
    out.Set("ok", json::Value::Bool(ok));
    out.Set("dvq", json::Value::Str(query.ToString()));
    out.Set("sql", json::Value::Str(dvq::ToSql(query)));
    json::Value degraded = json::Value::Object();
    degraded.Set("retuner", json::Value::Bool(trace.retune.degraded));
    degraded.Set("debugger", json::Value::Bool(trace.debug.degraded));
    // Typed brownout marker: present (and true) exactly when this request
    // was admitted in degraded mode, so knobs-off responses stay
    // byte-identical to the pre-brownout wire format.
    if (brownout) degraded.Set("brownout", json::Value::Bool(true));
    out.Set("degraded", std::move(degraded));
    outcome(&out);
    if (timed) {
      json::Value timings = json::Value::Object();
      timings.Set("translate_us", json::Value::Int(translate_us));
      timings.Set("execute_us", json::Value::Int(execute_us));
      timings.Set("total_us", json::Value::Int(ElapsedMicros(start)));
      out.Set("timings_us", std::move(timings));
    }
    return out.Dump();
  };

  // The request's SLO: deadline_ms/budget_rows arm a fresh ExecContext
  // for the data path (PR 4's guards — deterministic accounted ticks,
  // so a trip lands at the same row on every replay). Brownout caps the
  // merged limits field by field.
  GuardLimits limits = MergeLimits(request.limits, options_.default_limits);
  if (brownout) limits = TightenLimits(limits, options_.brownout_limits);

  // Static admission pricing: the abstract cost estimate is an upper
  // bound on the executor's charges, so an estimate that exceeds the
  // effective limits proves the request would trip its guard — reject
  // it typed and instantly instead of burning a worker until the trip.
  // Estimator errors fail open (unresolvable names, etc.: let the
  // executor produce its own, better diagnostic).
  if (options_.cost_gate && !limits.Unlimited()) {
    const std::shared_ptr<analysis::CostEstimator> estimator =
        CostEstimatorFor(&db->data);
    Result<analysis::CostEstimate> estimate = estimator->Estimate(query);
    if (estimate.ok() && estimate.value().Exceeds(limits)) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      rejected_cost_.fetch_add(1, std::memory_order_relaxed);
      const analysis::CostEstimate& cost = estimate.value();
      return respond(false, 0, [&](json::Value* out) {
        auto count = [](std::uint64_t n) {
          return json::Value::Int(static_cast<std::int64_t>(
              std::min<std::uint64_t>(n, INT64_MAX)));
        };
        out->Set("cost_exceeded", json::Value::Bool(true));
        json::Value priced = json::Value::Object();
        priced.Set("ticks", count(cost.ticks));
        priced.Set("rows", count(cost.rows));
        priced.Set("bytes", count(cost.bytes));
        priced.Set("join_rows", count(cost.join_rows));
        priced.Set("exceeded", json::Value::Str(cost.ExceededBudget(limits)));
        out->Set("cost", std::move(priced));
        out->Set("error", json::Value::Str("cost_exceeded"));
      });
    }
  }

  ExecContext guard(limits);
  const auto execute_start = std::chrono::steady_clock::now();
  Result<viz::Chart> chart = viz::BuildChart(query, db->data, &guard);
  const std::int64_t execute_us = timed ? ElapsedMicros(execute_start) : 0;
  return respond(chart.ok(), execute_us, [&](json::Value* out) {
    if (chart.ok()) {
      completed_.fetch_add(1, std::memory_order_relaxed);
      out->Set("rows", json::Value::Int(static_cast<std::int64_t>(
                           chart.value().data.num_rows())));
      if (request.want_chart) {
        out->Set("chart", viz::ToVegaLite(chart.value()));
      }
      return;
    }
    // Translation produced a valid DVQ but the data path failed — a
    // budget trip (the SLO fired) or the paper's "no chart shown"
    // failure mode. The DVQ/SQL stay in the response: the client can
    // retry with a bigger budget without re-translating.
    const Status& status = chart.status();
    failed_.fetch_add(1, std::memory_order_relaxed);
    if (status.IsResourceExhausted() ||
        status.code() == StatusCode::kCancelled) {
      resource_exhausted_.fetch_add(1, std::memory_order_relaxed);
      out->Set("resource_exhausted", json::Value::Bool(true));
    }
    out->Set("error", json::Value::Str(status.message()));
    out->Set("code", json::Value::Str(StatusCodeToString(status.code())));
  });
}

std::shared_ptr<analysis::CostEstimator> Server::CostEstimatorFor(
    const storage::DatabaseData* data) const {
  std::lock_guard<std::mutex> lock(cost_mu_);
  std::shared_ptr<analysis::CostEstimator>& slot = cost_estimators_[data];
  if (slot == nullptr) slot = std::make_shared<analysis::CostEstimator>(data);
  return slot;
}

std::string Server::ReloadResponse(const Request& request) {
  reload_requests_.fetch_add(1, std::memory_order_relaxed);
  Result<std::uint64_t> epoch = Reload();
  if (!epoch.ok()) return ErrorResponse(&request.id, epoch.status());
  json::Value out = json::Value::Object();
  if (!request.id.is_null()) out.Set("id", request.id);
  out.Set("ok", json::Value::Bool(true));
  out.Set("epoch",
          json::Value::Int(static_cast<std::int64_t>(epoch.value())));
  return out.Dump();
}

std::string Server::StatsResponse(const Request& request) const {
  json::Value out = json::Value::Object();
  if (!request.id.is_null()) out.Set("id", request.id);
  out.Set("ok", json::Value::Bool(true));

  ServerStats snapshot = stats();
  json::Value server = json::Value::Object();
  server.Set("received", json::Value::Int(
                             static_cast<std::int64_t>(snapshot.received)));
  server.Set("completed", json::Value::Int(
                              static_cast<std::int64_t>(snapshot.completed)));
  server.Set("failed",
             json::Value::Int(static_cast<std::int64_t>(snapshot.failed)));
  server.Set("rejected_overload",
             json::Value::Int(
                 static_cast<std::int64_t>(snapshot.rejected_overload)));
  server.Set("rejected_invalid",
             json::Value::Int(
                 static_cast<std::int64_t>(snapshot.rejected_invalid)));
  server.Set("rejected_ratelimit",
             json::Value::Int(
                 static_cast<std::int64_t>(snapshot.rejected_ratelimit)));
  server.Set("rejected_shutdown",
             json::Value::Int(
                 static_cast<std::int64_t>(snapshot.rejected_shutdown)));
  server.Set("resource_exhausted",
             json::Value::Int(
                 static_cast<std::int64_t>(snapshot.resource_exhausted)));
  server.Set("rejected_cost",
             json::Value::Int(
                 static_cast<std::int64_t>(snapshot.rejected_cost)));
  server.Set("degraded_brownout",
             json::Value::Int(
                 static_cast<std::int64_t>(snapshot.degraded_brownout)));
  server.Set("brownout_active",
             json::Value::Bool(snapshot.brownout_active));
  server.Set("reload_requests",
             json::Value::Int(
                 static_cast<std::int64_t>(snapshot.reload_requests)));
  server.Set("reloads_ok", json::Value::Int(
                               static_cast<std::int64_t>(snapshot.reloads_ok)));
  server.Set("epoch",
             json::Value::Int(static_cast<std::int64_t>(snapshot.epoch)));
  server.Set("queue_depth", json::Value::Int(static_cast<std::int64_t>(
                                snapshot.queue_depth)));
  server.Set("queue_capacity", json::Value::Int(static_cast<std::int64_t>(
                                   snapshot.queue_capacity)));
  server.Set("workers",
             json::Value::Int(static_cast<std::int64_t>(snapshot.workers)));
  out.Set("server", std::move(server));

  const std::shared_ptr<const ServingEpoch> epoch = current_epoch();
  embed::CachingEmbedder::Stats cache = epoch->gred->embed_cache_stats();
  json::Value embed_cache = json::Value::Object();
  embed_cache.Set("hits",
                  json::Value::Int(static_cast<std::int64_t>(cache.hits)));
  embed_cache.Set("misses",
                  json::Value::Int(static_cast<std::int64_t>(cache.misses)));
  double lookups = static_cast<double>(cache.hits + cache.misses);
  embed_cache.Set("hit_rate",
                  json::Value::Number(
                      lookups > 0 ? static_cast<double>(cache.hits) / lookups
                                  : 0.0));
  out.Set("embed_cache", std::move(embed_cache));

  core::Gred::StageStats stages = epoch->gred->stage_stats();
  json::Value stage = json::Value::Object();
  stage.Set("translate_calls",
            json::Value::Int(
                static_cast<std::int64_t>(stages.translate_calls)));
  stage.Set("retune_degraded",
            json::Value::Int(
                static_cast<std::int64_t>(stages.retune_degraded)));
  stage.Set("debug_degraded",
            json::Value::Int(
                static_cast<std::int64_t>(stages.debug_degraded)));
  stage.Set("retune_budget_trips",
            json::Value::Int(
                static_cast<std::int64_t>(stages.retune_budget_trips)));
  stage.Set("debug_budget_trips",
            json::Value::Int(
                static_cast<std::int64_t>(stages.debug_budget_trips)));
  stage.Set("retune_lint_trips",
            json::Value::Int(
                static_cast<std::int64_t>(stages.retune_lint_trips)));
  stage.Set("debug_lint_trips",
            json::Value::Int(
                static_cast<std::int64_t>(stages.debug_lint_trips)));
  stage.Set("retune_repairs",
            json::Value::Int(
                static_cast<std::int64_t>(stages.retune_repairs)));
  stage.Set("debug_repairs",
            json::Value::Int(
                static_cast<std::int64_t>(stages.debug_repairs)));
  out.Set("stages", std::move(stage));

  if (options_.breaker != nullptr) {
    llm::CircuitBreakerChatModel::Stats breaker = options_.breaker->stats();
    json::Value circuit = json::Value::Object();
    const char* state = "closed";
    switch (options_.breaker->state()) {
      case llm::CircuitBreakerChatModel::State::kClosed: state = "closed"; break;
      case llm::CircuitBreakerChatModel::State::kOpen: state = "open"; break;
      case llm::CircuitBreakerChatModel::State::kHalfOpen:
        state = "half-open";
        break;
    }
    circuit.Set("state", json::Value::Str(state));
    circuit.Set("calls",
                json::Value::Int(static_cast<std::int64_t>(breaker.calls)));
    circuit.Set("admitted",
                json::Value::Int(static_cast<std::int64_t>(breaker.admitted)));
    circuit.Set("fast_failures",
                json::Value::Int(
                    static_cast<std::int64_t>(breaker.fast_failures)));
    circuit.Set("probes",
                json::Value::Int(static_cast<std::int64_t>(breaker.probes)));
    circuit.Set("trips",
                json::Value::Int(static_cast<std::int64_t>(breaker.trips)));
    circuit.Set("resets",
                json::Value::Int(static_cast<std::int64_t>(breaker.resets)));
    out.Set("breaker", std::move(circuit));
  }
  return out.Dump();
}

ServerStats Server::stats() const {
  ServerStats s;
  s.received = received_.load(std::memory_order_relaxed);
  s.rejected_overload = rejected_overload_.load(std::memory_order_relaxed);
  s.rejected_invalid = rejected_invalid_.load(std::memory_order_relaxed);
  s.rejected_ratelimit = rejected_ratelimit_.load(std::memory_order_relaxed);
  s.rejected_shutdown = rejected_shutdown_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.resource_exhausted = resource_exhausted_.load(std::memory_order_relaxed);
  s.rejected_cost = rejected_cost_.load(std::memory_order_relaxed);
  s.degraded_brownout = degraded_brownout_.load(std::memory_order_relaxed);
  s.stats_requests = stats_requests_.load(std::memory_order_relaxed);
  s.reload_requests = reload_requests_.load(std::memory_order_relaxed);
  s.reloads_ok = reloads_ok_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    s.epoch = epoch_->epoch;
  }
  s.queue_depth = queue_.depth();
  s.queue_capacity = queue_.capacity();
  s.workers = options_.num_workers;
  {
    std::lock_guard<std::mutex> lock(brownout_mu_);
    s.brownout_active = brownout_active_;
  }
  return s;
}

}  // namespace gred::serve
