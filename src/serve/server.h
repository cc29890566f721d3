#ifndef GREDVIS_SERVE_SERVER_H_
#define GREDVIS_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/cost_estimator.h"
#include "dataset/benchmark.h"
#include "gred/gred.h"
#include "llm/circuit_breaker.h"
#include "serve/protocol.h"
#include "util/thread_pool.h"

namespace gred::serve {

/// Invoked exactly once per submitted request with the finished
/// response line (no trailing newline). Called from a worker thread for
/// queued work, or inline from Submit for rejections, parse errors and
/// stats requests.
using ResponseCallback = std::function<void(const std::string&)>;

/// One admitted unit of work: a validated translate request plus its
/// completion callback, stamped with the admission decision.
struct Job {
  Request request;
  ResponseCallback done;
  /// True when the request was admitted in brownout (degraded) mode:
  /// the worker skips the retuner/debugger stages and tightens the
  /// effective guard limits (DESIGN.md §16).
  bool brownout = false;
};

/// A bounded MPMC queue — the server's admission control. TryPush
/// refuses when the queue is at capacity (kFull) or closed (kClosed),
/// so overload sheds immediately instead of growing an unbounded
/// backlog — and the two refusals are distinguishable, because they
/// demand different client behavior ("retry soon" vs "this server is
/// going away"). Pop blocks until work arrives or the queue is closed
/// *and* drained, which is what makes shutdown clean: close, then let
/// workers finish everything already admitted.
class RequestQueue {
 public:
  enum class PushResult { kAccepted, kFull, kClosed };

  explicit RequestQueue(std::size_t capacity);

  /// Admits `job` unless the queue is full or closed (in which case
  /// `job` is left untouched — the caller still owns it). Thread-safe.
  PushResult TryPush(Job&& job);
  /// Blocks for the next job; returns false when closed and empty.
  bool Pop(Job* out);
  /// No further admissions; Pop drains the backlog then returns false.
  void Close();

  std::size_t depth() const;
  std::size_t capacity() const { return capacity_; }
  bool closed() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable ready_;
  std::deque<Job> queue_;
  bool closed_ = false;
};

/// Per-session token buckets with a deterministic, wall-clock-free
/// refill: the "clock" is the server-wide count of admitted requests.
/// Every admission anywhere advances it by one tick; a session's bucket
/// refills by `refill_per_request` tokens per tick elapsed since that
/// session was last seen, capped at `burst`. A request costs one token;
/// an empty bucket rejects (and does not advance the clock, so spam
/// from a limited session cannot refill itself). Buckets start full —
/// a new session gets its burst immediately.
///
/// Determinism: the outcome is a pure function of the admission
/// sequence, so a replayed trace rate-limits at exactly the same
/// requests on every run. Thread-safe (single mutex; the admission path
/// is a handful of map operations).
class SessionRateLimiter {
 public:
  /// `refill_per_request` in [0,1]: steady-state admitted fraction of
  /// the server's admission stream per session. `burst`: bucket
  /// capacity (>= 1 to ever admit).
  SessionRateLimiter(double refill_per_request, double burst);

  /// True if `session` may proceed (consumes a token and advances the
  /// shared clock).
  bool Admit(const std::string& session);

  std::uint64_t clock() const;

 private:
  const double refill_;
  const double burst_;
  mutable std::mutex mu_;
  std::uint64_t ticks_ = 0;  // admitted requests, server-wide
  struct Bucket {
    double tokens = 0.0;
    std::uint64_t last_tick = 0;
  };
  std::map<std::string, Bucket> buckets_;
};

/// Per-stream connection state: serializes response lines onto one
/// output stream (workers finish in completion order, so concurrent
/// writes must not interleave) and counts what flowed through.
class Session {
 public:
  explicit Session(std::ostream* out) : out_(out) {}

  /// Writes one response line (appends '\n' and flushes). Thread-safe.
  void Write(const std::string& response_line);

  std::uint64_t responses_written() const {
    return responses_.load(std::memory_order_relaxed);
  }

 private:
  std::ostream* out_;  // not owned
  std::mutex mu_;
  std::atomic<std::uint64_t> responses_{0};
};

/// One immutable serving generation: the corpus the server answers
/// from, plus the pipeline built over it. Requests pin the epoch they
/// started on via shared_ptr — a hot reload installs a new epoch for
/// subsequent admissions while in-flight work finishes on the old one,
/// which stays alive exactly as long as someone still holds it.
struct ServingEpoch {
  std::uint64_t epoch = 1;
  std::shared_ptr<const dataset::BenchmarkSuite> suite;
  std::shared_ptr<const core::Gred> gred;
};

/// What a reload produces: a fresh suite and a pipeline built over it
/// (the server assigns the epoch number). The handler runs inline on
/// the thread that submitted the `{"type":"reload"}` request; workers
/// keep draining the queue against the old epoch meanwhile.
struct EpochPayload {
  std::shared_ptr<const dataset::BenchmarkSuite> suite;
  std::shared_ptr<const core::Gred> gred;
};
using ReloadHandler = std::function<Result<EpochPayload>()>;

/// Server configuration.
struct ServerOptions {
  /// Worker threads draining the request queue. 0 = HardwareThreads().
  std::size_t num_workers = 0;
  /// Admission-control bound: requests beyond this backlog are rejected
  /// with {"error":"overloaded"} instead of queued.
  std::size_t queue_capacity = 64;
  /// Stamp per-stage timings (µs) into responses. Off = responses are
  /// byte-deterministic, which the replay-identity bench and tests use.
  bool include_timings = true;
  /// SLO applied to requests that carry no deadline_ms / budget_rows of
  /// their own (field-by-field: a request overrides only what it sets).
  GuardLimits default_limits;

  /// Static admission pricing (DESIGN.md §17): when true, every
  /// translated DVQ is priced by analysis::CostEstimator against the
  /// request's effective (merged, possibly brownout-tightened) limits
  /// *before* any executor work. A provably over-budget query is
  /// rejected with a typed `"error":"cost_exceeded"` response carrying
  /// the estimate, so a hopeless cross-join never occupies a worker for
  /// its whole deadline just to trip the guard. The estimate is an
  /// upper bound on the executor's charges, so a gated request would
  /// necessarily have tripped at runtime — the gate only converts slow
  /// failures into instant ones. Fail-open: an estimator error (e.g. a
  /// DVQ whose names do not resolve) falls through to normal execution.
  bool cost_gate = false;

  /// Brownout load-shedding (0 = off): when the queue depth at
  /// admission reaches `brownout_high_watermark`, subsequent translate
  /// admissions enter degraded mode — retuner/debugger skipped,
  /// `brownout_limits` tightening the effective guards, and the
  /// response flagged `"degraded":{"brownout":true}` — until the depth
  /// falls back to `brownout_low_watermark` (hysteresis). The reject
  /// cliff at queue_capacity still exists; brownout turns the approach
  /// to it into a quality slope instead of a wall.
  std::size_t brownout_high_watermark = 0;
  std::size_t brownout_low_watermark = 0;
  /// Tighter per-request limits while browned out. Non-zero fields cap
  /// (min with) the request's merged limits; zero fields change
  /// nothing.
  GuardLimits brownout_limits;

  /// Per-session token-bucket rate limiting (off unless both > 0):
  /// `rate_burst` tokens per bucket, `rate_refill_per_request` tokens
  /// refilled per server-wide admitted request. Rejections answer
  /// {"error":"rate_limited"} inline.
  double rate_refill_per_request = 0.0;
  double rate_burst = 0.0;

  /// Hot-reload hook for `{"type":"reload"}` control requests; null =
  /// reload requests fail with Unimplemented.
  ReloadHandler reload_handler;

  /// Optional circuit breaker in the LLM stack (borrowed; may be
  /// null). The server never calls it — it only surfaces its
  /// trip/reset counters through the stats endpoint.
  const llm::CircuitBreakerChatModel* breaker = nullptr;
};

/// Monotonic counters for the stats endpoint (snapshot; consistent
/// enough for dashboards, not a barrier).
struct ServerStats {
  std::uint64_t received = 0;           // lines submitted
  std::uint64_t rejected_overload = 0;  // shed by admission control
  std::uint64_t rejected_invalid = 0;   // parse/validation failures
  std::uint64_t rejected_ratelimit = 0; // session bucket empty
  std::uint64_t rejected_shutdown = 0;  // arrived while draining
  std::uint64_t completed = 0;          // translate responses, ok=true
  std::uint64_t failed = 0;             // translate responses, ok=false
  std::uint64_t resource_exhausted = 0; // subset of failed: budget trips
  std::uint64_t rejected_cost = 0;      // subset of failed: priced over budget
  std::uint64_t degraded_brownout = 0;  // translate admissions in brownout
  std::uint64_t stats_requests = 0;
  std::uint64_t reload_requests = 0;    // control requests (ok or not)
  std::uint64_t reloads_ok = 0;         // subset that installed an epoch
  std::uint64_t epoch = 1;              // current serving epoch
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  std::size_t workers = 0;
  bool brownout_active = false;

  /// The accounting invariant the chaos harness leans on: after a
  /// drained run, every received line is accounted for exactly once.
  /// (`resource_exhausted`, `rejected_cost` and `degraded_brownout` are
  /// subsets of `failed`/`completed`, not separate outcomes;
  /// `reloads_ok` is a subset of `reload_requests`.)
  bool Balanced() const {
    return received == rejected_overload + rejected_invalid +
                           rejected_ratelimit + rejected_shutdown +
                           completed + failed + stats_requests +
                           reload_requests;
  }
};

/// The long-lived serving loop (DESIGN.md §13, hardened in §16):
/// newline-delimited JSON requests in, JSON responses out, a bounded
/// worker pool over the shared ThreadPool, and one shared Gred instance
/// per epoch so every session reads the same embedding libraries and
/// hits the same annotation cache.
///
/// Request flow: Submit parses and validates on the caller's thread
/// (cheap, and rejections must not consume queue slots), answers stats
/// and reload requests inline, applies per-session rate limiting, and
/// admits translate work through the bounded RequestQueue — full queue
/// means an immediate overload rejection, closed queue a shutting_down
/// rejection. Between the brownout watermarks, admissions are degraded
/// instead of rejected. Workers pop, snapshot the current epoch,
/// translate under that epoch's Gred, execute the DVQ under the
/// request's own ExecContext (deadline_ms/budget_rows — PR 4's guards
/// as the SLO layer), and complete the callback.
///
/// Determinism: with include_timings=false and every resilience knob
/// off (no watermarks, no rate limiting, no reloads), concurrent
/// responses are byte-identical to a serial Handle() replay of the same
/// requests (asserted by serve_test and chaos_sweep).
class Server {
 public:
  /// `suite` resolves database names; `gred` is the shared translation
  /// pipeline. Both are borrowed and must outlive the server (they
  /// become epoch 1; a reload replaces them with owned snapshots).
  Server(const dataset::BenchmarkSuite* suite, const core::Gred* gred,
         ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Asynchronous entry point: admission control now, completion later
  /// (or immediately for rejections/stats/reloads). `done` runs exactly
  /// once.
  void Submit(const std::string& line, ResponseCallback done);

  /// Synchronous reference path: processes one request line to its
  /// response on the calling thread, bypassing the queue, rate limiter
  /// and brownout machinery. This is the single-threaded batch baseline
  /// the concurrent path is checked against (it shares all per-request
  /// code with the workers). Counters move exactly as they do for
  /// Submit, so ServerStats::Balanced() holds for mixed workloads.
  /// (Non-const because a reload line installs a new epoch.)
  std::string Handle(const std::string& line);

  /// Runs the blocking serve loop: one request per input line, one
  /// response per request on `out` in completion order. Returns after
  /// EOF — or after `*stop` becomes true (the signal-driven drain path:
  /// the CLI's SIGTERM/SIGINT handler sets the flag and interrupts the
  /// blocking read) — once every admitted request has been answered.
  /// Empty lines are ignored (convenient for hand-typed sessions and
  /// trace files).
  int ServeStream(std::istream& in, std::ostream& out,
                  const std::atomic<bool>* stop = nullptr);

  /// Closes the queue to new admissions without joining workers:
  /// subsequent submits answer {"error":"shutting_down"} while admitted
  /// work keeps draining. Idempotent; Shutdown implies it.
  void BeginDrain();

  /// Closes the queue, drains admitted work, joins the workers.
  /// Idempotent; the destructor calls it.
  void Shutdown();

  /// Installs a new serving epoch from the configured reload handler.
  /// Returns the new epoch number; in-flight requests finish on the
  /// epoch they snapshotted. (The `{"type":"reload"}` wire request is
  /// exactly this, answered inline.)
  Result<std::uint64_t> Reload();

  /// The epoch new requests will snapshot (tests use this to observe
  /// reload semantics; holding the returned pointer pins the epoch).
  std::shared_ptr<const ServingEpoch> current_epoch() const;

  ServerStats stats() const;

  const ServerOptions& options() const { return options_; }

 private:
  /// Executes one validated translate request (workers + Handle share
  /// this; determinism of the serve layer = determinism of this
  /// function given a request and a brownout flag).
  std::string Process(const Request& request, bool brownout) const;
  /// Renders the stats response for the dashboard endpoint.
  std::string StatsResponse(const Request& request) const;
  /// Renders the reload response (runs the handler inline).
  std::string ReloadResponse(const Request& request);
  /// Admission-time brownout decision (updates the hysteresis latch).
  bool DecideBrownout();
  /// Cached cost estimator for one database (estimators memoize table
  /// statistics, so sharing one per database across requests keeps the
  /// gate O(1) after the first pricing). Keyed by data pointer: stable
  /// for a database's lifetime, and an epoch's databases outlive every
  /// request pinned to it.
  std::shared_ptr<analysis::CostEstimator> CostEstimatorFor(
      const storage::DatabaseData* data) const;

  ServerOptions options_;
  RequestQueue queue_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::future<void>> workers_;
  bool shut_down_ = false;
  std::mutex shutdown_mu_;

  mutable std::mutex epoch_mu_;
  std::shared_ptr<const ServingEpoch> epoch_;

  std::unique_ptr<SessionRateLimiter> limiter_;  // null = rate limit off
  mutable std::mutex brownout_mu_;
  bool brownout_active_ = false;

  mutable std::atomic<std::uint64_t> received_{0};
  mutable std::atomic<std::uint64_t> rejected_overload_{0};
  mutable std::atomic<std::uint64_t> rejected_invalid_{0};
  mutable std::atomic<std::uint64_t> rejected_ratelimit_{0};
  mutable std::atomic<std::uint64_t> rejected_shutdown_{0};
  mutable std::atomic<std::uint64_t> completed_{0};
  mutable std::atomic<std::uint64_t> failed_{0};
  mutable std::atomic<std::uint64_t> resource_exhausted_{0};
  mutable std::atomic<std::uint64_t> rejected_cost_{0};
  mutable std::atomic<std::uint64_t> degraded_brownout_{0};
  mutable std::atomic<std::uint64_t> stats_requests_{0};
  mutable std::atomic<std::uint64_t> reload_requests_{0};
  mutable std::atomic<std::uint64_t> reloads_ok_{0};

  mutable std::mutex cost_mu_;  // guards cost_estimators_
  mutable std::map<const storage::DatabaseData*,
                   std::shared_ptr<analysis::CostEstimator>>
      cost_estimators_;
};

}  // namespace gred::serve

#endif  // GREDVIS_SERVE_SERVER_H_
