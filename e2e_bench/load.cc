#include "load.h"

#include <sys/prctl.h>

#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "util/rng.h"

namespace gred::e2e {

namespace {

/// How long the generator waits for stragglers after its last send
/// before declaring the pass undrained.
constexpr std::chrono::seconds kDrainLimit{60};

double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Completion state shared with the response callbacks. Held by
/// shared_ptr so a callback that outlives RunLoad (undrained pass) still
/// touches live memory.
struct Sync {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t outstanding = 0;  // submitted, not yet answered
  /// Closed loop: completion times of freed slots not yet refilled.
  std::deque<Clock::time_point> freed;
  Clock::time_point last_done;
};

}  // namespace

void RunLoad(serve::Server* server, const std::vector<std::string>& bodies,
             const std::vector<std::size_t>& order, const LoadOptions& options,
             PassRecord* out) {
  auto sync = std::make_shared<Sync>();
  const bool closed = options.in_flight > 0;
  auto callback = [sync, closed](Slot* slot) {
    return [sync, closed, slot](const std::string& response) {
      const Clock::time_point now = Clock::now();
      // Only the first response fills the slot; a duplicate is counted
      // and left for the exactly-once check.
      if (slot->responses.fetch_add(1, std::memory_order_acq_rel) != 0) return;
      slot->done = now;
      slot->response = response;
      {
        std::lock_guard<std::mutex> lock(sync->mu);
        --sync->outstanding;
        if (closed) sync->freed.push_back(now);
        if (now > sync->last_done) sync->last_done = now;
      }
      sync->cv.notify_all();
    };
  };

  const Clock::time_point start = Clock::now();
  out->start = start;
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  Rng arrivals(options.seed);
  // Wake for each scheduled send without the default 50 us timer slack.
  if (!closed) prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  double schedule_s = 0.0;
  std::string line;
  for (std::size_t seq = 0;; ++seq) {
    if (options.max_requests > 0 && seq >= options.max_requests) break;
    Clock::time_point due;
    if (closed) {
      Clock::time_point freed_at;
      bool refill = false;
      {
        std::unique_lock<std::mutex> lock(sync->mu);
        sync->cv.wait(lock, [&] { return sync->outstanding < options.in_flight; });
        if (!sync->freed.empty()) {
          freed_at = sync->freed.front();
          sync->freed.pop_front();
          refill = true;
        }
      }
      due = Clock::now();
      if (options.seconds > 0 && due >= stop) break;
      if (refill) out->lateness_ms.push_back(Millis(due - freed_at));
    } else {
      // Exponential inter-arrival gaps: a Poisson process at rate_rps.
      schedule_s += -std::log(1.0 - arrivals.NextDouble()) / options.rate_rps;
      if (options.seconds > 0 && schedule_s >= options.seconds) break;
      due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(schedule_s));
      std::this_thread::sleep_until(due);
      out->lateness_ms.push_back(Millis(Clock::now() - due));
    }
    Slot& slot = out->slots.emplace_back();
    slot.request = order[(options.first + seq) % order.size()];
    slot.due = due;
    line = "{\"id\":";
    line += std::to_string(seq);
    line += ',';
    line += bodies[slot.request];
    {
      std::lock_guard<std::mutex> lock(sync->mu);
      ++sync->outstanding;
    }
    server->Submit(line, callback(&slot));
  }

  std::unique_lock<std::mutex> lock(sync->mu);
  out->drained = sync->cv.wait_for(lock, kDrainLimit,
                                   [&] { return sync->outstanding == 0; });
  out->wall_s = std::chrono::duration<double>(
                    (out->slots.empty() ? start : sync->last_done) - start)
                    .count();
}

}  // namespace gred::e2e
