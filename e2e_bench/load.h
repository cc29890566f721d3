#ifndef GREDVIS_E2E_BENCH_LOAD_H_
#define GREDVIS_E2E_BENCH_LOAD_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "serve/server.h"

namespace gred::e2e {

using Clock = std::chrono::steady_clock;

/// One submission of a load pass.
struct Slot {
  std::size_t request = 0;  // index into the distinct request list
  /// When the request was due: the Submit call in a closed loop, the
  /// scheduled send time in an open loop. Latency is measured from here.
  Clock::time_point due;
  Clock::time_point done;  // first response callback
  std::atomic<std::uint32_t> responses{0};
  std::string response;  // first response line
};

struct LoadOptions {
  /// Closed loop: requests kept in flight. 0 selects the open loop.
  std::size_t in_flight = 0;
  /// Open loop: Poisson arrival rate.
  double rate_rps = 0.0;
  /// Stop submitting after this long (0 = no time limit).
  double seconds = 0.0;
  /// Stop after this many submissions (0 = no count limit).
  std::size_t max_requests = 0;
  /// Seeds the open loop's arrival schedule.
  std::uint64_t seed = 0;
  /// Position in `order` of the first request sent.
  std::size_t first = 0;
};

struct PassRecord {
  /// One slot per submission, in submission order. A deque, so a slot's
  /// address stays valid while later submissions append.
  std::deque<Slot> slots;
  Clock::time_point start;  // when the generator began
  /// First submission to last response.
  double wall_s = 0.0;
  /// How late each send was: behind its schedule (open loop), or after
  /// the completion that freed its slot (closed loop).
  std::vector<double> lateness_ms;
  /// False when some submission was still unanswered at the wait limit.
  bool drained = true;
};

/// Replays request bodies against `server` from the calling thread,
/// which blocks (closed loop: on completions; open loop: until each
/// scheduled send) and never spins. Bodies are JSON objects without
/// their opening brace and id; submission `i` sends `{"id":i,` +
/// bodies[order[(first + i) % order.size()]]. Returns once every
/// submission has answered, or after a generous wait limit with
/// `drained == false`; in that case the caller must shut the server down
/// before destroying `out`, since late callbacks still write into it.
void RunLoad(serve::Server* server, const std::vector<std::string>& bodies,
             const std::vector<std::size_t>& order, const LoadOptions& options,
             PassRecord* out);

}  // namespace gred::e2e

#endif  // GREDVIS_E2E_BENCH_LOAD_H_
