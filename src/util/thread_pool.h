#ifndef GREDVIS_UTIL_THREAD_POOL_H_
#define GREDVIS_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace gred {

/// Number of worker threads to use by default: the CPUs this thread may
/// run on (its affinity mask, so `taskset -c 0` yields 1), falling back to
/// the hardware concurrency where the mask is unavailable; never less
/// than 1.
std::size_t HardwareThreads();

/// Smallest slice ParallelFor hands to a thread. A range shorter than two
/// slices runs inline on the calling thread.
inline constexpr std::size_t kParallelForMinSlice = 64;

/// Runs `fn(i)` once for every i in [0, n) on up to HardwareThreads()
/// threads and returns when all calls have finished. The range is cut
/// into contiguous slices of at least kParallelForMinSlice indexes, one
/// per thread; the calling thread runs the first slice. `fn` must be safe
/// to call concurrently for distinct indexes. If calls throw, the rest of
/// each throwing slice is skipped and the first exception, in slice
/// order, is rethrown once every slice has finished.
void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

/// A fixed-size worker pool.
///
/// Tasks are queued FIFO and executed by `num_threads` workers; `Submit`
/// returns a `std::future` so callers can collect results (or rethrow an
/// exception raised inside the task — exceptions propagate through
/// `future::get`, they never kill a worker). The pool joins all workers
/// on destruction after draining the queue.
///
/// A pool with one thread is a valid degenerate configuration: tasks run
/// on the single worker in submission order, which the eval harness
/// relies on for its serial-equivalence tests.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  /// Enqueues `fn` and returns a future for its result. Thread-safe.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    // std::function requires copyable callables, so the move-only
    // packaged_task rides behind a shared_ptr.
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    wake_.notify_one();
    return future;
  }

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace gred

#endif  // GREDVIS_UTIL_THREAD_POOL_H_
