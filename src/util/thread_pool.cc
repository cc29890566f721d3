#include "util/thread_pool.h"

#include <algorithm>
#include <exception>

#ifdef __linux__
#include <sched.h>
#endif

namespace gred {

std::size_t HardwareThreads() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
#endif
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn) {
  const std::size_t slices =
      std::min(HardwareThreads(), n / kParallelForMinSlice);
  if (slices <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::exception_ptr> errors(slices);
  auto run = [&](std::size_t slice) {
    const std::size_t begin = n * slice / slices;
    const std::size_t end = n * (slice + 1) / slices;
    try {
      for (std::size_t i = begin; i < end; ++i) fn(i);
    } catch (...) {
      errors[slice] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(slices - 1);
  std::size_t started = 1;
  try {
    for (; started < slices; ++started) threads.emplace_back(run, started);
  } catch (...) {
    // A thread could not be started (system_error, bad_alloc): the
    // slices not yet started run inline below instead.
  }
  run(0);
  for (std::size_t slice = started; slice < slices; ++slice) run(slice);
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // A packaged_task captures any exception into its future, so nothing
    // escapes into the worker loop.
    task();
  }
}

}  // namespace gred
