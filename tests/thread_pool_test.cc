// Unit tests for the worker pool behind the parallel eval harness, and
// for ParallelFor, the fork-join loop of the preparatory phase.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "util/thread_pool.h"
#include "util/timing.h"

namespace gred {
namespace {

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(HardwareThreads(), 1u);
}

#ifdef __linux__
TEST(ThreadPool, HardwareThreadsHonorsTheAffinityMask) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  // Pins only this thread of this process, and restores it before
  // checking, so a failed expectation cannot leak the pin.
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const std::size_t pinned = HardwareThreads();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(HardwareThreads(), static_cast<std::size_t>(CPU_COUNT(&saved)));
}
#endif

TEST(ParallelFor, EmptyRangeCallsNothing) {
  std::atomic<int> calls{0};
  ParallelFor(0, [&calls](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, ShortRangeRunsInlineInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool all_inline = true;
  const std::size_t n = 2 * kParallelForMinSlice - 1;
  ParallelFor(n, [&](std::size_t i) {
    all_inline = all_inline && std::this_thread::get_id() == caller;
    order.push_back(i);
  });
  EXPECT_TRUE(all_inline);
  ASSERT_EQ(order.size(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (std::size_t n : {kParallelForMinSlice * 2, std::size_t{1000},
                        std::size_t{4097}}) {
    std::vector<std::atomic<int>> visits(n);
    ParallelFor(n, [&visits](std::size_t i) { visits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ParallelFor, ExceptionPropagatesToTheCaller) {
  std::atomic<int> calls{0};
  const std::size_t n = 4096;
  EXPECT_THROW(ParallelFor(n,
                           [&calls, n](std::size_t i) {
                             calls.fetch_add(1);
                             if (i == n - 1) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  // Every slice ran to its end (the throw is the last index).
  EXPECT_EQ(calls.load(), static_cast<int>(n));
  // Inline ranges propagate too.
  EXPECT_THROW(ParallelFor(1, [](std::size_t) { throw std::logic_error("x"); }),
               std::logic_error);
}

TEST(ThreadPool, ResultsLandInTheRightFutures) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, SingleThreadRunsInSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.Submit([&order, i] { order.push_back(i); }));
  }
  for (std::future<void>& f : futures) f.get();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  std::future<int> bad =
      pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The worker survives the exception and keeps serving tasks.
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, DestructorDrainsTheQueue) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&done] { done.fetch_add(1); });
    }
  }  // destructor joins after draining
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  EXPECT_EQ(pool.Submit([] { return 42; }).get(), 42);
}

TEST(Timing, AtomicDurationAccumulatesAcrossThreads) {
  AtomicDuration total;
  {
    ThreadPool pool(4);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 32; ++i) {
      futures.push_back(pool.Submit([&total] { total.AddNanos(1000); }));
    }
    for (std::future<void>& f : futures) f.get();
  }
  EXPECT_EQ(total.nanos(), 32'000);
  EXPECT_EQ(total.count(), 32u);
  total.Reset();
  EXPECT_EQ(total.nanos(), 0);
  EXPECT_EQ(total.count(), 0u);
}

TEST(Timing, ScopedTimerWithNullTargetIsANoOp) {
  ScopedTimer timer(nullptr);  // must not crash
}

}  // namespace
}  // namespace gred
