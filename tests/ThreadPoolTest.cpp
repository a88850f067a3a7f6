//===- ThreadPoolTest.cpp - work-stealing pool unit tests ----------------------===//
//
// The in-process file-level pool (bench_parallel, mcptabench):
// inline degradation at width <= 1, tasks running on worker threads at
// width > 1, completion of nested submissions, exception capture and
// single rethrow from wait(), and reuse of the pool across wait()
// barriers.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace mcpta::support;

namespace {

TEST(ThreadPoolTest, InlinePoolRunsTasksImmediately) {
  ThreadPool Pool(1);
  int Ran = 0;
  std::thread::id RanOn;
  Pool.submit([&] {
    ++Ran;
    RanOn = std::this_thread::get_id();
  });
  // Inline pools execute inside submit(), on the caller's thread, before
  // wait() is ever called.
  EXPECT_EQ(Ran, 1);
  EXPECT_EQ(RanOn, std::this_thread::get_id());
  Pool.wait();
  EXPECT_EQ(Ran, 1);
}

TEST(ThreadPoolTest, ZeroThreadsMeansInline) {
  ThreadPool Pool(0);
  int Ran = 0;
  std::thread::id RanOn;
  Pool.submit([&] {
    ++Ran;
    RanOn = std::this_thread::get_id();
  });
  EXPECT_EQ(Ran, 1);
  EXPECT_EQ(RanOn, std::this_thread::get_id());
  Pool.wait();
}

TEST(ThreadPoolTest, ParallelPoolRunsTasksOnWorkerThreads) {
  ThreadPool Pool(4);
  std::atomic<bool> Done{false};
  std::thread::id RanOn;
  Pool.submit([&] {
    RanOn = std::this_thread::get_id();
    Done.store(true, std::memory_order_release);
  });
  // Poll without calling wait(): the caller never helps drain, so only a
  // worker thread can run the task.
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!Done.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(Done.load(std::memory_order_acquire));
  EXPECT_NE(RanOn, std::this_thread::get_id());
  Pool.wait();
}

TEST(ThreadPoolTest, ParallelPoolRunsEveryTask) {
  ThreadPool Pool(4);
  std::atomic<int> Count{0};
  constexpr int N = 500;
  for (int I = 0; I < N; ++I)
    Pool.submit([&] { Count.fetch_add(1, std::memory_order_relaxed); });
  Pool.wait();
  EXPECT_EQ(Count.load(), N);
}

TEST(ThreadPoolTest, NestedSubmissionsFinishBeforeWaitReturns) {
  ThreadPool Pool(3);
  std::atomic<int> Count{0};
  for (int I = 0; I < 20; ++I)
    Pool.submit([&] {
      Count.fetch_add(1, std::memory_order_relaxed);
      for (int J = 0; J < 5; ++J)
        Pool.submit([&] { Count.fetch_add(1, std::memory_order_relaxed); });
    });
  Pool.wait();
  EXPECT_EQ(Count.load(), 20 + 20 * 5);
}

TEST(ThreadPoolTest, WaitRethrowsFirstTaskException) {
  ThreadPool Pool(4);
  std::atomic<int> Completed{0};
  for (int I = 0; I < 50; ++I)
    Pool.submit([&, I] {
      if (I == 7)
        throw std::runtime_error("task failure");
      Completed.fetch_add(1, std::memory_order_relaxed);
    });
  EXPECT_THROW(Pool.wait(), std::runtime_error);
  // A failed task does not cancel its siblings.
  EXPECT_EQ(Completed.load(), 49);
  // The error was consumed by the rethrow: a later barrier is clean.
  Pool.submit([] {});
  EXPECT_NO_THROW(Pool.wait());
}

TEST(ThreadPoolTest, InlinePoolDefersExceptionToWait) {
  ThreadPool Pool(1);
  // submit() must not leak the exception out of the caller: the
  // parallel and inline pools share the wait()-rethrows contract.
  EXPECT_NO_THROW(Pool.submit([] { throw std::runtime_error("boom"); }));
  EXPECT_THROW(Pool.wait(), std::runtime_error);
  EXPECT_NO_THROW(Pool.wait());
}

TEST(ThreadPoolTest, PoolIsReusableAcrossBarriers) {
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  for (int Round = 0; Round < 10; ++Round) {
    for (int I = 0; I < 50; ++I)
      Pool.submit([&] { Count.fetch_add(1, std::memory_order_relaxed); });
    Pool.wait();
    EXPECT_EQ(Count.load(), (Round + 1) * 50);
  }
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool Inline(1);
  EXPECT_NO_THROW(Inline.wait());
  ThreadPool Par(4);
  EXPECT_NO_THROW(Par.wait());
}

TEST(ThreadPoolTest, SubmitFromForeignThread) {
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  std::vector<std::thread> Submitters;
  for (int T = 0; T < 4; ++T)
    Submitters.emplace_back([&] {
      for (int I = 0; I < 100; ++I)
        Pool.submit([&] { Count.fetch_add(1, std::memory_order_relaxed); });
    });
  for (std::thread &T : Submitters)
    T.join();
  Pool.wait();
  EXPECT_EQ(Count.load(), 400);
}

} // namespace
