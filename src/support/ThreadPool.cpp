//===- ThreadPool.cpp - Work-stealing thread pool -------------------------===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

namespace mcpta {
namespace support {

ThreadPool::ThreadPool(unsigned Threads) {
  if (Threads <= 1)
    return; // inline pool: no queues, no workers
  unsigned NumWorkers = Threads - 1;
  // One queue per worker, one extra slot shared by external submitters
  // and the thread that parks in wait().
  for (unsigned I = 0; I < NumWorkers + 1; ++I)
    Queues.push_back(std::make_unique<WorkerQueue>());
  Workers.reserve(NumWorkers);
  for (unsigned I = 0; I < NumWorkers; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

ThreadPool::~ThreadPool() {
  if (Workers.empty())
    return;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stop.store(true, std::memory_order_relaxed);
  }
  WorkCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::submit(std::function<void()> Task) {
  if (Workers.empty()) {
    // Inline pool: run now, capture the first failure for wait().
    Pending.fetch_add(1, std::memory_order_relaxed);
    runTask(Task);
    return;
  }
  Pending.fetch_add(1, std::memory_order_acq_rel);
  unsigned Slot =
      NextQueue.fetch_add(1, std::memory_order_relaxed) % Queues.size();
  {
    std::lock_guard<std::mutex> Lock(Queues[Slot]->Mu);
    Queues[Slot]->Tasks.push_back(std::move(Task));
  }
  {
    // Pairs with the CV wait predicate: taking Mu here guarantees a
    // worker that saw empty queues is already parked in wait() and
    // receives this notification.
    std::lock_guard<std::mutex> Lock(Mu);
  }
  WorkCv.notify_one();
}

bool ThreadPool::popTask(unsigned Self, std::function<void()> &Out) {
  // Own deque first, newest task (LIFO: depth-first, cache-warm).
  {
    WorkerQueue &Q = *Queues[Self];
    std::lock_guard<std::mutex> Lock(Q.Mu);
    if (!Q.Tasks.empty()) {
      Out = std::move(Q.Tasks.back());
      Q.Tasks.pop_back();
      return true;
    }
  }
  // Steal oldest-first from the other deques.
  for (size_t I = 1; I < Queues.size(); ++I) {
    WorkerQueue &Q = *Queues[(Self + I) % Queues.size()];
    std::lock_guard<std::mutex> Lock(Q.Mu);
    if (!Q.Tasks.empty()) {
      Out = std::move(Q.Tasks.front());
      Q.Tasks.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::runTask(std::function<void()> &Task) {
  try {
    Task();
  } catch (...) {
    std::lock_guard<std::mutex> Lock(ErrMu);
    if (!FirstError)
      FirstError = std::current_exception();
  }
  if (Pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> Lock(Mu);
    DoneCv.notify_all();
  }
}

void ThreadPool::workerLoop(unsigned Self) {
  std::function<void()> Task;
  for (;;) {
    if (popTask(Self, Task)) {
      runTask(Task);
      Task = nullptr;
      continue;
    }
    std::unique_lock<std::mutex> Lock(Mu);
    if (Stop.load(std::memory_order_relaxed))
      return;
    // Re-check under Mu: a submit between our empty sweep and this
    // lock acquisition already notified while holding Mu, so either we
    // see Pending work here or the wait observes the notification.
    WorkCv.wait_for(Lock, std::chrono::milliseconds(1), [this] {
      return Stop.load(std::memory_order_relaxed) ||
             Pending.load(std::memory_order_relaxed) != 0;
    });
    if (Stop.load(std::memory_order_relaxed))
      return;
  }
}

void ThreadPool::wait() {
  if (!Workers.empty()) {
    unsigned Self = unsigned(Queues.size()) - 1; // the external slot
    std::function<void()> Task;
    while (Pending.load(std::memory_order_acquire) != 0) {
      if (popTask(Self, Task)) {
        runTask(Task);
        Task = nullptr;
        continue;
      }
      std::unique_lock<std::mutex> Lock(Mu);
      DoneCv.wait_for(Lock, std::chrono::milliseconds(1), [this] {
        return Pending.load(std::memory_order_relaxed) == 0;
      });
    }
  }
  std::exception_ptr E;
  {
    std::lock_guard<std::mutex> Lock(ErrMu);
    E = FirstError;
    FirstError = nullptr;
  }
  if (E)
    std::rethrow_exception(E);
}

} // namespace support
} // namespace mcpta
