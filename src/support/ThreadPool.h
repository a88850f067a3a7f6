//===- ThreadPool.h - Work-stealing thread pool -----------------*- C++ -*-===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small work-stealing pool for in-process file-level parallelism:
/// `bench_parallel` and mcptabench's `paper-corpus` workload run one task
/// per file on it. (`pta-tool --batch` forks a child per file instead;
/// see docs/PARALLEL.md.) Each worker owns a deque: it pushes and pops its
/// own tasks LIFO (cache-warm, depth-first), and steals from the other
/// end of a victim's deque FIFO when its own runs dry — the classic
/// Blumofe/Leiserson discipline, sized down to what its callers need:
///
///  - submit() from any thread (external submissions round-robin onto
///    worker deques; a worker submits onto its own deque);
///  - wait() blocks until every submitted task has finished, then
///    rethrows the first task exception, if any (subsequent ones are
///    swallowed — one failure is enough to fail the run);
///  - no task-to-task return plumbing: tasks communicate through
///    whatever shared state the caller synchronizes (e.g. per-file
///    output slots).
///
/// A pool constructed with 0 or 1 threads spawns no workers at all:
/// submit() runs the task inline and wait() only rethrows. This is the
/// sequential run, byte-for-byte — callers never special-case it.
///
//===----------------------------------------------------------------------===//

#ifndef MCPTA_SUPPORT_THREADPOOL_H
#define MCPTA_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mcpta {
namespace support {

class ThreadPool {
public:
  /// Spawns \p Threads - 1 workers (the calling thread is the pool's
  /// implicit first executor via wait()); 0 and 1 both mean inline
  /// execution with no threads at all.
  explicit ThreadPool(unsigned Threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues \p Task. Callable from any thread, including from inside
  /// a running task. Inline pools run it before returning.
  void submit(std::function<void()> Task);

  /// Blocks until every task submitted so far (including tasks those
  /// tasks submitted) has completed, then rethrows the first captured
  /// task exception. The calling thread helps drain the queues while it
  /// waits rather than sleeping on the barrier.
  void wait();

private:
  struct WorkerQueue {
    std::mutex Mu;
    std::deque<std::function<void()>> Tasks;
  };

  void workerLoop(unsigned Self);
  /// Pops one task for thread-slot \p Self (own deque back first, then
  /// steals from the others' fronts). Returns false when every deque is
  /// empty at the moment of the sweep.
  bool popTask(unsigned Self, std::function<void()> &Out);
  void runTask(std::function<void()> &Task);

  /// One queue per worker plus a final slot for external submitters /
  /// the waiting thread. Index == thread slot.
  std::vector<std::unique_ptr<WorkerQueue>> Queues;
  std::vector<std::thread> Workers;

  std::mutex Mu; ///< guards CV sleeping and Pending transitions to 0
  std::condition_variable WorkCv; ///< workers sleep here when idle
  std::condition_variable DoneCv; ///< wait() sleeps here
  std::atomic<uint64_t> Pending{0}; ///< submitted but not yet finished
  std::atomic<bool> Stop{false};
  std::atomic<unsigned> NextQueue{0}; ///< round-robin for external submits

  std::mutex ErrMu;
  std::exception_ptr FirstError; ///< first task exception, rethrown by wait()
};

} // namespace support
} // namespace mcpta

#endif // MCPTA_SUPPORT_THREADPOOL_H
