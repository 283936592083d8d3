// A small thread pool: a fixed set of workers taking tasks from one FIFO
// queue guarded by one mutex.
//
// The sweep engines need nothing more.  They run on the ordered loop
// (sweep/ordered.hpp), which submits exactly one long-lived claim-loop
// task per worker; the tasks claim batches from a shared cursor in index
// order, and the caller folds each finished batch in index order, so
// sweep digests are independent of the interleaving and of the thread
// count.  The pool itself schedules nondeterministically across workers;
// a one-worker pool runs its tasks in submission order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rlt::sweep {

class WorkerPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit WorkerPool(int threads);

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Drains remaining work, then joins the workers.
  ~WorkerPool();

  /// Enqueues a task.  Thread-safe; tasks may submit further tasks.
  /// A task that throws does not kill the worker: the first exception is
  /// captured and rethrown from the next wait_idle() call.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing, then
  /// rethrows the first exception any task threw since the last call
  /// (if one did).
  void wait_idle();

  [[nodiscard]] int thread_count() const noexcept {
    return static_cast<int>(threads_.size());
  }

  /// Always 0: the pool has one queue and never steals.  Kept, with the
  /// WorkStealingPool alias below, only because perfbench/driver.cpp's
  /// traced_pool still names both.
  [[nodiscard]] std::uint64_t steals() const noexcept { return 0; }

 private:
  void worker_loop();

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< Signals workers: work or stop.
  std::condition_variable idle_cv_;  ///< Signals waiters: all done.
  std::deque<std::function<void()>> queue_;
  std::size_t unfinished_ = 0;          ///< Queued + executing tasks.
  std::exception_ptr first_exception_;  ///< First task throw, if any.
  bool stop_ = false;
};

/// The pool's former name; see steals().
using WorkStealingPool = WorkerPool;

}  // namespace rlt::sweep
