#include "sweep/pool.hpp"

#include <exception>
#include <utility>

#include "util/assert.hpp"

namespace rlt::sweep {

WorkerPool::WorkerPool(int threads) {
  const std::size_t n = static_cast<std::size_t>(threads < 1 ? 1 : threads);
  threads_.reserve(n);
  try {
    for (std::size_t i = 0; i < n; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // Thread creation failed partway (e.g. a cgroup thread limit).
    // Join what was spawned before rethrowing: unwinding over joinable
    // std::threads would call std::terminate.
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
    throw;
  }
}

WorkerPool::~WorkerPool() {
  {
    // Drain without rethrowing (a throwing destructor would terminate);
    // an unobserved task exception is dropped here.
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [this] { return unfinished_ == 0; });
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::submit(std::function<void()> task) {
  RLT_CHECK(task != nullptr);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    RLT_CHECK_MSG(!stop_, "submit on a stopping pool");
    ++unfinished_;
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void WorkerPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return unfinished_ == 0; });
  if (first_exception_) {
    std::exception_ptr e = std::exchange(first_exception_, nullptr);
    lock.unlock();
    std::rethrow_exception(e);
  }
}

void WorkerPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop_ with nothing left to run
    std::exception_ptr error;
    {
      std::function<void()> task = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      try {
        task();
      } catch (...) {
        // Contain the exception (a bare throw on a std::thread would
        // terminate the process); the first one is rethrown to the next
        // wait_idle() caller.
        error = std::current_exception();
      }
    }
    lock.lock();
    if (error && !first_exception_) first_exception_ = std::move(error);
    if (--unfinished_ == 0) idle_cv_.notify_all();
  }
}

}  // namespace rlt::sweep
