#include "sweep/ordered.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>

#include "sweep/pool.hpp"

namespace rlt::sweep {

std::size_t ordered_window(int threads) noexcept {
  return kWindowPerThread * static_cast<std::size_t>(threads < 1 ? 1 : threads);
}

void run_ordered(int threads, std::size_t items, std::size_t batch,
                 const BatchFn& run, const BatchFn& fold) {
  batch = std::max<std::size_t>(batch, 1);
  const std::size_t batches = items / batch + (items % batch != 0 ? 1 : 0);
  if (batches == 0) return;
  const std::size_t window = ordered_window(threads);
  const auto ref = [&](std::size_t b) {
    return BatchRef{b, b % window, b * batch, std::min(items, (b + 1) * batch)};
  };

  // All cursor state is guarded by `m`.  A batch's slot data is written
  // by its worker before `ready` is set and read by the fold after, both
  // under `m`, so the hand-off needs no other synchronization.
  std::mutex m;
  std::condition_variable work_cv;  // Workers: a slot freed, or stop.
  std::condition_variable fold_cv;  // Fold: a batch finished, or stop.
  std::size_t next = 0;             // Next batch to claim.
  std::size_t folded = 0;           // Batches folded so far.
  std::vector<char> ready(window, 0);
  bool stop = false;
  std::exception_ptr error;
  const auto fail = [&](std::exception_ptr e) {
    {
      const std::lock_guard<std::mutex> lock(m);
      if (!error) error = std::move(e);
      stop = true;
    }
    work_cv.notify_all();
    fold_cv.notify_all();
  };

  {
    // Declared after the state it references: the destructor joins the
    // workers before that state goes away, on every exit path.
    WorkStealingPool pool(threads);
    try {
      for (int w = 0; w < pool.thread_count(); ++w) {
        pool.submit([&] {
          try {
            for (;;) {
              std::size_t b = 0;
              {
                std::unique_lock<std::mutex> lock(m);
                work_cv.wait(lock, [&] {
                  return stop || next >= batches || next < folded + window;
                });
                if (stop || next >= batches) return;
                b = next++;
              }
              run(ref(b));
              {
                const std::lock_guard<std::mutex> lock(m);
                ready[b % window] = 1;
              }
              fold_cv.notify_one();
            }
          } catch (...) {
            fail(std::current_exception());
          }
        });
      }
      for (std::size_t b = 0; b < batches; ++b) {
        {
          std::unique_lock<std::mutex> lock(m);
          fold_cv.wait(lock, [&] { return stop || ready[b % window] != 0; });
          if (stop) break;
        }
        fold(ref(b));
        {
          const std::lock_guard<std::mutex> lock(m);
          ready[b % window] = 0;
          folded = b + 1;
        }
        work_cv.notify_all();
      }
    } catch (...) {
      fail(std::current_exception());
    }
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace rlt::sweep
