// The ordered streaming loop every sweep engine runs on.
//
// Workers claim batches of consecutive item indices from one shared
// cursor, in index order, and run them; meanwhile the calling thread
// folds the finished batches strictly in index order (aggregate, store
// record, trace span, forensics artifact) and frees each one.  A worker
// that gets `ordered_window(threads)` batches ahead of the fold cursor
// parks until the fold catches up, so at most that many batches are
// alive at once: memory is O(threads × batch), independent of how many
// items the sweep has.  Because the fold sees items in index order
// whatever the interleaving, everything it writes is byte-identical
// across thread counts and batch sizes.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"

namespace rlt::sweep {

/// Batches a worker may run ahead of the fold cursor, per worker thread.
inline constexpr std::size_t kWindowPerThread = 16;

/// Batches alive at once (running, finished or being folded) for a loop
/// on `threads` workers (at least 1).
[[nodiscard]] std::size_t ordered_window(int threads) noexcept;

/// One batch: its index, its ring slot in [0, ordered_window(threads)),
/// and its item range [begin, end).
struct BatchRef {
  std::size_t index = 0;
  std::size_t slot = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

using BatchFn = std::function<void(const BatchRef&)>;

/// Runs items [0, items) in batches of `batch` (at least 1): `run` on
/// `threads` workers, `fold` on the calling thread, each batch folded
/// exactly once, in index order, after its `run` returned.  Two batches
/// share a slot only when the older one has been folded.  The first
/// exception thrown by `run` or `fold` stops the loop: parked workers
/// are woken, every worker is joined, and the exception is rethrown.
void run_ordered(int threads, std::size_t items, std::size_t batch,
                 const BatchFn& run, const BatchFn& fold);

/// The engine-side knobs of stream_ordered.
struct StreamSpec {
  int threads = 1;
  int batch_size = 16;
  /// A trace sink makes each item's obs::CounterDelta, captured on its
  /// worker, reach the fold; progress_on() runs an obs::ProgressMeter
  /// labelled with `mode` and the four outcome `classes`.
  const obs::Hooks* hooks = nullptr;
  std::string_view mode = "safety";
  std::array<std::string_view, 4> classes{"ok", "viol", "blocked", "err"};
};

/// run_ordered specialized to the engines: `run(i, result)` computes
/// item i's Result on a worker and returns its progress class (0..3);
/// `fold(i, result, delta)` consumes it on the calling thread, in index
/// order (`delta` is the item's counter delta, or null when not
/// tracing).  Results and deltas live in the batch's slot and are freed
/// as soon as the batch is folded.
template <class Result, class Run, class Fold>
void stream_ordered(std::size_t items, const StreamSpec& spec, Run&& run,
                    Fold&& fold) {
  const obs::Hooks* const hooks = spec.hooks;
  const bool tracing = hooks != nullptr && hooks->trace != nullptr;
  // Spans carry counter deltas, which need the registry live.
  if (tracing) obs::set_enabled(true);
  std::unique_ptr<obs::ProgressMeter> meter;
  if (hooks != nullptr && hooks->progress_on()) {
    obs::ProgressOptions po;
    po.total = items;
    po.mode = spec.mode;
    po.classes = spec.classes;
    po.fd = hooks->progress_fd;
    po.heartbeat_ms = hooks->heartbeat_ms;
    meter = std::make_unique<obs::ProgressMeter>(po);
  }
  struct Slot {
    std::vector<Result> results;
    std::vector<obs::CounterDelta> deltas;
  };
  std::vector<Slot> slots(ordered_window(spec.threads));
  const auto run_batch = [&](const BatchRef& b) {
    const bool timing = obs::enabled();
    const auto t0 = std::chrono::steady_clock::now();
    Slot& slot = slots[b.slot];
    slot.results.resize(b.end - b.begin);
    if (tracing) slot.deltas.resize(b.end - b.begin);
    for (std::size_t i = b.begin; i < b.end; ++i) {
      // An item runs wholly on this thread, so the thread-local counter
      // slice before/after brackets exactly its work.
      obs::CounterDelta before;
      if (tracing) before = obs::thread_counters();
      const int cls = run(i, slot.results[i - b.begin]);
      if (tracing) {
        obs::CounterDelta after = obs::thread_counters();
        after -= before;
        slot.deltas[i - b.begin] = after;
      }
      if (meter) meter->tick(cls);
    }
    if (timing) {
      obs::count(obs::Counter::kPoolTasks);
      obs::hist(obs::Hist::kPoolTaskNs,
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count()));
    }
  };
  const auto fold_batch = [&](const BatchRef& b) {
    Slot& slot = slots[b.slot];
    for (std::size_t i = b.begin; i < b.end; ++i) {
      fold(i, slot.results[i - b.begin],
           tracing ? &slot.deltas[i - b.begin] : nullptr);
    }
    slot.results.clear();
    slot.deltas.clear();
  };
  run_ordered(spec.threads, items,
              static_cast<std::size_t>(spec.batch_size < 1 ? 1
                                                           : spec.batch_size),
              run_batch, fold_batch);
  if (meter) meter->finish();
  obs::gauge_max(obs::Gauge::kPoolThreads,
                 static_cast<std::uint64_t>(spec.threads < 1 ? 1
                                                             : spec.threads));
}

}  // namespace rlt::sweep
