// The one sweep engine.
//
// run_engine<Mode> runs every sweep kind — the safety cross-product
// (sweep::SafetyMode), the termination lab (term::TermMode) and the
// exploration lab (explore::ExploreMode) — on the ordered loop
// (sweep/ordered.hpp).  It writes the shard header, folds each item in
// enumeration order while the workers run (the fold, its store record,
// its trace span, its forensics artifact), then closes with the
// optional wall-clock span, the summary and the shard trailer.  The
// shard merge (sweep/shard.hpp) parses persisted records back through
// the same Mode and re-folds them with the same Mode::add, which is
// what makes `shards + merge ≡ unsharded` hold by construction.
//
// A Mode supplies only what differs between kinds (Result and the
// Fold's summary carry the wall-clock fields the engine fills in):
//
//   Options, Result, Fold               the kind's types
//   kind, classes, progress_{prefix,unit}  store, trace, progress labels
//   explicit Mode(const Options&)       enumeration (checks the axes)
//   total(), owned(), gi(i), key(i)     the cross-product, this shard's slice
//   int run(i, Result&) const           item i on a worker -> class 0..3
//   static add(Fold&, key, Result)      the fold call
//   record(Record&, i, Result) const    store fields after gi/key/mode
//   static span(Record&, Result, times) trace fields after gi/key/mode
//   static parse(line, key, Result&)    a persisted record back into the
//                                       fold input; false if malformed
//   artifact_prefix and                 optional: the forensics body of
//   artifact(i, key, Result) const      item i, "" for none
//
// Every Fold finishes with finish(RecordSink*), which may append
// trailing records to the store.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>

#include "obs/forensics.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "sweep/ordered.hpp"
#include "sweep/shard.hpp"
#include "sweep/store.hpp"

namespace rlt::sweep {

/// Runs the sweep `o` describes on `o.threads` workers.  When `sink` is
/// non-null, one canonical record per item is appended in enumeration
/// order (bracketed by a shard header and trailer when `o.shard` is
/// active), so the store, like the summary, is byte-identical across
/// thread counts and batch sizes.  `progress_every` > 0 prints a line to
/// stderr every that-many completed items.  `hooks` attaches trace
/// spans, live progress and forensics artifacts; none of it is digest
/// material.
template <class Mode>
[[nodiscard]] auto run_engine(
    const typename Mode::Options& o, std::uint64_t progress_every,
    RecordSink* sink, const obs::Hooks* hooks) {
  using Result = typename Mode::Result;
  const auto elapsed_ns = [t0 = std::chrono::steady_clock::now()] {
    return static_cast<std::uint64_t>(
        (std::chrono::steady_clock::now() - t0) / std::chrono::nanoseconds(1));
  };
  const Mode mode(o);
  const std::uint64_t owned = mode.owned();
  if (sink != nullptr && o.shard.active()) {
    sink->append(shard_header_record(Mode::kind, o.shard, config_key(o),
                                     mode.total(), owned));
  }
  const bool tracing = hooks != nullptr && hooks->trace != nullptr;
  const StreamSpec spec{.threads = o.threads,
                        .batch_size = o.batch_size,
                        .hooks = hooks,
                        .mode = Mode::kind,
                        .classes = Mode::classes,
                        .progress_every = progress_every,
                        .progress_prefix = Mode::progress_prefix,
                        .progress_unit = Mode::progress_unit};
  typename Mode::Fold fold;
  std::uint64_t wall_ns_total = 0;
  std::uint64_t wall_ns_max = 0;
  // The fold runs on this thread, in enumeration order, while the
  // workers go on.  Its inputs are exactly the persisted record fields.
  stream_ordered<Result>(
      owned, spec,
      [&mode](std::size_t i, Result& r) { return mode.run(i, r); },
      [&](std::size_t i, const Result& r, const obs::CounterDelta* delta) {
        const std::uint64_t gi = mode.gi(i);
        const std::string key = mode.key(i);
        wall_ns_total += r.wall_ns;
        wall_ns_max = std::max(wall_ns_max, r.wall_ns);
        Mode::add(fold, key, r);
        if (sink != nullptr) {
          Record rec;
          rec.u64("gi", gi).str("key", key).str("mode", Mode::kind);
          mode.record(rec, i, r);
          sink->append(rec);
        }
        if (tracing) {
          // Wall-clock fields only under trace_times: they break the
          // trace's byte-identity across runs.
          Record span;
          span.str("obs", "span")
              .u64("gi", gi)
              .str("key", key)
              .str("mode", Mode::kind);
          Mode::span(span, r, hooks->trace_times);
          obs::append_stable_deltas(*delta, span);
          hooks->trace->append(span);
        }
        if constexpr (requires { mode.artifact(i, key, r); }) {
          // Named by global index, so the directory is byte-identical
          // across --threads/--batch and shards tile it.
          if (hooks != nullptr && hooks->forensics_on()) {
            const std::string body = mode.artifact(i, key, r);
            if (!body.empty()) {
              obs::write_artifact(hooks->forensics_dir,
                                  std::string(Mode::artifact_prefix) +
                                      std::to_string(gi) + ".json",
                                  body);
            }
          }
        }
      });
  if (tracing && hooks->trace_times) {
    // Closing span: end-to-end engine wall clock.  "stable":false marks
    // it as never byte-stable, so tooling skips it mechanically.
    Record close;
    close.str("obs", "span")
        .str("span", "sweep")
        .str("mode", Mode::kind)
        .boolean("stable", false)
        .u64("scenarios", owned)
        .u64("elapsed_ns", elapsed_ns());
    hooks->trace->append(close);
  }
  auto sum = fold.finish(sink);
  if (sink != nullptr && o.shard.active()) {
    sink->append(shard_trailer_record(o.shard, owned, sum.digest));
  }
  sum.wall_ns_total = wall_ns_total;
  sum.wall_ns_max = wall_ns_max;
  sum.elapsed_ns = elapsed_ns();
  return sum;
}

}  // namespace rlt::sweep
