// Experiment P7 — observability fabric overhead.
//
// The fabric's zero-cost-when-off contract, measured: an off-gate
// instrumentation site must cost one relaxed load and an untaken
// branch, an on-gate counter a thread-local array increment, and an
// instrumented sweep must stay within a few percent of a plain one
// (the CI gate in tools/obs_gate.py holds the end-to-end figure at 5%).
#include <benchmark/benchmark.h>

#include <cstdint>

#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "sweep/store.hpp"
#include "sweep/sweep.hpp"

namespace {

using namespace rlt;

/// The hot-path cost with the gate off — the price every layer pays on
/// every already-shipped code path when nobody asked for metrics.
void BM_CounterGateOff(benchmark::State& state) {
  obs::set_enabled(false);
  for (auto _ : state) {
    obs::count(obs::Counter::kCheckerDfsNodes);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterGateOff);

/// The same site with the gate on: relaxed load + thread-local shard
/// increment, still lock-free and allocation-free.
void BM_CounterGateOn(benchmark::State& state) {
  obs::set_enabled(true);
  obs::reset();
  for (auto _ : state) {
    obs::count(obs::Counter::kCheckerDfsNodes);
  }
  obs::set_enabled(false);
  obs::reset();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterGateOn);

/// Histogram insert (bit_width bucketing) with the gate on.
void BM_HistGateOn(benchmark::State& state) {
  obs::set_enabled(true);
  obs::reset();
  std::uint64_t v = 1;
  for (auto _ : state) {
    obs::hist(obs::Hist::kScenarioOps, v);
    v = v * 2862933555777941757ULL + 3037000493ULL;  // cheap LCG spread
  }
  obs::set_enabled(false);
  obs::reset();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistGateOn);

sweep::SweepOptions bench_sweep() {
  sweep::SweepOptions o;
  o.process_counts = {3};
  o.seed_begin = 0;
  o.seed_end = 30;
  o.threads = 2;
  return o;
}

/// End-to-end sweep, no fabric: the baseline the gate compares against.
void BM_SweepPlain(benchmark::State& state) {
  const sweep::SweepOptions o = bench_sweep();
  for (auto _ : state) {
    const sweep::SweepSummary sum = sweep::run_sweep(o);
    benchmark::DoNotOptimize(sum.digest);
  }
  state.SetItemsProcessed(state.iterations() * 360);  // scenarios/run
}
BENCHMARK(BM_SweepPlain)->Unit(benchmark::kMillisecond);

/// The same sweep fully instrumented: registry on, spans collected.
/// The gap between this and BM_SweepPlain is the fabric's whole-run
/// overhead (tools/obs_gate.py asserts <= 5% in CI).
void BM_SweepInstrumented(benchmark::State& state) {
  const sweep::SweepOptions o = bench_sweep();
  for (auto _ : state) {
    sweep::StringSink trace;
    obs::Hooks hooks;
    hooks.trace = &trace;
    const sweep::SweepSummary sum = sweep::run_sweep(o, &hooks);
    benchmark::DoNotOptimize(sum.digest);
    benchmark::DoNotOptimize(trace.text().size());
    obs::set_enabled(false);
    obs::reset();
  }
  state.SetItemsProcessed(state.iterations() * 360);
}
BENCHMARK(BM_SweepInstrumented)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
