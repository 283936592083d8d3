// Experiment P4 — end-to-end sweep throughput.
//
// The scenario sweep is the system's outer loop: this bench tracks
// scenarios/second through the full pipeline (simulate, record, check,
// fold) so checker and engine changes show up as one end-to-end number.
// The digest is asserted stable across iterations — a throughput bench
// that silently changed behaviour would be worse than useless.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "sim/regmodel.hpp"
#include "sweep/fnv.hpp"
#include "sweep/scenario.hpp"
#include "sweep/shard.hpp"
#include "sweep/sweep.hpp"
#include "util/assert.hpp"

namespace {

using namespace rlt;

sweep::SweepOptions base_options(std::uint64_t seeds, int threads,
                                 int batch) {
  sweep::SweepOptions o;
  o.seed_begin = 0;
  o.seed_end = seeds;
  o.process_counts = {3};
  o.threads = threads;
  o.batch_size = batch;
  return o;
}

void run_sweep_bench(benchmark::State& state, const sweep::SweepOptions& o) {
  std::uint64_t digest = 0;
  std::uint64_t scenarios = 0;
  for (auto _ : state) {
    const sweep::SweepSummary sum = sweep::run_sweep(o);
    benchmark::DoNotOptimize(sum.digest);
    RLT_CHECK_MSG(digest == 0 || digest == sum.digest,
                  "sweep digest changed between iterations — nondeterminism");
    digest = sum.digest;
    scenarios = sum.scenarios;
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(sum.scenarios));
  }
  state.counters["scenarios"] = static_cast<double>(scenarios);
}

/// Full cross-product (all algorithms × semantics × adversaries), seeds
/// scaled by the range argument; single worker.
void BM_SweepAllAxes(benchmark::State& state) {
  run_sweep_bench(state,
                  base_options(static_cast<std::uint64_t>(state.range(0)),
                               /*threads=*/1, /*batch=*/16));
}
BENCHMARK(BM_SweepAllAxes)->Arg(10)->Arg(50)->Unit(benchmark::kMillisecond);

/// Thread scaling at a fixed cross-product.
void BM_SweepThreads(benchmark::State& state) {
  run_sweep_bench(state,
                  base_options(/*seeds=*/25,
                               static_cast<int>(state.range(0)),
                               /*batch=*/16));
}
BENCHMARK(BM_SweepThreads)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond);

/// Submit-overhead shape: one task per scenario vs batched tasks.
void BM_SweepBatch(benchmark::State& state) {
  run_sweep_bench(state,
                  base_options(/*seeds=*/25, /*threads=*/2,
                               static_cast<int>(state.range(0))));
}
BENCHMARK(BM_SweepBatch)->Arg(1)->Arg(16)->Arg(64)->Unit(
    benchmark::kMillisecond);

/// Distributed-sweep shape at the same cross-product as BM_SweepThreads:
/// N forked single-worker processes, one shard each, stores written to
/// disk and merged back in the parent (the sweep_shard.py fan-out minus
/// Python).  Measures the full coordinator overhead — fork, store IO,
/// merge validation + re-fold — against shared-memory thread scaling.
/// N = 1 is the passthrough case: one child, no bracket, no merge.
void BM_SweepSharded(benchmark::State& state) {
  const std::uint32_t shards = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t store_fnv = 0;
  std::uint64_t scenarios = 0;
  for (auto _ : state) {
    std::vector<std::string> paths;
    std::vector<pid_t> kids;
    for (std::uint32_t i = 0; i < shards; ++i) {
      paths.push_back("/tmp/rlt_bench_shard." + std::to_string(::getpid()) +
                      "." + std::to_string(i) + ".jsonl");
      const pid_t pid = ::fork();
      RLT_CHECK(pid >= 0);
      if (pid == 0) {
        sweep::SweepOptions o = base_options(/*seeds=*/25, /*threads=*/1,
                                             /*batch=*/16);
        o.shard = sweep::ShardSpec{i, shards};
        sweep::JsonlFileSink sink(paths.back());
        (void)sweep::run_sweep(o, nullptr, &sink);
        sink.close();
        ::_exit(0);
      }
      kids.push_back(pid);
    }
    for (const pid_t pid : kids) {
      int status = 0;
      RLT_CHECK(::waitpid(pid, &status, 0) == pid);
      RLT_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }
    std::vector<sweep::ShardStore> stores;
    for (const std::string& path : paths) {
      std::ifstream in(path, std::ios::binary);
      std::ostringstream text;
      text << in.rdbuf();
      stores.push_back({path, text.str()});
      std::remove(path.c_str());
    }
    std::string merged;
    std::uint64_t count = 0;
    if (shards == 1) {
      merged = std::move(stores.front().content);
      count = static_cast<std::uint64_t>(
          std::count(merged.begin(), merged.end(), '\n'));
    } else {
      sweep::MergeResult m = sweep::merge_shard_stores(stores);
      RLT_CHECK(!m.failed);
      merged = std::move(m.store);
      count = m.records;
    }
    benchmark::DoNotOptimize(merged.data());
    // The merged store must be the identical bytes every iteration —
    // a sharded run that drifted would invalidate the whole identity.
    std::uint64_t h = sweep::kFnvOffset;
    sweep::fnv_mix_str(h, merged);
    RLT_CHECK_MSG(store_fnv == 0 || store_fnv == h,
                  "merged store changed between iterations");
    store_fnv = h;
    scenarios = count;
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(count));
  }
  state.counters["scenarios"] = static_cast<double>(scenarios);
}
BENCHMARK(BM_SweepSharded)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(
    benchmark::kMillisecond);

}  // namespace

/// One modeled-register family under the random adversary, run through
/// run_scenario (w2, seeds 0..99 per iteration): the register models'
/// solver-window probes during simulation plus the checks.  Range arg:
/// process count.
void BM_ModeledScenario(benchmark::State& state, sim::Semantics semantics) {
  constexpr std::uint64_t kSeeds = 100;
  sweep::Scenario s;
  s.algorithm = sweep::Algorithm::kModeled;
  s.semantics = semantics;
  s.adversary = sweep::AdversaryKind::kRandom;
  s.processes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
      s.seed = seed;
      const sweep::ScenarioResult r = sweep::run_scenario(s);
      RLT_CHECK_MSG(r.verdict == sweep::Verdict::kOk,
                    s.key() << ": " << r.detail);
      benchmark::DoNotOptimize(r.history_hash);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSeeds));
}
BENCHMARK_CAPTURE(BM_ModeledScenario, lin, sim::Semantics::kLinearizable)
    ->Arg(3)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ModeledScenario, wsl, sim::Semantics::kWriteStrong)
    ->Arg(3)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
