// Experiment P3 — WSL tree-checker fast path.
//
// Tracks the write strong-linearizability checker on ADVERSARIAL
// multi-writer histories: every write overlaps every other write, and
// reads force commitment decisions while the uncommitted-candidate menu
// is at its largest (the factorial regime the ROADMAP warns about).
// Counters expose the solver-call and memo-cache behaviour so the bench
// history records WHY a run got faster, not just that it did.
// BM_WslAlg2Tree / BM_WslAlg2Witness compare the tree search with the
// witness-first check on the same sweep-shaped Algorithm 2 histories.
#include <benchmark/benchmark.h>

#include "checker/wsl_checker.hpp"
#include "history/history.hpp"
#include "sim/adversary.hpp"
#include "sim/scheduler.hpp"
#include "sweep/scenario.hpp"

namespace {

using namespace rlt;
using history::History;
using history::OpKind;
using history::OpRecord;
using history::Time;

int add_op(History& h, int process, OpKind kind, history::Value v, Time invoke,
           Time response) {
  OpRecord op;
  op.process = process;
  op.reg = 0;
  op.kind = kind;
  op.value = v;
  op.invoke = invoke;
  op.response = response;
  return h.add(op);
}

/// `writers` fully-overlapping writes, a read that forces the committed
/// order to start with the LAST-invoked write (worst case for the lazy
/// extension search: every permutation prefix over `writers` candidates
/// is on the menu), a second read pinning the earliest write next, then
/// the writes complete one by one — each response a fresh decision point.
History adversarial_history(int writers) {
  History h;
  h.set_initial(0, 0);
  Time t = 0;
  std::vector<int> writes;
  for (int w = 0; w < writers; ++w) {
    writes.push_back(
        add_op(h, w, OpKind::kWrite, 100 + w, ++t, history::kNoTime));
  }
  const Time r1_invoke = ++t;
  const int r1 = add_op(h, writers, OpKind::kRead, 100 + writers - 1,
                        r1_invoke, ++t);
  (void)r1;
  const Time r2_invoke = ++t;
  const int r2 = add_op(h, writers, OpKind::kRead, 100, r2_invoke, ++t);
  (void)r2;
  for (int w = 0; w < writers; ++w) {
    h.complete_op(writes[static_cast<std::size_t>(w)], 100 + w, ++t);
  }
  return h;
}

void run_wsl(benchmark::State& state, const History& h,
             const checker::WslCheckOptions& options) {
  std::size_t solver_calls = 0, hits = 0, misses = 0;
  bool ok = false;
  for (auto _ : state) {
    const auto r = checker::check_write_strong_linearizable(h, options);
    benchmark::DoNotOptimize(r.ok);
    ok = r.ok;
    solver_calls = r.solver_calls;
    hits = r.cache_hits;
    misses = r.cache_misses;
  }
  state.counters["solver_calls"] = static_cast<double>(solver_calls);
  state.counters["cache_hits"] = static_cast<double>(hits);
  state.counters["cache_misses"] = static_cast<double>(misses);
  state.SetLabel(std::to_string(h.size()) + " ops, " +
                 (ok ? "wsl-ok" : "wsl-violation"));
}

void BM_WslAdversarial(benchmark::State& state) {
  const History h = adversarial_history(static_cast<int>(state.range(0)));
  run_wsl(state, h, {.memoize = true});
}
BENCHMARK(BM_WslAdversarial)->Arg(2)->Arg(3)->Arg(4)->Arg(5)->Arg(6);

void BM_WslAdversarialNoMemo(benchmark::State& state) {
  const History h = adversarial_history(static_cast<int>(state.range(0)));
  run_wsl(state, h, {.memoize = false});
}
BENCHMARK(BM_WslAdversarialNoMemo)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

/// Simulator-generated concurrent histories (the sweep's workload shape):
/// `writers` writer processes × 2 writes plus 2 readers over a
/// linearizable model, then tree-checked for WSL.
History sim_history(int writers, std::uint64_t seed) {
  struct Bodies {
    static sim::Task writer(sim::Proc& p, int ops, int base) {
      for (int i = 0; i < ops; ++i) co_await p.write(0, base + i);
    }
    static sim::Task reader(sim::Proc& p, int ops) {
      for (int i = 0; i < ops; ++i) (void)co_await p.read(0);
    }
  };
  sim::Scheduler sched(seed);
  sched.add_register(0, sim::Semantics::kLinearizable, 0);
  for (int w = 0; w < writers; ++w) {
    sched.add_process("w", [w](sim::Proc& p) {
      return Bodies::writer(p, 2, 100 * (w + 1));
    });
  }
  for (int r = 0; r < 2; ++r) {
    sched.add_process("r", [](sim::Proc& p) { return Bodies::reader(p, 2); });
  }
  sim::RandomAdversary adv(seed * 31 + 5);
  sched.run(adv, 1000000);
  return sched.global_history();
}

void BM_WslSimHistory(benchmark::State& state) {
  const History h = sim_history(static_cast<int>(state.range(0)), 42);
  run_wsl(state, h, {.memoize = true});
}
BENCHMARK(BM_WslSimHistory)->Arg(2)->Arg(3)->Arg(4);

/// Branching prefix trees: two runs that share a schedule prefix and then
/// diverge — the shape Definition 4 is really about (and where the
/// prefix-node memo key must not conflate branches).
void BM_WslBranchingTree(benchmark::State& state) {
  const int writers = static_cast<int>(state.range(0));
  History h1 = adversarial_history(writers);
  // A second run: identical prefix, but the trailing write-completions
  // happen in reverse order (distinct times, same prefix events).
  History h2;
  h2.set_initial(0, 0);
  {
    Time t = 0;
    std::vector<int> writes;
    for (int w = 0; w < writers; ++w) {
      writes.push_back(
          add_op(h2, w, OpKind::kWrite, 100 + w, ++t, history::kNoTime));
    }
    const Time r1_invoke = ++t;
    const Time r1_respond = ++t;
    add_op(h2, writers, OpKind::kRead, 100 + writers - 1, r1_invoke,
           r1_respond);
    const Time r2_invoke = ++t;
    const Time r2_respond = ++t;
    add_op(h2, writers, OpKind::kRead, 100, r2_invoke, r2_respond);
    for (int w = writers - 1; w >= 1; --w) {
      h2.complete_op(writes[static_cast<std::size_t>(w)], 100 + w,
                     static_cast<Time>(100 + w));
    }
    h2.complete_op(writes[0], 100, 200);
  }
  std::size_t solver_calls = 0;
  for (auto _ : state) {
    const auto r =
        checker::check_write_strong_linearizable(std::vector<History>{h1, h2});
    benchmark::DoNotOptimize(r.ok);
    solver_calls = r.solver_calls;
  }
  state.counters["solver_calls"] = static_cast<double>(solver_calls);
}
BENCHMARK(BM_WslBranchingTree)->Arg(2)->Arg(3)->Arg(4);

/// The sweep's own Algorithm 2 scenario (random adversary, seed 0) at
/// `processes` writers × `writes` writes each, plus a read per process:
/// the recorded history and Algorithm 3's witness for it.
sweep::RecordedRun alg2_run(int processes, int writes) {
  sweep::Scenario s;
  s.algorithm = sweep::Algorithm::kAlg2;
  s.processes = processes;
  s.writes_per_process = writes;
  sweep::RecordedRun rec;
  (void)sweep::run_scenario_recorded(s, rec);
  return rec;
}

/// The witness-free tree search on Alg2 histories (the pre-witness
/// sweep's WSL check).
void BM_WslAlg2Tree(benchmark::State& state) {
  const sweep::RecordedRun rec = alg2_run(static_cast<int>(state.range(0)),
                                          static_cast<int>(state.range(1)));
  run_wsl(state, rec.history, {});
}

/// The same histories checked witness-first with Algorithm 3's write
/// order: one exact-order probe per response or commit.
void BM_WslAlg2Witness(benchmark::State& state) {
  const sweep::RecordedRun rec = alg2_run(static_cast<int>(state.range(0)),
                                          static_cast<int>(state.range(1)));
  bool verified = false;
  for (auto _ : state) {
    const auto r =
        checker::check_write_strong_linearizable(rec.history, *rec.witness);
    benchmark::DoNotOptimize(r.ok);
    verified = r.witness == checker::WslWitnessOutcome::kVerified;
  }
  state.counters["probes"] = static_cast<double>(
      checker::verify_wsl_witness(rec.history, *rec.witness).probes);
  state.SetLabel(std::to_string(rec.history.size()) + " ops, " +
                 (verified ? "witness verified" : "fell back"));
}

BENCHMARK(BM_WslAlg2Tree)->Args({3, 2})->Args({4, 4})->Args({5, 8});
BENCHMARK(BM_WslAlg2Witness)->Args({3, 2})->Args({4, 4})->Args({5, 8});

}  // namespace

BENCHMARK_MAIN();
