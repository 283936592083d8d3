// Tests for the parallel scenario-sweep engine (src/sweep/): the
// worker pool, the ordered streaming loop, single-scenario
// determinism, the crash and stall fault axes and their verdict
// taxonomy (blocked vs violation vs error), and the sweep-level digest
// guarantees (same options => byte-identical summary, regardless of
// thread count — with or without faults).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "mp/abd.hpp"
#include "mp/network.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "sweep/ordered.hpp"
#include "sweep/pool.hpp"
#include "sweep/scenario.hpp"
#include "sweep/sweep.hpp"
#include "util/rng.hpp"

namespace rlt::sweep {
namespace {

// ---------- worker pool ----------

TEST(Pool, RunsEveryTask) {
  WorkerPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(Pool, TasksMaySubmitTasks) {
  WorkerPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&pool, &count] {
      count.fetch_add(1);
      for (int j = 0; j < 4; ++j) {
        pool.submit([&count] { count.fetch_add(1); });
      }
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 8 + 8 * 4);
}

TEST(Pool, WaitIdleIsReusable) {
  WorkerPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 2);
}

TEST(Pool, SingleThreadPoolStillCompletes) {
  WorkerPool pool(1);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(Pool, SingleWorkerRunsTasksInSubmissionOrder) {
  // One queue, first in first out: a lone worker runs tasks in the order
  // they were submitted, including tasks submitted while it is busy.
  WorkerPool pool(1);
  std::atomic<bool> release{false};
  std::vector<int> order;  // written only by the one worker
  pool.submit([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  for (int i = 0; i < 8; ++i) {
    pool.submit([&order, i] { order.push_back(i); });
  }
  release.store(true);
  pool.wait_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Pool, TaskExceptionSurfacesInWaitIdle) {
  WorkerPool pool(2);
  std::atomic<int> count{0};
  pool.submit([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 10; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(count.load(), 10);  // the throwing task killed nothing else
  // The exception was consumed; the pool remains usable.
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 11);
}

// ---------- ordered streaming loop ----------

/// Runs `body` on its own thread and rethrows what it throws; aborts
/// the test binary if it has not returned within a minute (a hung loop
/// cannot be joined, so failing fast is the only clean outcome).
template <class Body>
void within_timeout(Body body) {
  std::promise<void> done;
  std::future<void> result = done.get_future();
  std::thread t([&body, &done] {
    try {
      body();
      done.set_value();
    } catch (...) {
      done.set_exception(std::current_exception());
    }
  });
  if (result.wait_for(std::chrono::seconds(60)) !=
      std::future_status::ready) {
    std::fprintf(stderr, "ordered loop did not return within 60 s\n");
    std::abort();
  }
  t.join();
  result.get();
}

TEST(Ordered, FoldsEveryItemOnceInIndexOrder) {
  for (const int threads : {1, 3}) {
    const std::size_t window = ordered_window(threads);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{4}}) {
      // Batch counts: none, one item, below / at / above the window.
      for (const std::size_t items :
           {std::size_t{0}, std::size_t{1}, batch * (window - 1),
            batch * window, batch * window + 1, 3 * batch * window + 2}) {
        std::vector<std::atomic<int>> runs(items);
        std::vector<std::size_t> in_slot(window);
        std::vector<std::size_t> folded;
        std::atomic<std::size_t> folded_batches{0};
        std::atomic<bool> window_overrun{false};
        within_timeout([&] {
          run_ordered(
              threads, items, batch,
              [&](const BatchRef& b) {
                // Claimed at most `window` batches past the fold cursor.
                if (b.index >= folded_batches.load() + window) {
                  window_overrun = true;
                }
                for (std::size_t i = b.begin; i < b.end; ++i) ++runs[i];
                in_slot[b.slot] = b.index;
              },
              [&](const BatchRef& b) {
                EXPECT_EQ(b.slot, b.index % window);
                EXPECT_EQ(in_slot[b.slot], b.index);
                for (std::size_t i = b.begin; i < b.end; ++i) {
                  folded.push_back(i);
                }
                folded_batches = b.index + 1;
              });
        });
        EXPECT_FALSE(window_overrun);
        ASSERT_EQ(folded.size(), items) << threads << "/" << batch;
        for (std::size_t i = 0; i < items; ++i) {
          EXPECT_EQ(folded[i], i);
          EXPECT_EQ(runs[i].load(), 1) << "item " << i;
        }
      }
    }
  }
}

TEST(Ordered, StreamHandsEachResultAndDeltaToTheFold) {
  StringSink trace;
  StreamSpec spec;
  spec.threads = 2;
  spec.batch_size = 3;
  for (const bool tracing : {false, true}) {
    obs::Hooks hooks;
    if (tracing) hooks.trace = &trace;
    spec.hooks = &hooks;
    std::vector<int> seen;
    stream_ordered<int>(
        100, spec,
        [](std::size_t i, int& r) {
          r = static_cast<int>(i) * 7;
          return 0;
        },
        [&](std::size_t i, const int& r, const obs::CounterDelta* delta) {
          EXPECT_EQ(r, static_cast<int>(i) * 7);
          EXPECT_EQ(delta != nullptr, tracing);
          seen.push_back(static_cast<int>(i));
        });
    ASSERT_EQ(seen.size(), 100u);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(seen[i], i);
  }
  obs::set_enabled(false);  // tracing switched the registry on
}

TEST(Ordered, RunExceptionIsRethrownWithoutHanging) {
  std::atomic<std::size_t> folds{0};
  EXPECT_THROW(within_timeout([&] {
                 run_ordered(
                     4, 100'000, 1,
                     [](const BatchRef& b) {
                       if (b.index == 37) throw std::runtime_error("run");
                     },
                     [&](const BatchRef&) { ++folds; });
               }),
               std::runtime_error);
  EXPECT_LE(folds.load(), 37u);  // nothing past the failed batch folds
}

TEST(Ordered, FoldExceptionWakesWorkersParkedOnTheWindow) {
  const int threads = 4;
  const std::size_t window = ordered_window(threads);
  std::atomic<std::size_t> started{0};
  EXPECT_THROW(
      within_timeout([&] {
        run_ordered(
            threads, 10 * window, 1, [&](const BatchRef&) { ++started; },
            [&](const BatchRef&) {
              // Hold batch 0 until every slot is taken: the workers
              // are now parked on the window, waiting for this fold.
              while (started.load() < window) std::this_thread::yield();
              throw std::logic_error("fold");
            });
      }),
      std::logic_error);
  EXPECT_EQ(started.load(), window);  // no batch ran past the window
}

// ---------- scenario enumeration ----------

TEST(Enumerate, CrossProductSizeAndOrderAreStable) {
  SweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 3;
  o.process_counts = {2, 3};
  // modeled contributes |semantics| configs; alg2/alg4/abd one each:
  // (3 + 3) * |adversaries|=2 * |process_counts|=2 * seeds=3.
  const std::vector<Scenario> all = enumerate_scenarios(o);
  EXPECT_EQ(all.size(), (3u + 3u) * 2u * 2u * 3u);
  // Seeds are the outermost axis (consecutive tasks differ in config).
  EXPECT_EQ(all.front().seed, 0u);
  EXPECT_EQ(all.back().seed, 2u);
  // Keys are unique.
  std::set<std::string> keys;
  for (const Scenario& s : all) keys.insert(s.key());
  EXPECT_EQ(keys.size(), all.size());
}

// ---------- single-scenario determinism ----------

TEST(Scenario, RerunIsBitIdentical) {
  for (const Algorithm alg : {Algorithm::kModeled, Algorithm::kAlg2,
                              Algorithm::kAlg4, Algorithm::kAbd}) {
    Scenario s;
    s.algorithm = alg;
    s.semantics = sim::Semantics::kLinearizable;
    s.adversary = AdversaryKind::kRandom;
    s.processes = 3;
    s.seed = 12345;
    const ScenarioResult a = run_scenario(s);
    const ScenarioResult b = run_scenario(s);
    EXPECT_EQ(a.verdict, Verdict::kOk) << s.key() << ": " << a.detail;
    EXPECT_EQ(a.verdict, b.verdict) << s.key();
    EXPECT_EQ(a.steps, b.steps) << s.key();
    EXPECT_EQ(a.ops, b.ops) << s.key();
    EXPECT_EQ(a.history_hash, b.history_hash) << s.key();
  }
}

TEST(Scenario, DifferentSeedsReachDifferentHistories) {
  // Not guaranteed for every pair, but across 20 seeds the random
  // adversary must produce more than one distinct interleaving.
  std::set<std::uint64_t> hashes;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Scenario s;
    s.algorithm = Algorithm::kModeled;
    s.semantics = sim::Semantics::kLinearizable;
    s.adversary = AdversaryKind::kRandom;
    s.processes = 3;
    s.seed = seed;
    const ScenarioResult r = run_scenario(s);
    ASSERT_EQ(r.verdict, Verdict::kOk) << r.detail;
    hashes.insert(r.history_hash);
  }
  EXPECT_GT(hashes.size(), 1u);
}

TEST(Scenario, InvalidConfigIsAnErrorNotACrash) {
  // run_scenario's contract: never throws, bad configs become kError —
  // including ones only a programmatic caller (not the CLI) can build.
  for (const Algorithm alg : {Algorithm::kModeled, Algorithm::kAlg2,
                              Algorithm::kAlg4, Algorithm::kAbd}) {
    Scenario s;
    s.algorithm = alg;
    s.processes = 0;
    const ScenarioResult r = run_scenario(s);
    EXPECT_EQ(r.verdict, Verdict::kError) << to_string(alg);
    EXPECT_FALSE(r.detail.empty()) << to_string(alg);
  }
}

TEST(Scenario, ExhaustedBudgetIsAnErrorNotACrash) {
  Scenario s;
  s.algorithm = Algorithm::kAlg2;
  s.processes = 3;
  s.seed = 1;
  s.max_actions = 3;  // far too small to finish
  const ScenarioResult r = run_scenario(s);
  EXPECT_EQ(r.verdict, Verdict::kError);
  EXPECT_FALSE(r.detail.empty());
}

// ---------- crash-fault axis ----------

Scenario abd_scenario(std::uint64_t seed) {
  Scenario s;
  s.algorithm = Algorithm::kAbd;
  s.adversary = AdversaryKind::kRandom;
  s.processes = 3;
  s.seed = seed;
  return s;
}

TEST(Scenario, CrashFreeKeysKeepTheirHistoricalSpelling) {
  // The fault axis and the ablation knob must be invisible when
  // defaulted: pinned pre-fault-axis digests fold these exact keys.
  Scenario s = abd_scenario(0);
  EXPECT_EQ(s.key(), "abd/rand/p3/w2/seed0");
  s.faults = FaultPlan{FaultKind::kMinorityCrash, 7};
  EXPECT_EQ(s.key(), "abd/rand/p3/w2/fminority-c7/seed0");
  s.abd_read_write_back = false;
  EXPECT_EQ(s.key(), "abd/rand/p3/w2/nowb/fminority-c7/seed0");
  Scenario st;
  st.algorithm = Algorithm::kAlg2;
  st.processes = 5;
  st.seed = 42;
  st.faults = FaultPlan{FaultKind::kStall, 3};
  EXPECT_EQ(st.key(), "alg2/rand/p5/w2/fstall-c3/seed42");
}

TEST(Scenario, CrashRunsAreDeterministic) {
  // Same scenario (schedule seed × crash seed) => identical fingerprint,
  // verdict, and detail — the property the fault-axis digest rests on.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    for (std::uint64_t crash_seed = 0; crash_seed < 3; ++crash_seed) {
      Scenario s = abd_scenario(seed);
      s.faults = FaultPlan{FaultKind::kMinorityCrash, crash_seed};
      const ScenarioResult a = run_scenario(s);
      const ScenarioResult b = run_scenario(s);
      EXPECT_EQ(a.verdict, b.verdict) << s.key();
      EXPECT_EQ(a.steps, b.steps) << s.key();
      EXPECT_EQ(a.ops, b.ops) << s.key();
      EXPECT_EQ(a.history_hash, b.history_hash) << s.key();
      EXPECT_EQ(a.detail, b.detail) << s.key();
    }
  }
}

TEST(Scenario, MinorityCrashesBlockOrPassButNeverErrorOrViolate) {
  // ABD is correct under minority crashes (Theorem 14's regime): every
  // seeded crash schedule either still completes (kOk) or strands ops on
  // crashed nodes (kBlocked).  kError/kViolation would be a driver or
  // register bug.  The sweep must find at least one genuinely blocked
  // run, and blocked runs must have invocation-only ops fingerprinted.
  int blocked = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    for (const AdversaryKind adv :
         {AdversaryKind::kRandom, AdversaryKind::kRoundRobin}) {
      Scenario s = abd_scenario(seed);
      s.adversary = adv;
      s.faults = FaultPlan{FaultKind::kMinorityCrash, 0};
      const ScenarioResult r = run_scenario(s);
      ASSERT_TRUE(r.verdict == Verdict::kOk || r.verdict == Verdict::kBlocked)
          << s.key() << ": [" << to_string(r.verdict) << "] " << r.detail;
      if (r.verdict == Verdict::kBlocked) {
        ++blocked;
        EXPECT_NE(r.detail.find("checked clean"), std::string::npos);
      }
    }
  }
  EXPECT_GT(blocked, 0);
}

TEST(Scenario, HandBuiltBlockedByCrashScheduleIsBlocked) {
  // Hand-built blocked schedule: a reader starts, its node crashes, the
  // network drains.  The stranded read can never complete; the verdict
  // taxonomy must call this kBlocked — not kError (nothing failed) and
  // not kViolation (the history up to the block is fine).
  mp::Network net;
  mp::AbdRegister reg(net, 3, /*writer=*/0, /*initial=*/0);
  const int r = reg.begin_read(1);
  net.crash(1);
  util::Rng rng(1);
  while (net.deliver_random(rng)) {
  }
  ASSERT_EQ(reg.pending_ops(), 1);
  EXPECT_EQ(reg.op_node(r), 1);
  EXPECT_FALSE(reg.op_can_complete(r));
  ScenarioResult out;
  classify_run(reg.hl_history(), /*expect_wsl=*/true, RunEnd::kBlocked,
               "blocked: hand-built crash schedule", out);
  EXPECT_EQ(out.verdict, Verdict::kBlocked);
  EXPECT_NE(out.detail.find("hand-built"), std::string::npos);
}

TEST(Scenario, FaultsOnNonAbdConfigsAreErrors) {
  for (const Algorithm alg :
       {Algorithm::kModeled, Algorithm::kAlg2, Algorithm::kAlg4}) {
    Scenario s;
    s.algorithm = alg;
    s.faults = FaultPlan{FaultKind::kMinorityCrash, 0};
    const ScenarioResult r = run_scenario(s);
    EXPECT_EQ(r.verdict, Verdict::kError) << to_string(alg);
  }
}

// ---------- stall-fault axis ----------

TEST(Scenario, StallFaultsOnAbdAreErrors) {
  // Stalls are a simulator-family fault; ABD has the crash axis instead.
  Scenario s = abd_scenario(0);
  s.faults = FaultPlan{FaultKind::kStall, 0};
  const ScenarioResult r = run_scenario(s);
  EXPECT_EQ(r.verdict, Verdict::kError);
}

TEST(Scenario, StallRunsBlockOrPassButNeverErrorOrViolate) {
  // The registers are wait-free: live processes always finish, so every
  // stall schedule is kOk (nobody was actually stalled: p=2 has no
  // strict minority) or kBlocked (stalled ops stranded, history clean).
  int blocked = 0;
  for (const Algorithm alg :
       {Algorithm::kModeled, Algorithm::kAlg2, Algorithm::kAlg4}) {
    for (const AdversaryKind adv :
         {AdversaryKind::kRandom, AdversaryKind::kRoundRobin}) {
      for (std::uint64_t seed = 0; seed < 10; ++seed) {
        Scenario s;
        s.algorithm = alg;
        s.semantics = sim::Semantics::kLinearizable;
        s.adversary = adv;
        s.processes = 4;
        s.seed = seed;
        s.faults = FaultPlan{FaultKind::kStall, 1};
        const ScenarioResult r = run_scenario(s);
        ASSERT_TRUE(r.verdict == Verdict::kOk ||
                    r.verdict == Verdict::kBlocked)
            << s.key() << ": [" << to_string(r.verdict) << "] " << r.detail;
        if (r.verdict == Verdict::kBlocked) {
          ++blocked;
          EXPECT_NE(r.detail.find("stalled"), std::string::npos) << r.detail;
          EXPECT_NE(r.detail.find("checked clean"), std::string::npos)
              << r.detail;
        }
      }
    }
  }
  EXPECT_GT(blocked, 0);
}

TEST(Scenario, StallRunsAreDeterministic) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    for (std::uint64_t fault_seed = 0; fault_seed < 2; ++fault_seed) {
      Scenario s;
      s.algorithm = Algorithm::kAlg2;
      s.processes = 5;
      s.seed = seed;
      s.faults = FaultPlan{FaultKind::kStall, fault_seed};
      const ScenarioResult a = run_scenario(s);
      const ScenarioResult b = run_scenario(s);
      EXPECT_EQ(a.verdict, b.verdict) << s.key();
      EXPECT_EQ(a.steps, b.steps) << s.key();
      EXPECT_EQ(a.history_hash, b.history_hash) << s.key();
      EXPECT_EQ(a.detail, b.detail) << s.key();
    }
  }
}

TEST(Scenario, TwoProcessStallPlansDegenerateToFaultFreeRuns) {
  // p=2 has no strict minority: the plan freezes nobody and the run
  // completes exactly like its fault-free twin (only the key differs).
  Scenario s;
  s.algorithm = Algorithm::kAlg4;
  s.processes = 2;
  s.seed = 3;
  const ScenarioResult clean = run_scenario(s);
  s.faults = FaultPlan{FaultKind::kStall, 0};
  const ScenarioResult stalled = run_scenario(s);
  EXPECT_EQ(stalled.verdict, Verdict::kOk);
  EXPECT_EQ(clean.history_hash, stalled.history_hash);
  EXPECT_EQ(clean.steps, stalled.steps);
}

TEST(Enumerate, StallAxisMultipliesSimulatorFamiliesOnly) {
  SweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 2;
  o.faults = {FaultKind::kNone, FaultKind::kStall};
  o.crash_seeds = {0, 1, 2};
  const std::vector<Scenario> all = enumerate_scenarios(o);
  // modeled: 3 semantics × (1 none + 3 stall); alg2/alg4: 4 each;
  // abd: 1 (stall does not apply).  × 2 adversaries × 1 procs × 2 seeds.
  EXPECT_EQ(all.size(), (3u * 4u + 4u + 4u + 1u) * 2u * 1u * 2u);
  std::set<std::string> keys;
  for (const Scenario& s : all) {
    keys.insert(s.key());
    if (s.algorithm == Algorithm::kAbd) {
      EXPECT_EQ(s.faults.kind, FaultKind::kNone) << s.key();
    }
  }
  EXPECT_EQ(keys.size(), all.size());
}

TEST(Sweep, StallSweepDigestIsIndependentOfThreadsAndBatch) {
  SweepOptions o;
  o.algorithms = {Algorithm::kModeled, Algorithm::kAlg2, Algorithm::kAlg4};
  o.faults = {FaultKind::kStall};
  o.crash_seeds = {0, 1};
  o.process_counts = {3};
  o.seed_begin = 0;
  o.seed_end = 15;
  o.threads = 1;
  const SweepSummary seq = run_sweep(o);
  o.threads = 4;
  o.batch_size = 3;
  const SweepSummary par = run_sweep(o);
  EXPECT_EQ(seq.stable_text(), par.stable_text());
  EXPECT_GT(seq.blocked, 0u);
  EXPECT_EQ(seq.violations, 0u);
  EXPECT_EQ(seq.errors, 0u);
  EXPECT_EQ(seq.ok + seq.blocked, seq.scenarios);
}

TEST(Scenario, ViolationInBudgetExhaustedScheduleIsNotMasked) {
  // Regression for the verdict-masking bug: run_abd used to return
  // kError on budget exhaustion BEFORE running any checker, so a real
  // linearizability violation in a long schedule reported as an error.
  // Plant genuine violations with the no-write-back ablation, then
  // truncate the budget: the violating prefix must classify kViolation
  // even when the budget ran out.  (5 processes: with 3 servers every
  // two read quorums share the written-to server, so the ablation's
  // new/old inversion needs the wider quorum geometry to show up.)
  Scenario base = abd_scenario(0);
  base.processes = 5;
  base.abd_read_write_back = false;
  std::optional<std::uint64_t> violating_seed;
  for (std::uint64_t seed = 0; seed < 300 && !violating_seed; ++seed) {
    base.seed = seed;
    if (run_scenario(base).verdict == Verdict::kViolation) {
      violating_seed = seed;
    }
  }
  ASSERT_TRUE(violating_seed.has_value())
      << "no ablation violation found — widen the seed scan";
  base.seed = *violating_seed;
  bool masked_case_hit = false;
  for (std::uint64_t budget = 1; budget <= 600 && !masked_case_hit; ++budget) {
    base.max_actions = budget;
    const ScenarioResult r = run_scenario(base);
    // Budget-exhausted prefixes without the violating read yet are
    // honest errors; once the violation is in the recorded prefix it
    // must win over the budget classification.
    if (r.verdict == Verdict::kViolation &&
        r.detail.find("action budget") != std::string::npos) {
      masked_case_hit = true;
    }
  }
  EXPECT_TRUE(masked_case_hit)
      << "no budget-exhausted truncation reported the planted violation";
}

TEST(Scenario, HashHistoryCoversInvocationOnlyOps) {
  history::History a;
  history::History b;
  history::OpRecord w;
  w.process = 0;
  w.reg = 0;
  w.kind = history::OpKind::kWrite;
  w.value = 7;
  w.invoke = 1;
  w.response = history::kNoTime;  // pending: invocation-only
  a.add(w);
  w.value = 8;
  b.add(w);
  // Pending ops are digest material: two histories differing only in a
  // stranded op's payload must fingerprint differently.
  EXPECT_NE(hash_history(a), hash_history(b));
  EXPECT_NE(hash_history(a), hash_history(history::History{}));
}

// ---------- sweep smoke + digest determinism ----------

SweepOptions small_sweep(int threads) {
  SweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 6;
  o.process_counts = {2, 3};
  o.threads = threads;
  return o;
}

TEST(Sweep, SmokeAllScenariosPassOnFourThreads) {
  const SweepSummary sum = run_sweep(small_sweep(4));
  EXPECT_EQ(sum.scenarios, (3u + 3u) * 2u * 2u * 6u);
  EXPECT_EQ(sum.ok, sum.scenarios)
      << (sum.failures.empty() ? "" : sum.failures.front());
  EXPECT_EQ(sum.violations, 0u);
  EXPECT_EQ(sum.errors, 0u);
  EXPECT_GT(sum.total_steps, 0u);
  EXPECT_GT(sum.total_ops, 0u);
}

TEST(Sweep, BackToBackRunsEmitIdenticalDigests) {
  const SweepSummary a = run_sweep(small_sweep(4));
  const SweepSummary b = run_sweep(small_sweep(4));
  EXPECT_EQ(a.digest, b.digest);
  // Byte-identical deterministic summary section, not just the digest.
  EXPECT_EQ(a.stable_text(), b.stable_text());
}

TEST(Sweep, DigestIsIndependentOfThreadCount) {
  const SweepSummary seq = run_sweep(small_sweep(1));
  const SweepSummary par = run_sweep(small_sweep(4));
  EXPECT_EQ(seq.stable_text(), par.stable_text());
}

TEST(Sweep, DigestDependsOnTheSeedRange) {
  SweepOptions a = small_sweep(2);
  SweepOptions b = small_sweep(2);
  b.seed_begin = 6;
  b.seed_end = 12;
  EXPECT_NE(run_sweep(a).digest, run_sweep(b).digest);
}

TEST(Sweep, DigestIsIndependentOfBatchSize) {
  // Batching seeds per pool task is a submit-overhead knob only: the
  // whole deterministic section must be byte-identical at every batch
  // size, including the degenerate one-scenario-per-task shape.
  SweepOptions one = small_sweep(4);
  one.batch_size = 1;
  SweepOptions sixteen = small_sweep(4);
  sixteen.batch_size = 16;
  SweepOptions huge = small_sweep(4);
  huge.batch_size = 1'000'000;  // single task carries the whole sweep
  const std::string a = run_sweep(one).stable_text();
  EXPECT_EQ(a, run_sweep(sixteen).stable_text());
  EXPECT_EQ(a, run_sweep(huge).stable_text());
}

TEST(Enumerate, FaultAxisMultipliesAbdOnly) {
  SweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 2;
  o.faults = {FaultKind::kNone, FaultKind::kMinorityCrash};
  o.crash_seeds = {0, 1, 2};
  const std::vector<Scenario> all = enumerate_scenarios(o);
  // modeled: 3 semantics; alg2/alg4: 1 each; abd: 1 crash-free + 3
  // minority crash seeds.  × 2 adversaries × 1 process count × 2 seeds.
  EXPECT_EQ(all.size(), (3u + 1u + 1u + 4u) * 2u * 1u * 2u);
  std::set<std::string> keys;
  for (const Scenario& s : all) {
    keys.insert(s.key());
    if (s.algorithm != Algorithm::kAbd) {
      EXPECT_EQ(s.faults.kind, FaultKind::kNone) << s.key();
    }
  }
  EXPECT_EQ(keys.size(), all.size());
}

TEST(Sweep, CrashSweepDigestIsIndependentOfThreadsAndBatch) {
  SweepOptions o;
  o.algorithms = {Algorithm::kAbd};
  o.faults = {FaultKind::kNone, FaultKind::kMinorityCrash};
  o.crash_seeds = {0, 1};
  o.seed_begin = 0;
  o.seed_end = 30;
  o.threads = 1;
  const SweepSummary seq = run_sweep(o);
  o.threads = 4;
  o.batch_size = 3;
  const SweepSummary par = run_sweep(o);
  EXPECT_EQ(seq.stable_text(), par.stable_text());
  // The crash axis must actually exercise the new verdict: blocked runs
  // are counted in their own bucket and are neither violations nor
  // errors.
  EXPECT_GT(seq.blocked, 0u);
  EXPECT_EQ(seq.violations, 0u);
  EXPECT_EQ(seq.errors, 0u);
  EXPECT_EQ(seq.ok + seq.blocked, seq.scenarios);
  EXPECT_NE(seq.stable_text().find("blocked "), std::string::npos);
}

TEST(Sweep, FailureListTruncationIsNeverSilent) {
  // Unit check of the marker rendering...
  SweepSummary sum;
  sum.failures = {"k1: [blocked] x", "k2: [blocked] y"};
  sum.failures_truncated = 5;
  EXPECT_NE(sum.stable_text().find("... and 5 more non-ok"),
            std::string::npos);
  sum.failures_truncated = 0;
  EXPECT_EQ(sum.stable_text().find("... and"), std::string::npos);

  // ...and end-to-end: a crash sweep with far more than
  // kMaxReportedFailures blocked scenarios must say how many the
  // failure list left out (list cap is 16; counters stay complete).
  SweepOptions o;
  o.algorithms = {Algorithm::kAbd};
  o.faults = {FaultKind::kMinorityCrash};
  o.seed_begin = 0;
  o.seed_end = 100;
  o.threads = 4;
  const SweepSummary s = run_sweep(o);
  ASSERT_GT(s.blocked, 16u) << "crash axis produced too few blocked runs";
  EXPECT_EQ(s.failures.size(), 16u);
  EXPECT_EQ(s.failures_truncated, s.blocked - 16u);
  EXPECT_NE(s.stable_text().find("more non-ok"), std::string::npos);
}

// ---------- unreliable-network fault fabric ----------

TEST(Scenario, UnreliableFaultKeysSpellTheirAxes) {
  Scenario s = abd_scenario(0);
  s.faults = FaultPlan{FaultKind::kLossy, 2};
  s.faults.param = 300;
  EXPECT_EQ(s.key(), "abd/rand/p3/w2/flossy-d300-c2/seed0");
  s.faults = FaultPlan{FaultKind::kDuplicate, 1};
  EXPECT_EQ(s.key(), "abd/rand/p3/w2/fdup-c1/seed0");
  s.faults = FaultPlan{FaultKind::kPartition, 0};
  EXPECT_EQ(s.key(), "abd/rand/p3/w2/fpartition-c0/seed0");
  s.faults = FaultPlan{FaultKind::kMajorityCrash, 3};
  EXPECT_EQ(s.key(), "abd/rand/p3/w2/fmajority-c3/seed0");
  s.faults = FaultPlan{FaultKind::kCrashRecovery, 4};
  EXPECT_EQ(s.key(), "abd/rand/p3/w2/frecovery-c4/seed0");
  s.explore_faults = true;
  EXPECT_EQ(s.key(), "abd/rand/p3/w2/frecovery-c4/fmenu/seed0");
}

TEST(Scenario, LossyDupAndHealedPartitionRunsAllCheckOk) {
  // These regimes only delay — loss and healed cuts are repaired by
  // retransmission, duplicates by receiver-side dedup — so every run
  // must complete every op and check clean.  kBlocked here would mean
  // the retransmission layer gave up; kError that it spun the budget.
  for (const FaultKind kind :
       {FaultKind::kLossy, FaultKind::kDuplicate, FaultKind::kPartition}) {
    for (std::uint64_t seed = 0; seed < 15; ++seed) {
      for (std::uint64_t fault_seed = 0; fault_seed < 2; ++fault_seed) {
        for (const AdversaryKind adv :
             {AdversaryKind::kRandom, AdversaryKind::kRoundRobin}) {
          Scenario s = abd_scenario(seed);
          s.adversary = adv;
          s.faults = FaultPlan{kind, fault_seed};
          // The acceptance envelope's worst drop rate (p = 0.3).
          if (kind == FaultKind::kLossy) s.faults.param = 300;
          const ScenarioResult r = run_scenario(s);
          ASSERT_EQ(r.verdict, Verdict::kOk)
              << s.key() << ": [" << to_string(r.verdict) << "] " << r.detail;
          EXPECT_EQ(r.ops, 7u) << s.key();  // 2 writes + 5 reads, all done
        }
      }
    }
  }
}

TEST(Scenario, LossyRunsActuallyDropAndRetransmit) {
  // The lossy axis must not silently degenerate to a reliable run: the
  // recorded network counters prove messages were really lost (and the
  // run completed anyway).
  std::uint64_t dropped = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Scenario s = abd_scenario(seed);
    s.faults = FaultPlan{FaultKind::kLossy, 0};
    s.faults.param = 300;
    const ScenarioResult r = run_scenario(s);
    dropped += r.net_dropped;
    EXPECT_EQ(r.steps, r.net_delivered + r.net_dropped) << s.key();
  }
  EXPECT_GT(dropped, 0u);
}

TEST(Scenario, DuplicateRunsActuallyDuplicate) {
  std::uint64_t duplicated = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Scenario s = abd_scenario(seed);
    s.faults = FaultPlan{FaultKind::kDuplicate, 0};
    const ScenarioResult r = run_scenario(s);
    duplicated += r.net_duplicated;
  }
  EXPECT_GT(duplicated, 0u);
}

TEST(Scenario, MajorityCrashAlwaysBlocksAndChecksClean) {
  // A quorum dies mid-broadcast before any op can complete (the earliest
  // scheduled crash attempt is at most n+1, and no reply can be sent
  // before attempt n+1): every run must be kBlocked — never kError, and
  // never kOk — with its truncated history checked clean.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    for (std::uint64_t fault_seed = 0; fault_seed < 3; ++fault_seed) {
      Scenario s = abd_scenario(seed);
      s.faults = FaultPlan{FaultKind::kMajorityCrash, fault_seed};
      const ScenarioResult r = run_scenario(s);
      ASSERT_EQ(r.verdict, Verdict::kBlocked)
          << s.key() << ": [" << to_string(r.verdict) << "] " << r.detail;
      EXPECT_NE(r.detail.find("checked clean"), std::string::npos) << s.key();
    }
  }
}

TEST(Scenario, CrashRecoveryRunsNeverErrorOrViolate) {
  // Crash-recovery runs split between kOk (the victim was idle when it
  // died and resumed its program after recovery) and kBlocked (an op in
  // flight at crash time is abandoned — pending in the history forever,
  // reported honestly).  Both verdicts check the history clean; kError
  // (e.g. a recovered node overlapping its own abandoned op) and
  // kViolation (durable state lost on recovery) are register/driver bugs.
  int ok = 0;
  int blocked = 0;
  int abandoned_details = 0;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    for (std::uint64_t fault_seed = 0; fault_seed < 3; ++fault_seed) {
      Scenario s = abd_scenario(seed);
      s.faults = FaultPlan{FaultKind::kCrashRecovery, fault_seed};
      const ScenarioResult r = run_scenario(s);
      ASSERT_TRUE(r.verdict == Verdict::kOk || r.verdict == Verdict::kBlocked)
          << s.key() << ": [" << to_string(r.verdict) << "] " << r.detail;
      if (r.verdict == Verdict::kOk) ++ok;
      if (r.verdict == Verdict::kBlocked) {
        ++blocked;
        EXPECT_NE(r.detail.find("checked clean"), std::string::npos);
        if (r.detail.find("abandoned by crash-recovery") !=
            std::string::npos) {
          ++abandoned_details;
        }
      }
    }
  }
  // The axis must exercise both outcomes, and blocked runs must say WHY.
  EXPECT_GT(ok, 0);
  EXPECT_GT(blocked, 0);
  EXPECT_GT(abandoned_details, 0);
}

TEST(Scenario, UnreliableRunsAreDeterministic) {
  for (const FaultKind kind :
       {FaultKind::kLossy, FaultKind::kDuplicate, FaultKind::kPartition,
        FaultKind::kMajorityCrash, FaultKind::kCrashRecovery}) {
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      Scenario s = abd_scenario(seed);
      s.faults = FaultPlan{kind, seed + 1};
      if (kind == FaultKind::kLossy) s.faults.param = 250;
      const ScenarioResult a = run_scenario(s);
      const ScenarioResult b = run_scenario(s);
      EXPECT_EQ(a.verdict, b.verdict) << s.key();
      EXPECT_EQ(a.steps, b.steps) << s.key();
      EXPECT_EQ(a.history_hash, b.history_hash) << s.key();
      EXPECT_EQ(a.net_delivered, b.net_delivered) << s.key();
      EXPECT_EQ(a.net_dropped, b.net_dropped) << s.key();
      EXPECT_EQ(a.net_duplicated, b.net_duplicated) << s.key();
      EXPECT_EQ(a.detail, b.detail) << s.key();
    }
  }
}

TEST(Scenario, UnreliableFaultsOnNonAbdConfigsAreErrors) {
  for (const FaultKind kind :
       {FaultKind::kLossy, FaultKind::kDuplicate, FaultKind::kPartition,
        FaultKind::kMajorityCrash, FaultKind::kCrashRecovery}) {
    for (const Algorithm alg :
         {Algorithm::kModeled, Algorithm::kAlg2, Algorithm::kAlg4}) {
      Scenario s;
      s.algorithm = alg;
      s.faults = FaultPlan{kind, 0};
      if (kind == FaultKind::kLossy) s.faults.param = 100;
      const ScenarioResult r = run_scenario(s);
      EXPECT_EQ(r.verdict, Verdict::kError)
          << to_string(alg) << " × " << to_string(kind);
    }
  }
}

TEST(Scenario, LossyParamOutOfRangeIsAnErrorNotACrash) {
  Scenario s = abd_scenario(0);
  s.faults = FaultPlan{FaultKind::kLossy, 0};
  s.faults.param = 0;  // certain-loss/no-loss params are config bugs
  EXPECT_EQ(run_scenario(s).verdict, Verdict::kError);
  s.faults.param = 1000;
  EXPECT_EQ(run_scenario(s).verdict, Verdict::kError);
}

TEST(Enumerate, UnreliableKindsMultiplyAbdOnlyAndCarryTheDropParam) {
  SweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 2;
  o.faults = {FaultKind::kNone, FaultKind::kLossy, FaultKind::kPartition,
              FaultKind::kMajorityCrash};
  o.crash_seeds = {0, 1};
  o.drop_permille = 300;
  const std::vector<Scenario> all = enumerate_scenarios(o);
  // modeled: 3 semantics; alg2/alg4: 1 each (kNone only — the unreliable
  // kinds don't apply); abd: 1 fault-free + 3 kinds × 2 fault seeds.
  EXPECT_EQ(all.size(), (3u + 1u + 1u + 7u) * 2u * 1u * 2u);
  bool saw_param = false;
  for (const Scenario& s : all) {
    if (s.algorithm != Algorithm::kAbd) {
      EXPECT_EQ(s.faults.kind, FaultKind::kNone) << s.key();
    }
    if (s.faults.kind == FaultKind::kLossy) {
      EXPECT_EQ(s.faults.param, 300u) << s.key();
      EXPECT_NE(s.key().find("flossy-d300-c"), std::string::npos);
      saw_param = true;
    }
  }
  EXPECT_TRUE(saw_param);
}

TEST(Sweep, UnreliableSweepDigestIsIndependentOfThreadsAndBatch) {
  SweepOptions o;
  o.algorithms = {Algorithm::kAbd};
  o.faults = {FaultKind::kLossy, FaultKind::kDuplicate, FaultKind::kPartition,
              FaultKind::kMajorityCrash, FaultKind::kCrashRecovery};
  o.crash_seeds = {0, 1};
  o.seed_begin = 0;
  o.seed_end = 15;
  o.threads = 1;
  const SweepSummary seq = run_sweep(o);
  o.threads = 4;
  o.batch_size = 3;
  const SweepSummary par = run_sweep(o);
  EXPECT_EQ(seq.stable_text(), par.stable_text());
  EXPECT_EQ(seq.violations, 0u);
  EXPECT_EQ(seq.errors, 0u);
  EXPECT_GT(seq.ok, 0u);       // the repairable kinds all pass
  EXPECT_GT(seq.blocked, 0u);  // majority loss all blocks
}

TEST(Sweep, DropProbIsItsOwnDigestAxis) {
  SweepOptions o;
  o.algorithms = {Algorithm::kAbd};
  o.faults = {FaultKind::kLossy};
  o.seed_begin = 0;
  o.seed_end = 10;
  o.drop_permille = 100;
  const SweepSummary light = run_sweep(o);
  o.drop_permille = 300;
  const SweepSummary heavy = run_sweep(o);
  // Different loss rates are different scenarios (keyed), and both
  // complete everything.
  EXPECT_NE(light.digest, heavy.digest);
  EXPECT_EQ(light.ok, light.scenarios);
  EXPECT_EQ(heavy.ok, heavy.scenarios);
}

TEST(Sweep, DigestMatchesThePr1Baseline) {
  // Pinned regression digest, recorded from the PR 1 checker/engine on
  // this exact configuration (sweep_main --processes 3 --seeds 0:50
  // --threads 4).  A change here means scenario BEHAVIOUR changed — a
  // simulator, register-algorithm, or checker semantic difference — not
  // just a performance difference; bump it only with an explanation.
  SweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 50;
  o.process_counts = {3};
  o.threads = 4;
  const SweepSummary sum = run_sweep(o);
  EXPECT_EQ(sum.scenarios, 600u);
  EXPECT_EQ(sum.ok, 600u);
  EXPECT_EQ(sum.digest, 0x74043e05615bfe8fULL);
}

}  // namespace
}  // namespace rlt::sweep
