// Tests for the termination lab (src/term/): per-scenario determinism,
// the golden termination distributions the paper promises (Theorem 6
// scripted schedules never terminate; the composed A' always decides),
// the explore probe's game-register semantics axis, the termination
// sweep's digest guarantees, and the persisted result store (canonical
// JSONL records, byte-stable across thread counts).
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "game/theorem6_adversary.hpp"
#include "sim/adversary.hpp"
#include "sweep/store.hpp"
#include "sweep/sweep.hpp"
#include "term/term_scenario.hpp"
#include "term/term_sweep.hpp"

namespace rlt::term {
namespace {

TermScenario make(Family f, TermAdversary a, std::uint64_t seed,
                  int processes = 4, int rounds = 64) {
  TermScenario s;
  s.family = f;
  s.adversary = a;
  s.processes = processes;
  s.seed = seed;
  s.max_rounds = rounds;
  return s;
}

/// Probes `f` at p4/r16 on seeds 0..9 with the game registers under
/// `semantics`, driven by the Theorem 6 script (`scripted`) or by a
/// uniformly random adversary.  The adversary seeds are salted as in
/// run_scripted_game / run_random_game: a script seeded with the
/// scheduler's own seed would commit its write order from the very
/// stream the coin comes from, so it would always guess the coin.
std::vector<TermProbe> probe_seeds(Family f, sim::Semantics semantics,
                                   bool scripted) {
  std::vector<TermProbe> out;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    TermProbeSpec spec;
    spec.family = f;
    spec.processes = 4;
    spec.max_rounds = 16;
    spec.seed = seed;
    spec.game_semantics = semantics;
    if (scripted) {
      game::GameConfig cfg;
      cfg.n = spec.processes;
      cfg.max_rounds = spec.max_rounds;
      game::GameScriptAdversary adv(cfg, game::CommitStrategy::kRandomOrder,
                                    seed ^ 0x5DEECE66DULL);
      out.push_back(run_term_probe(spec, adv));
    } else {
      sim::RandomAdversary adv(seed ^ 0x9E3779B97F4A7C15ULL);
      out.push_back(run_term_probe(spec, adv));
    }
  }
  return out;
}

// ---------- scenario basics ----------

TEST(TermScenario, KeySpellingIsStable) {
  EXPECT_EQ(make(Family::kGame, TermAdversary::kScripted, 42, 5, 40).key(),
            "term/game/scripted/p5/r40/seed42");
  EXPECT_EQ(make(Family::kConsensus, TermAdversary::kStalling, 7).key(),
            "term/consensus/stall/p4/r64/seed7");
  EXPECT_EQ(make(Family::kSharedCoin, TermAdversary::kRandom, 0).key(),
            "term/coin/rand/p4/r64/seed0");
  EXPECT_EQ(make(Family::kComposed, TermAdversary::kScripted, 1).key(),
            "term/composed/scripted/p4/r64/seed1");
}

TEST(TermScenario, RerunIsBitIdentical) {
  for (const Family f : {Family::kConsensus, Family::kComposed,
                         Family::kSharedCoin, Family::kGame}) {
    for (const TermAdversary adv :
         {TermAdversary::kScripted, TermAdversary::kRandom,
          TermAdversary::kStalling}) {
      if (!combination_valid(f, adv)) continue;
      const TermScenario s = make(f, adv, 12345);
      const TermRecord a = run_term_scenario(s);
      const TermRecord b = run_term_scenario(s);
      EXPECT_FALSE(a.error) << s.key() << ": " << a.detail;
      EXPECT_EQ(a.terminated, b.terminated) << s.key();
      EXPECT_EQ(a.capped, b.capped) << s.key();
      EXPECT_EQ(a.rounds, b.rounds) << s.key();
      EXPECT_EQ(a.stalled, b.stalled) << s.key();
      EXPECT_EQ(a.coin_flips, b.coin_flips) << s.key();
      EXPECT_EQ(a.steps, b.steps) << s.key();
      EXPECT_EQ(a.outcome_hash, b.outcome_hash) << s.key();
      EXPECT_EQ(a.detail, b.detail) << s.key();
    }
  }
}

TEST(TermScenario, InvalidCombinationIsAnErrorNotACrash) {
  for (const Family f : {Family::kConsensus, Family::kSharedCoin}) {
    const TermRecord r =
        run_term_scenario(make(f, TermAdversary::kScripted, 0));
    EXPECT_TRUE(r.error) << to_string(f);
    EXPECT_FALSE(r.terminated) << to_string(f);
    EXPECT_NE(r.detail.find("scripted"), std::string::npos) << r.detail;
  }
}

TEST(TermScenario, GameFamiliesNeedThreeProcesses) {
  for (const Family f : {Family::kGame, Family::kComposed}) {
    const TermRecord r =
        run_term_scenario(make(f, TermAdversary::kRandom, 0, /*processes=*/2));
    EXPECT_TRUE(r.error) << to_string(f);
  }
  // The consensus/coin families are fine with 2.
  const TermRecord ok = run_term_scenario(
      make(Family::kConsensus, TermAdversary::kRandom, 0, /*processes=*/2));
  EXPECT_FALSE(ok.error) << ok.detail;
  EXPECT_TRUE(ok.terminated) << ok.detail;
}

// ---------- golden distributions ----------

TEST(TermGolden, Theorem6ScriptedGameNeverTerminatesWithinBudget) {
  // The paper's headline: against merely linearizable registers the
  // scripted strong adversary keeps every process in the game forever.
  // Every seed, every swept size: capped at the round budget, never
  // terminated, zero errors.
  for (const int n : {4, 5}) {
    for (std::uint64_t seed = 0; seed < 15; ++seed) {
      const TermRecord r = run_term_scenario(
          make(Family::kGame, TermAdversary::kScripted, seed, n,
               /*rounds=*/20));
      ASSERT_FALSE(r.error) << r.detail;
      EXPECT_FALSE(r.terminated) << "n=" << n << " seed=" << seed;
      EXPECT_TRUE(r.capped) << "n=" << n << " seed=" << seed;
      EXPECT_EQ(r.rounds, 0);
      EXPECT_GT(r.steps, 0u);
    }
  }
}

TEST(TermGolden, ComposedDecidesOnEverySeedUnderEveryAdversary) {
  // The positive side of Corollary 9: A' = (game; consensus) terminates —
  // scripted against WSL game registers, random/stalling against atomic
  // ones.  "Terminated" under stalling means every live process decided.
  for (const TermAdversary adv :
       {TermAdversary::kScripted, TermAdversary::kRandom,
        TermAdversary::kStalling}) {
    for (std::uint64_t seed = 0; seed < 15; ++seed) {
      const TermRecord r =
          run_term_scenario(make(Family::kComposed, adv, seed));
      ASSERT_FALSE(r.error) << to_string(adv) << " seed " << seed << ": "
                            << r.detail;
      EXPECT_TRUE(r.terminated) << to_string(adv) << " seed " << seed;
      EXPECT_TRUE(r.safety_ok) << to_string(adv) << " seed " << seed;
      EXPECT_GT(r.rounds, 0) << to_string(adv) << " seed " << seed;
      if (adv == TermAdversary::kStalling) {
        EXPECT_GT(r.stalled, 0) << "seed " << seed;
      }
    }
  }
}

TEST(TermGolden, ConsensusAndCoinTerminateUnderStalls) {
  // Wait-freedom of task T and the drift coin: a stalled strict minority
  // never blocks the live processes.
  for (const Family f : {Family::kConsensus, Family::kSharedCoin}) {
    for (std::uint64_t seed = 0; seed < 15; ++seed) {
      const TermRecord r =
          run_term_scenario(make(f, TermAdversary::kStalling, seed));
      ASSERT_FALSE(r.error) << to_string(f) << " seed " << seed << ": "
                            << r.detail;
      EXPECT_TRUE(r.terminated) << to_string(f) << " seed " << seed;
      EXPECT_TRUE(r.safety_ok) << to_string(f) << " seed " << seed;
      EXPECT_EQ(r.stalled, 1) << "n=4 has exactly one strict-minority "
                              << "victim";
    }
  }
}

// ---------- enumeration ----------

// ---------- explore probe: the game-register semantics axis ----------

TEST(TermProbe, ScriptNeverDecidesOnLinearizableGameRegisters) {
  for (const Family f : {Family::kGame, Family::kComposed}) {
    SCOPED_TRACE(to_string(f));
    for (const TermProbe& p :
         probe_seeds(f, sim::Semantics::kLinearizable, /*scripted=*/true)) {
      EXPECT_FALSE(p.decided);
      EXPECT_EQ(p.rounds_reached, 16);
    }
  }
}

TEST(TermProbe, ScriptDecidesOnWriteStrongGameRegisters) {
  for (const Family f : {Family::kGame, Family::kComposed}) {
    SCOPED_TRACE(to_string(f));
    for (const TermProbe& p :
         probe_seeds(f, sim::Semantics::kWriteStrong, /*scripted=*/true)) {
      EXPECT_TRUE(p.decided);
    }
  }
}

TEST(TermProbe, RandomAdversaryDecidesOnAtomicGameRegisters) {
  for (const Family f : {Family::kGame, Family::kComposed}) {
    SCOPED_TRACE(to_string(f));
    for (const TermProbe& p :
         probe_seeds(f, sim::Semantics::kAtomic, /*scripted=*/false)) {
      EXPECT_TRUE(p.decided);
    }
  }
}

TEST(TermEnumerate, SkipsInvalidPairsAndKeepsKeysUnique) {
  TermSweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 3;
  o.process_counts = {4, 5};
  o.round_budgets = {32, 64};
  // 4 families × 3 adversaries minus the 2 invalid scripted pairs = 10
  // valid pairs, × 2 process counts × 2 round budgets × 3 seeds.
  const std::vector<TermScenario> all = enumerate_term_scenarios(o);
  EXPECT_EQ(all.size(), 10u * 2u * 2u * 3u);
  std::set<std::string> keys;
  for (const TermScenario& s : all) {
    EXPECT_TRUE(combination_valid(s.family, s.adversary)) << s.key();
    keys.insert(s.key());
  }
  EXPECT_EQ(keys.size(), all.size());
  // Seeds are the outermost axis.
  EXPECT_EQ(all.front().seed, 0u);
  EXPECT_EQ(all.back().seed, 2u);
}

// ---------- sweep digest + aggregate ----------

TermSweepOptions small_sweep(int threads) {
  TermSweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 6;
  o.threads = threads;
  return o;
}

TEST(TermSweep, SmokeCountsAddUp) {
  const TermSummary sum = run_term_sweep(small_sweep(4));
  EXPECT_EQ(sum.scenarios, 10u * 6u);
  EXPECT_EQ(sum.errors, 0u)
      << (sum.failures.empty() ? "" : sum.failures.front());
  EXPECT_EQ(sum.safety_violations, 0u);
  // The game/scripted slice is capped (Theorem 6); everything else
  // terminates on these seeds.
  EXPECT_EQ(sum.capped, 6u);
  EXPECT_EQ(sum.terminated, sum.scenarios - 6u);
  EXPECT_GT(sum.total_steps, 0u);
  EXPECT_GT(sum.total_coin_flips, 0u);
  ASSERT_FALSE(sum.tail.empty());
  // Capped runs outlast every k: the tail never drops below them.
  for (const TailPoint& t : sum.tail) {
    EXPECT_GE(t.over, sum.capped) << "k=" << t.k;
  }
}

TEST(TermSweep, DigestIsIndependentOfThreadsAndBatch) {
  const TermSummary seq = run_term_sweep(small_sweep(1));
  TermSweepOptions par = small_sweep(4);
  par.batch_size = 3;
  const TermSummary con = run_term_sweep(par);
  EXPECT_EQ(seq.stable_text(), con.stable_text());
  EXPECT_EQ(seq.digest, con.digest);
}

TEST(TermSweep, DigestDependsOnTheAxes) {
  const TermSummary base = run_term_sweep(small_sweep(2));
  TermSweepOptions rounds = small_sweep(2);
  rounds.round_budgets = {32};
  EXPECT_NE(base.digest, run_term_sweep(rounds).digest);
  TermSweepOptions seeds = small_sweep(2);
  seeds.seed_begin = 6;
  seeds.seed_end = 12;
  EXPECT_NE(base.digest, run_term_sweep(seeds).digest);
}

TEST(TermSweep, DecisionRoundHistogramsFoldStably) {
  const TermSummary seq = run_term_sweep(small_sweep(1));
  TermSweepOptions par = small_sweep(4);
  par.batch_size = 2;
  const TermSummary con = run_term_sweep(par);
  ASSERT_EQ(seq.hists.size(), 4u);  // every family present
  ASSERT_EQ(con.hists.size(), seq.hists.size());
  std::uint64_t terminated = 0;
  std::uint64_t capped = 0;
  for (std::size_t i = 0; i < seq.hists.size(); ++i) {
    EXPECT_EQ(seq.hists[i].family, con.hists[i].family);
    EXPECT_EQ(seq.hists[i].buckets, con.hists[i].buckets);
    EXPECT_EQ(seq.hists[i].capped, con.hists[i].capped);
    std::uint64_t sum = 0;
    for (const std::uint64_t b : seq.hists[i].buckets) sum += b;
    EXPECT_EQ(sum, seq.hists[i].terminated);
    terminated += sum;
    capped += seq.hists[i].capped;
  }
  // Buckets partition the terminated runs; the capped column holds the
  // scripted Theorem 6 slice (6 seeds, never decides).
  EXPECT_EQ(terminated, seq.terminated);
  EXPECT_EQ(capped, 6u);
  EXPECT_NE(seq.stable_text().find("hist game capped 6"), std::string::npos)
      << seq.stable_text();
}

TEST(TermSweep, StableTextUsesIntegerRendering) {
  // 5/8 scenarios terminated must print as 0.6250 (integer math, not
  // locale- or FP-formatting-dependent).
  TermSweepOptions o;
  o.families = {Family::kGame};
  o.adversaries = {TermAdversary::kScripted, TermAdversary::kRandom};
  o.seed_begin = 0;
  o.seed_end = 4;
  const TermSummary sum = run_term_sweep(o);
  ASSERT_EQ(sum.scenarios, 8u);
  ASSERT_EQ(sum.terminated, 4u);  // the random half terminates
  EXPECT_NE(sum.stable_text().find("termination_rate 0.5000"),
            std::string::npos)
      << sum.stable_text();
}

// ---------- result store ----------

TEST(TermStore, RecordsAreCanonicalJsonInEnumerationOrder) {
  TermSweepOptions o = small_sweep(2);
  sweep::StringSink sink;
  (void)run_term_sweep(o, nullptr, &sink);
  const std::vector<TermScenario> scenarios = enumerate_term_scenarios(o);
  // One line per scenario, each starting with the scenario's key, then
  // one per-family decision-round histogram record per family present.
  std::istringstream is(sink.text());
  std::string line;
  std::size_t i = 0;
  std::size_t hists = 0;
  while (std::getline(is, line)) {
    if (i < scenarios.size()) {
      const std::string prefix = "{\"gi\":" + std::to_string(i) +
                                 ",\"key\":\"" + scenarios[i].key() +
                                 "\",\"mode\":\"term\",";
      EXPECT_EQ(line.compare(0, prefix.size(), prefix), 0)
          << "line " << i << ": " << line;
    } else {
      EXPECT_EQ(line.compare(0, 18, "{\"key\":\"term-hist/"), 0)
          << "trailer " << i << ": " << line;
      EXPECT_NE(line.find("\"mode\":\"term-hist\""), std::string::npos);
      ++hists;
    }
    EXPECT_EQ(line.back(), '}');
    ++i;
  }
  EXPECT_EQ(i - hists, scenarios.size());
  EXPECT_EQ(hists, 4u);  // all four families present in the small sweep
}

TEST(TermStore, BytesAreIndependentOfThreadsAndBatch) {
  sweep::StringSink a;
  (void)run_term_sweep(small_sweep(1), nullptr, &a);
  TermSweepOptions par = small_sweep(4);
  par.batch_size = 2;
  sweep::StringSink b;
  (void)run_term_sweep(par, nullptr, &b);
  EXPECT_EQ(a.text(), b.text());
  EXPECT_FALSE(a.text().empty());
}

TEST(TermStore, SafetySweepStoreIsAlsoByteStable) {
  sweep::SweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 5;
  o.faults = {sweep::FaultKind::kNone, sweep::FaultKind::kMinorityCrash,
              sweep::FaultKind::kStall};
  o.threads = 1;
  sweep::StringSink a;
  (void)sweep::run_sweep(o, nullptr, &a);
  o.threads = 4;
  o.batch_size = 3;
  sweep::StringSink b;
  (void)sweep::run_sweep(o, nullptr, &b);
  EXPECT_EQ(a.text(), b.text());
  // Every record carries the safety mode marker and a verdict.
  EXPECT_NE(a.text().find("\"mode\":\"safety\""), std::string::npos);
  EXPECT_NE(a.text().find("\"verdict\":\"blocked\""), std::string::npos);
}

TEST(TermStore, JsonEscapingIsRfc8259) {
  sweep::Record r;
  r.str("key", "a\"b\\c\nd\te\x01" "f");
  EXPECT_EQ(r.json(), "{\"key\":\"a\\\"b\\\\c\\nd\\te\\u0001f\"}");
  sweep::Record r2;
  r2.u64("n", 42).boolean("t", true).boolean("f", false).hex("h", 0xabULL);
  EXPECT_EQ(r2.json(),
            "{\"n\":42,\"t\":true,\"f\":false,"
            "\"h\":\"0x00000000000000ab\"}");
}

}  // namespace
}  // namespace rlt::term
