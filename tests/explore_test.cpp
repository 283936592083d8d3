// Exploration-lab tests: trace codec and replay totality, the
// record→replay→re-record fixed point, delta-debugging shrink behaviour,
// greedy-vs-random separation on the Theorem 6 game (the lab's headline
// claim), the planted-ablation counterexample pipeline end to end, and
// the thread/batch byte-stability of the aggregate summary and store.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "explore/explore.hpp"
#include "explore/policy.hpp"
#include "explore/shrink.hpp"
#include "explore/trace.hpp"
#include "sweep/store.hpp"

namespace rlt::explore {
namespace {

// ---------- trace codec ----------

TEST(Trace, EncodeDecodeRoundTrip) {
  ScheduleTrace t;
  t.choices = {0, 1, 4294967295u, 7, 0};
  EXPECT_EQ(encode_trace(t), "0,1,4294967295,7,0");
  const auto back = decode_trace(encode_trace(t));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, t);
  EXPECT_EQ(trace_hash(*back), trace_hash(t));

  const auto empty = decode_trace("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

TEST(Trace, DecodeRejectsMalformedText) {
  EXPECT_FALSE(decode_trace(",1").has_value());
  EXPECT_FALSE(decode_trace("1,").has_value());
  EXPECT_FALSE(decode_trace("1,,2").has_value());
  EXPECT_FALSE(decode_trace("1,x").has_value());
  EXPECT_FALSE(decode_trace("4294967296").has_value());  // > uint32
}

// ---------- shrinker ----------

TEST(Shrink, ReducesToTheEssentialChoicesAndReportsMinimality) {
  // Property: the trace contains at least two entries equal to 7.
  // Everything else is noise ddmin must strip; the 7s cannot be removed
  // or lowered to 0, so the fixpoint is exactly [7, 7].
  ScheduleTrace t;
  t.choices = {3, 7, 0, 9, 9, 1, 7, 2, 5, 7, 4, 4};
  const auto keep = [](const ScheduleTrace& c) {
    int sevens = 0;
    for (const std::uint32_t x : c.choices) sevens += x == 7 ? 1 : 0;
    return sevens >= 2;
  };
  const ShrinkResult r = shrink(t, keep, 100000);
  EXPECT_TRUE(r.locally_minimal);
  EXPECT_EQ(r.trace.choices, (std::vector<std::uint32_t>{7, 7}));
  EXPECT_GT(r.probes, 0u);
}

TEST(Shrink, RespectsTheProbeBudget) {
  ScheduleTrace t;
  t.choices.assign(64, 5);
  std::uint64_t calls = 0;
  const auto keep = [&calls](const ScheduleTrace& c) {
    ++calls;
    return c.choices.size() >= 64;  // nothing is removable
  };
  const ShrinkResult r = shrink(t, keep, 10);
  EXPECT_LE(r.probes, 10u);
  EXPECT_EQ(r.probes, calls);
  EXPECT_FALSE(r.locally_minimal);
  EXPECT_TRUE(keep(r.trace));  // never hands back a non-witness
}

// ---------- record → replay → re-record ----------

ExploreInstance rounds_instance(std::uint64_t seed) {
  ExploreInstance e;
  e.objective = Objective::kRounds;
  e.family = term::Family::kGame;
  e.processes = 4;
  e.max_rounds = 8;
  e.seed = seed;
  e.search_budget = 2;
  e.shrink_budget = 0;
  return e;
}

ExploreInstance ablation_instance(std::uint64_t seed) {
  ExploreInstance e;
  e.objective = Objective::kViolation;
  e.algorithm = sweep::Algorithm::kAbd;
  e.processes = 5;
  e.writes_per_process = 2;
  e.seed = seed;
  e.search_budget = 32;
  e.abd_read_write_back = false;
  return e;
}

TEST(Replay, RecordReplayRerecordIsAFixedPoint) {
  for (const Objective obj : {Objective::kRounds, Objective::kViolation}) {
    ExploreInstance e =
        obj == Objective::kRounds ? rounds_instance(3) : ablation_instance(3);
    // An empty trace is pure fallback randomness: the recording of that
    // run is the schedule.  Replaying the recording with a DIFFERENT
    // fallback seed must reproduce the run bit for bit (the fallback is
    // never consulted: the trace covers every decision) and re-record
    // the identical trace.
    const ReplayReport first = replay_trace(e, ScheduleTrace{}, 0xAAAA);
    ASSERT_FALSE(first.effective.empty());
    const ReplayReport second = replay_trace(e, first.effective, 0xBBBB);
    EXPECT_EQ(second.fingerprint, first.fingerprint);
    EXPECT_EQ(second.score, first.score);
    EXPECT_EQ(second.steps, first.steps);
    EXPECT_EQ(second.effective, first.effective);
  }
}

TEST(Replay, IsTotalOnArbitraryChoiceSequences) {
  // Any byte soup is a valid schedule: indices wrap mod the menu, the
  // fallback finishes the run.  Deterministic given (trace, seed).
  ExploreInstance e = rounds_instance(1);
  ScheduleTrace garbage;
  for (std::uint32_t i = 0; i < 40; ++i) {
    garbage.choices.push_back(0xDEAD0000u + i * 977u);
  }
  const ReplayReport a = replay_trace(e, garbage, 42);
  const ReplayReport b = replay_trace(e, garbage, 42);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.effective, b.effective);
}

// ---------- the headline: search beats sampling ----------

TEST(Explore, GreedyAdversaryOutperformsRandomOnTheGame) {
  // Theorem 6's regime: merely linearizable game registers.  Within the
  // same per-run step budget and the same search budget, the greedy
  // adaptive adversary must keep the game alive strictly longer than
  // budgeted random restarts — in fact it reaches the round cap without
  // the game ever deciding (score = max_rounds + 1) on every seed.
  ExploreOptions o;
  o.objective = Objective::kRounds;
  o.families = {term::Family::kGame};
  o.round_budgets = {12};
  o.process_counts = {4};
  o.seed_begin = 0;
  o.seed_end = 3;
  o.search_budget = 4;
  o.shrink_budget = 0;
  o.strategy = Strategy::kGreedy;
  const ExploreSummary greedy = run_explore(o);
  o.strategy = Strategy::kRandom;
  const ExploreSummary random = run_explore(o);
  ASSERT_EQ(greedy.errors, 0u);
  ASSERT_EQ(random.errors, 0u);
  EXPECT_EQ(greedy.best_score, 13u);  // cap survival, never decided
  EXPECT_GT(greedy.best_score, random.best_score);
}

TEST(Explore, GreedyTrapsTheComposedAlgorithmInTheGame) {
  // Corollary 9's negative side, found by search: with linearizable game
  // registers A' = (game ; consensus) never reaches consensus.
  ExploreInstance e;
  e.objective = Objective::kRounds;
  e.family = term::Family::kComposed;
  e.processes = 4;
  e.max_rounds = 8;
  e.seed = 0;
  e.search_budget = 1;
  e.shrink_budget = 0;
  const ExploreOutcome out = run_explore_instance(e);
  ASSERT_FALSE(out.error) << out.detail;
  EXPECT_EQ(out.best_score, 9u);  // cap + 1: trapped, never decided
}

// ---------- the counterexample pipeline ----------

TEST(Explore, PlantedAblationViolationIsFoundShrunkAndReplayable) {
  const ExploreInstance e = ablation_instance(0);
  const ExploreOutcome out = run_explore_instance(e);
  ASSERT_FALSE(out.error) << out.detail;
  // Found: the no-write-back ablation breaks linearizability and the
  // greedy quorum-steering schedule exhibits it.
  EXPECT_EQ(out.found_rank, 3) << out.detail;
  // Shrunk: the witness is reduced and the ddmin fixpoint was reached.
  EXPECT_TRUE(out.shrunk);
  EXPECT_TRUE(out.locally_minimal);
  EXPECT_LT(out.best_trace.size(), out.unshrunk_len);
  // Replayable: the persisted trace reproduces the violation verdict and
  // the history fingerprint byte-identically.
  const ReplayReport rep = replay_trace(e, out.best_trace, out.fallback_seed);
  EXPECT_EQ(rep.rank, 3);
  EXPECT_EQ(rep.verdict, "VIOLATION");
  EXPECT_EQ(rep.fingerprint, out.fingerprint);
  EXPECT_EQ(rep.score, out.best_score);
  // Locally minimal, verified the hard way: dropping ANY single choice
  // loses the violation.
  for (std::size_t i = 0; i < out.best_trace.size(); ++i) {
    ScheduleTrace candidate = out.best_trace;
    candidate.choices.erase(candidate.choices.begin() +
                            static_cast<std::ptrdiff_t>(i));
    EXPECT_NE(replay_trace(e, candidate, out.fallback_seed).rank, 3)
        << "choice " << i << " is removable — not locally minimal";
  }
}

TEST(Explore, CorrectAlgorithmsSurviveTheSearch) {
  // The assurance direction: with the write-back in place (and for
  // Algorithm 2), the same search finds nothing.
  for (const sweep::Algorithm alg :
       {sweep::Algorithm::kAbd, sweep::Algorithm::kAlg2}) {
    ExploreInstance e = ablation_instance(0);
    e.algorithm = alg;
    e.abd_read_write_back = true;
    e.processes = alg == sweep::Algorithm::kAbd ? 5 : 3;
    const ExploreOutcome out = run_explore_instance(e);
    EXPECT_FALSE(out.error) << out.detail;
    EXPECT_EQ(out.found_rank, 0) << sweep::to_string(alg) << ": "
                                 << out.detail;
  }
}

// ---------- fault-schedule menus ----------

TEST(Explore, FaultMenuStillFindsThePlantedAblation) {
  // With drop/dup/crash/recover injections on the schedule menu, greedy
  // must still steer to the nowb linearizability violation — the fault
  // choices widen the menu but never hide the planted bug.
  ExploreInstance e = ablation_instance(0);
  e.fault_menu = true;
  EXPECT_EQ(e.key(), "explore/viol/abd/greedy/p5/w2/b32/nowb/fmenu/seed0");
  const ExploreOutcome out = run_explore_instance(e);
  ASSERT_FALSE(out.error) << out.detail;
  EXPECT_EQ(out.found_rank, 3) << out.detail;
  EXPECT_TRUE(out.shrunk);
  const ReplayReport rep = replay_trace(e, out.best_trace, out.fallback_seed);
  EXPECT_EQ(rep.rank, 3);
  EXPECT_EQ(rep.verdict, "VIOLATION");
  EXPECT_EQ(rep.fingerprint, out.fingerprint);
}

TEST(Explore, FaultMenuNeverFakesAViolationOnCorrectAbd) {
  // Honest degraded-mode verdicts: crashing nodes mid-run may strand ops
  // (rank 2, blocked) but must never manufacture a linearizability
  // violation against the correct write-back ABD.
  ExploreInstance e = ablation_instance(0);
  e.abd_read_write_back = true;
  e.fault_menu = true;
  const ExploreOutcome out = run_explore_instance(e);
  EXPECT_FALSE(out.error) << out.detail;
  EXPECT_LT(out.found_rank, 3) << out.detail;
}

TEST(Explore, FaultMenuRecordsRoundTripAndOldLinesDefaultOff) {
  ExploreOptions o;
  o.objective = Objective::kViolation;
  o.algorithms = {sweep::Algorithm::kAbd};
  o.abd_read_write_back = false;
  o.fault_menu = true;
  o.process_counts = {5};
  o.seed_begin = 0;
  o.seed_end = 1;
  o.search_budget = 8;
  o.shrink_budget = 512;
  sweep::StringSink sink;
  (void)run_explore(o, nullptr, &sink);
  const std::string line = sink.text().substr(0, sink.text().find('\n'));
  EXPECT_NE(line.find("\"fault_menu\":true"), std::string::npos) << line;
  std::string error;
  const auto persisted = parse_explore_record(line, &error);
  ASSERT_TRUE(persisted.has_value()) << error << "\n" << line;
  EXPECT_TRUE(persisted->instance.fault_menu);
  EXPECT_EQ(persisted->instance.key(),
            "explore/viol/abd/greedy/p5/w2/b8/nowb/fmenu/seed0");
  const ReplayReport rep = replay_trace(
      persisted->instance, persisted->trace, persisted->fallback_seed);
  EXPECT_EQ(rep.fingerprint, persisted->fingerprint);
  // Pre-fault-fabric store lines carry no fault_menu field: parse as off.
  std::string legacy = line;
  const std::size_t at = legacy.find(",\"fault_menu\":true");
  ASSERT_NE(at, std::string::npos);
  legacy.erase(at, std::string(",\"fault_menu\":true").size());
  const auto old = parse_explore_record(legacy, &error);
  ASSERT_TRUE(old.has_value()) << error << "\n" << legacy;
  EXPECT_FALSE(old->instance.fault_menu);
}

// ---------- determinism + persistence ----------

TEST(Explore, SummaryAndStoreAreByteStableAcrossThreadsAndBatch) {
  ExploreOptions o;
  o.objective = Objective::kViolation;
  o.algorithms = {sweep::Algorithm::kAbd};
  o.abd_read_write_back = false;  // exercise find + shrink under the pool
  o.process_counts = {5};
  o.seed_begin = 0;
  o.seed_end = 4;
  o.search_budget = 8;
  o.shrink_budget = 512;
  o.threads = 1;
  sweep::StringSink a;
  const ExploreSummary seq = run_explore(o, nullptr, &a);
  o.threads = 4;
  o.batch_size = 3;
  sweep::StringSink b;
  const ExploreSummary par = run_explore(o, nullptr, &b);
  EXPECT_EQ(seq.stable_text(), par.stable_text());
  EXPECT_EQ(seq.digest, par.digest);
  EXPECT_EQ(a.text(), b.text());
  EXPECT_FALSE(a.text().empty());
}

TEST(Explore, PersistedRecordsParseAndReplay) {
  ExploreOptions o;
  o.objective = Objective::kViolation;
  o.algorithms = {sweep::Algorithm::kAbd};
  o.abd_read_write_back = false;
  o.process_counts = {5};
  o.seed_begin = 0;
  o.seed_end = 1;
  o.search_budget = 8;
  o.shrink_budget = 512;
  sweep::StringSink sink;
  (void)run_explore(o, nullptr, &sink);
  const std::string line = sink.text().substr(0, sink.text().find('\n'));
  std::string error;
  const auto persisted = parse_explore_record(line, &error);
  ASSERT_TRUE(persisted.has_value()) << error << "\n" << line;
  EXPECT_EQ(persisted->instance.key(),
            "explore/viol/abd/greedy/p5/w2/b8/nowb/seed0");
  const ReplayReport rep = replay_trace(
      persisted->instance, persisted->trace, persisted->fallback_seed);
  EXPECT_EQ(rep.fingerprint, persisted->fingerprint);
  EXPECT_EQ(rep.score, persisted->best_score);
  // Non-explore records are skipped gracefully.
  EXPECT_FALSE(parse_explore_record("{\"key\":\"x\",\"mode\":\"term\"}",
                                    &error)
                   .has_value());
}

TEST(Explore, PersistedRecordWithSeedAboveUint64MaxIsRejected) {
  // A seed of 2^64 must not wrap to seed 0 and "reproduce" that run.
  ExploreOptions o;
  o.families = {term::Family::kGame};
  o.round_budgets = {6};
  o.seed_begin = 0;
  o.seed_end = 1;
  o.search_budget = 2;
  o.shrink_budget = 16;
  sweep::StringSink sink;
  (void)run_explore(o, nullptr, &sink);
  std::string line = sink.text().substr(0, sink.text().find('\n'));
  std::string error;
  ASSERT_TRUE(parse_explore_record(line, &error).has_value()) << error;
  const std::size_t at = line.find("\"seed\":0,");
  ASSERT_NE(at, std::string::npos) << line;
  line.replace(at, 9, "\"seed\":18446744073709551616,");
  EXPECT_FALSE(parse_explore_record(line, &error).has_value()) << line;
}

TEST(Explore, EnumerationValidatesItsAxes) {
  ExploreOptions o;
  o.seed_begin = 5;
  o.seed_end = 5;  // empty seed range
  EXPECT_THROW((void)enumerate_explore_instances(o), std::exception);
  ExploreOptions bad_budget;
  bad_budget.search_budget = 0;
  EXPECT_THROW((void)enumerate_explore_instances(bad_budget),
               std::exception);
  ExploreOptions no_families;
  no_families.objective = Objective::kRounds;
  no_families.families = {};
  EXPECT_THROW((void)enumerate_explore_instances(no_families),
               std::exception);
  // Instance keys are unique across the cross-product.
  ExploreOptions ok;
  ok.objective = Objective::kRounds;
  ok.families = {term::Family::kGame, term::Family::kSharedCoin};
  ok.round_budgets = {8, 16};
  ok.process_counts = {3, 4};
  ok.seed_begin = 0;
  ok.seed_end = 2;
  const std::vector<ExploreInstance> all = enumerate_explore_instances(ok);
  EXPECT_EQ(all.size(), 2u * 2u * 2u * 2u);
  std::set<std::string> keys;
  for (const ExploreInstance& e : all) keys.insert(e.key());
  EXPECT_EQ(keys.size(), all.size());
}

}  // namespace
}  // namespace rlt::explore
