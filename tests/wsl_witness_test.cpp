// Witness-first write strong-linearizability checks must never change a
// verdict: the witness path (checker::check_write_strong_linearizable
// with a WslWitness) agrees with the witness-free tree search on every
// sweep history, rejects bad witnesses without throwing, and lets the
// tree search decide after a rejection.  Also pins Claim 49.1: one run
// of Algorithm 3 serves as the witness for every prefix.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "checker/lin_checker.hpp"
#include "checker/wsl_checker.hpp"
#include "history/history.hpp"
#include "mp/abd.hpp"
#include "mp/f_star.hpp"
#include "registers/alg2_register.hpp"
#include "registers/alg3_linearizer.hpp"
#include "sim/adversary.hpp"
#include "sim/scheduler.hpp"
#include "sweep/scenario.hpp"
#include "util/rng.hpp"

namespace rlt {
namespace {

using checker::WslWitness;
using checker::WslWitnessOutcome;
using history::History;
using history::OpKind;
using history::OpRecord;
using history::Time;

// ---- differential oracle on the sweep's own histories --------------------

struct OracleCase {
  sweep::Algorithm algorithm;
  int processes;
  int writes;
  sweep::FaultKind fault;
};

/// gtest's default rendering of an OracleCase, which ends up in the ctest
/// names, dumps its 16 bytes, padding included; padding bytes hold
/// whatever the build left there, so the names changed from build to
/// build.  Print the same dump with the padding zeroed: the names keep
/// their form and no longer vary.
void PrintTo(const OracleCase& c, std::ostream* os) {
  std::array<unsigned char, sizeof(OracleCase)> bytes{};
  const auto put = [&bytes](std::size_t offset, const auto& field) {
    std::memcpy(bytes.data() + offset, &field, sizeof field);
  };
  put(offsetof(OracleCase, algorithm), c.algorithm);
  put(offsetof(OracleCase, processes), c.processes);
  put(offsetof(OracleCase, writes), c.writes);
  put(offsetof(OracleCase, fault), c.fault);
  std::string dump;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    char hex[4];
    std::snprintf(hex, sizeof hex, "%s%02X",
                  i == 0 ? "" : (i % 2 == 0 ? " " : "-"), bytes[i]);
    dump += hex;
  }
  *os << bytes.size() << "-byte object <" << dump << '>';
}

std::string case_name(const testing::TestParamInfo<OracleCase>& info) {
  const OracleCase& c = info.param;
  return std::string(sweep::to_string(c.algorithm)) + "_p" +
         std::to_string(c.processes) + "w" + std::to_string(c.writes) + "_" +
         sweep::to_string(c.fault);
}

class WitnessOracle : public testing::TestWithParam<OracleCase> {};

/// Runs the case's corpus (both adversaries, seeds 0:300) and hands each
/// scenario with its recorded run to `fn`.
template <typename Fn>
void for_each_run(const OracleCase& c, const Fn& fn) {
  for (const auto adversary :
       {sweep::AdversaryKind::kRoundRobin, sweep::AdversaryKind::kRandom}) {
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
      sweep::Scenario s;
      s.algorithm = c.algorithm;
      s.semantics = sim::Semantics::kWriteStrong;
      s.adversary = adversary;
      s.processes = c.processes;
      s.writes_per_process = c.writes;
      s.seed = seed;
      s.faults.kind = c.fault;
      s.faults.seed = seed % 3;
      sweep::RecordedRun rec;
      const sweep::ScenarioResult out = sweep::run_scenario_recorded(s, rec);
      ASSERT_TRUE(rec.expect_wsl) << s.key();
      ASSERT_TRUE(rec.witness.has_value()) << s.key();
      ASSERT_LE(rec.history.size(), 64u) << s.key();
      fn(s, out, rec);
    }
  }
}

TEST_P(WitnessOracle, WitnessPathAgreesWithTreeSearch) {
  const OracleCase& c = GetParam();
  int fallbacks = 0;
  for_each_run(c, [&](const sweep::Scenario& s,
                      const sweep::ScenarioResult& out,
                      const sweep::RecordedRun& rec) {
    const checker::WslCheckResult tree =
        checker::check_write_strong_linearizable(rec.history);
    const checker::WslCheckResult fast =
        checker::check_write_strong_linearizable(rec.history, *rec.witness);
    ASSERT_EQ(fast.ok, tree.ok) << s.key() << '\n'
                                << rec.history.to_string();
    ASSERT_NE(fast.witness, WslWitnessOutcome::kNone);
    if (fast.witness == WslWitnessOutcome::kFallback) {
      ++fallbacks;
      EXPECT_EQ(fast.explanation, tree.explanation) << s.key();
    } else {
      EXPECT_EQ(fast.solver_calls, 0u) << s.key();
    }
    if (c.fault == sweep::FaultKind::kNone) {
      EXPECT_EQ(fast.witness, WslWitnessOutcome::kVerified)
          << s.key() << ": "
          << checker::verify_wsl_witness(rec.history, *rec.witness).rejection;
      EXPECT_EQ(out.verdict, sweep::Verdict::kOk) << s.key();
    }
  });
  // Every family's own witness holds on every run here, faults included.
  EXPECT_EQ(fallbacks, 0);
}

TEST_P(WitnessOracle, VerifiedWitnessImpliesLinearizable) {
  // The sweep skips the batch linearizability check when the witness
  // verifies (Definition 4: f(H) linearizes H); the batch checker must
  // agree on every such history.
  int verified = 0;
  for_each_run(GetParam(), [&](const sweep::Scenario& s,
                               const sweep::ScenarioResult& /*out*/,
                               const sweep::RecordedRun& rec) {
    if (!checker::verify_wsl_witness(rec.history, *rec.witness).verified) {
      return;
    }
    ++verified;
    EXPECT_TRUE(checker::check_linearizable(rec.history).ok)
        << s.key() << '\n' << rec.history.to_string();
  });
  EXPECT_GT(verified, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Families, WitnessOracle,
    testing::Values(
        OracleCase{sweep::Algorithm::kAlg2, 3, 2, sweep::FaultKind::kNone},
        OracleCase{sweep::Algorithm::kAlg2, 4, 3, sweep::FaultKind::kNone},
        OracleCase{sweep::Algorithm::kAlg2, 3, 2, sweep::FaultKind::kStall},
        OracleCase{sweep::Algorithm::kAlg2, 4, 3, sweep::FaultKind::kStall},
        OracleCase{sweep::Algorithm::kModeled, 3, 2, sweep::FaultKind::kNone},
        OracleCase{sweep::Algorithm::kModeled, 4, 3, sweep::FaultKind::kNone},
        OracleCase{sweep::Algorithm::kModeled, 3, 2,
                   sweep::FaultKind::kStall},
        OracleCase{sweep::Algorithm::kModeled, 4, 3,
                   sweep::FaultKind::kStall},
        OracleCase{sweep::Algorithm::kAbd, 3, 2, sweep::FaultKind::kNone},
        OracleCase{sweep::Algorithm::kAbd, 4, 3, sweep::FaultKind::kNone},
        OracleCase{sweep::Algorithm::kAbd, 3, 2,
                   sweep::FaultKind::kMinorityCrash},
        OracleCase{sweep::Algorithm::kAbd, 4, 3,
                   sweep::FaultKind::kMinorityCrash}),
    case_name);

TEST(WitnessOracle, AblatedAbdViolationsFallBackToTheSameVerdict) {
  // The new/old inversion of AbdAblation.NoWriteBackAllowsNewOldInversion:
  // without the read write-back phase some of these histories are not
  // even linearizable.  Whatever the f* witness says, the verdict is the
  // tree search's.
  int rejected = 0;
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    mp::Network net;
    mp::AbdRegister reg(net, 3, 0, 0, /*read_write_back=*/false);
    util::Rng rng(seed);
    const int w = reg.begin_write(7);
    (void)reg.begin_read(1);
    for (int i = 0; i < 6; ++i) net.deliver_random(rng);
    const int rb = reg.begin_read(2);
    for (int i = 0; i < 4000 && !(reg.done(rb) && reg.done(w)); ++i) {
      net.deliver_random(rng);
    }
    const History& h = reg.hl_history();
    const std::optional<WslWitness> witness = mp::swmr_wsl_witness(h);
    ASSERT_TRUE(witness.has_value());
    const auto tree = checker::check_write_strong_linearizable(h);
    const auto fast = checker::check_write_strong_linearizable(h, *witness);
    ASSERT_EQ(fast.ok, tree.ok) << "seed " << seed;
    if (!tree.ok) {
      ++rejected;
      EXPECT_EQ(fast.witness, WslWitnessOutcome::kFallback);
      EXPECT_EQ(fast.explanation, tree.explanation);
    }
  }
  EXPECT_GT(rejected, 0) << "expected the ablation to break some runs";
}

// ---- bad witnesses are rejected, never trusted -----------------------------

int add_op(History& h, int process, OpKind kind, history::Value v,
           Time invoke, Time response) {
  OpRecord op;
  op.process = process;
  op.reg = 0;
  op.kind = kind;
  op.value = v;
  op.invoke = invoke;
  op.response = response;
  return h.add(op);
}

/// w1 = write(1) on [1,5] and w2 = write(2) on [2,6] overlap; the read on
/// [7,8] returns 2, so every linearization orders w1 before w2.
struct Overlap {
  History h;
  int w1, w2, r;
  Overlap() {
    h.set_initial(0, 0);
    w1 = add_op(h, 0, OpKind::kWrite, 1, 1, 5);
    w2 = add_op(h, 1, OpKind::kWrite, 2, 2, 6);
    r = add_op(h, 2, OpKind::kRead, 2, 7, 8);
  }
};

/// The witness must be rejected without throwing, and the witness-path
/// verdict must still be the tree search's.
void expect_rejected(const History& h, const WslWitness& witness,
                     const std::string& why_contains) {
  checker::WslWitnessCheck check;
  ASSERT_NO_THROW(check = checker::verify_wsl_witness(h, witness));
  EXPECT_FALSE(check.verified);
  EXPECT_NE(check.rejection.find(why_contains), std::string::npos)
      << check.rejection;
  const auto tree = checker::check_write_strong_linearizable(h);
  const auto fast = checker::check_write_strong_linearizable(h, witness);
  EXPECT_EQ(fast.ok, tree.ok);
  EXPECT_EQ(fast.witness, WslWitnessOutcome::kFallback);
}

TEST(WitnessSoundness, TheRightWitnessVerifies) {
  const Overlap o;
  const WslWitness good{{{o.w1, 5}, {o.w2, 6}}};
  const checker::WslWitnessCheck check = checker::verify_wsl_witness(o.h, good);
  EXPECT_TRUE(check.verified) << check.rejection;
  const auto fast = checker::check_write_strong_linearizable(o.h, good);
  EXPECT_TRUE(fast.ok);
  EXPECT_EQ(fast.witness, WslWitnessOutcome::kVerified);
  ASSERT_EQ(fast.write_orders.size(), 1u);
  EXPECT_EQ(fast.write_orders[0], (std::vector<int>{o.w1, o.w2}));
}

TEST(WitnessSoundness, SwappedWritesAReadObservesAreRejected) {
  const Overlap o;
  expect_rejected(o.h, WslWitness{{{o.w2, 5}, {o.w1, 6}}},
                  "no linearization");
}

TEST(WitnessSoundness, CommitAfterTheReadThatReturnedTheWriteIsRejected) {
  // A pending write whose value a completed read returned is forced by
  // that read's response.
  History h;
  h.set_initial(0, 0);
  const int w = add_op(h, 0, OpKind::kWrite, 1, 1, history::kNoTime);
  add_op(h, 1, OpKind::kRead, 1, 2, 3);
  EXPECT_TRUE(checker::verify_wsl_witness(h, WslWitness{{{w, 3}}}).verified);
  expect_rejected(h, WslWitness{{{w, 4}}}, "no linearization");
}

TEST(WitnessSoundness, MissingCompletedWriteIsRejected) {
  const Overlap o;
  expect_rejected(o.h, WslWitness{{{o.w1, 5}}}, "no linearization");
}

TEST(WitnessSoundness, DecreasingCommitTimesAreRejected) {
  const Overlap o;
  expect_rejected(o.h, WslWitness{{{o.w1, 6}, {o.w2, 5}}}, "decrease");
}

TEST(WitnessSoundness, NonWritesAndBadIdsAreRejected) {
  const Overlap o;
  expect_rejected(o.h, WslWitness{{{o.w1, 5}, {o.r, 8}}}, "not a write");
  expect_rejected(o.h, WslWitness{{{o.w1, 5}, {99, 8}}}, "out of range");
  expect_rejected(o.h, WslWitness{{{-1, 5}}}, "out of range");
  expect_rejected(o.h, WslWitness{{{o.w1, 5}, {o.w1, 6}}}, "twice");
  expect_rejected(o.h, WslWitness{{{o.w1, 5}, {o.w2, 4}}}, "decrease");
  expect_rejected(o.h, WslWitness{{{o.w2, 1}}}, "before invoked");
}

TEST(WitnessSoundness, HistoriesTheTreeSearchRefusesStillThrow) {
  // Overlapping ops of one process: the witness is not consulted, and
  // the call throws exactly as the witness-free one does.
  History h;
  h.set_initial(0, 0);
  const int w = add_op(h, 0, OpKind::kWrite, 1, 1, 4);
  add_op(h, 0, OpKind::kRead, 1, 2, 3);
  const WslWitness witness{{{w, 4}}};
  EXPECT_FALSE(checker::verify_wsl_witness(h, witness).verified);
  EXPECT_ANY_THROW((void)checker::check_write_strong_linearizable(h));
  EXPECT_ANY_THROW(
      (void)checker::check_write_strong_linearizable(h, witness));
}

sim::Task alg2_one_write(sim::Proc& p, registers::SimAlg2Register& r,
                         int slot, history::Value v) {
  co_await r.write(p, slot, v);
}

sim::Task alg2_one_read(sim::Proc& p, registers::SimAlg2Register& r) {
  (void)co_await r.read(p);
}

TEST(WitnessSoundness, ZeroInitAblationWitnessFallsBackToOk) {
  // The schedule of Alg2Ablation.ZeroInitBreaksAlgorithm3: with unset
  // timestamp entries read as 0, Algorithm 3 commits w_a before w_b,
  // which the final read refutes.  The history itself is WSL.
  sim::Scheduler sched(1);
  registers::SimAlg2Register reg(sched, 3, 100, 0);
  sched.add_process("wa", [&reg](sim::Proc& p) {
    return alg2_one_write(p, reg, 2, 222);
  });
  sched.add_process("wb", [&reg](sim::Proc& p) {
    return alg2_one_write(p, reg, 1, 111);
  });
  sched.add_process("r",
                    [&reg](sim::Proc& p) { return alg2_one_read(p, reg); });
  sim::FixedStepAdversary adv({0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 2, 2, 2, 2});
  sched.run(adv, 100);
  const History& h = reg.hl_history();

  EXPECT_TRUE(
      checker::verify_wsl_witness(h, registers::alg3_wsl_witness(reg.trace()))
          .verified);
  registers::Alg2Trace ablated = reg.trace();
  ablated.infinite_init = false;
  const WslWitness bad = registers::alg3_wsl_witness(ablated);
  expect_rejected(h, bad, "no linearization");
  EXPECT_TRUE(checker::check_write_strong_linearizable(h, bad).ok);
}

// ---- Claim 49.1: one Algorithm 3 run is the per-prefix witness ------------

sim::Task alg2_proc(sim::Proc& p, registers::SimAlg2Register& r, int slot,
                    int writes) {
  for (int i = 0; i < writes; ++i) {
    co_await r.write(p, slot, 100 * (slot + 1) + i);
  }
  (void)co_await r.read(p);
}

TEST(Claim49_1, PrefixRunsCommitExactlyTheFullRunsEarlierCommits) {
  for (const auto& [n, writes] : {std::pair{3, 2}, std::pair{4, 3}}) {
    for (std::uint64_t seed = 0; seed < 60; ++seed) {
      sim::Scheduler sched(seed);
      registers::SimAlg2Register reg(sched, n, 100, 0);
      for (int p = 0; p < n; ++p) {
        sched.add_process("p", [&reg, p, w = writes](sim::Proc& pr) {
          return alg2_proc(pr, reg, p, w);
        });
      }
      sim::RandomAdversary adv(seed * 7 + 1);
      ASSERT_EQ(sched.run(adv), sim::RunOutcome::kAllDone);

      const registers::Alg3Result full = registers::run_alg3(reg.trace());
      ASSERT_EQ(full.commit_times.size(), full.write_sequence.size());
      for (Time t = 0; t <= sched.now(); ++t) {
        std::vector<int> committed;
        for (std::size_t i = 0; i < full.write_sequence.size(); ++i) {
          if (full.commit_times[i] <= t) {
            committed.push_back(full.write_sequence[i]);
          }
        }
        EXPECT_EQ(registers::run_alg3(reg.trace().prefix_at(t)).write_sequence,
                  committed)
            << "n=" << n << " seed " << seed << " t=" << t;
      }
    }
  }
}

}  // namespace
}  // namespace rlt
