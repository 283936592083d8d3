// Tests for the simulator: coroutine scheduling, the three register
// semantic models, adversary choice mechanics, and determinism.
#include <gtest/gtest.h>

#include "checker/lin_checker.hpp"
#include "checker/wsl_checker.hpp"
#include "sim/adversary.hpp"
#include "sim/scheduler.hpp"
#include "util/assert.hpp"

namespace rlt::sim {
namespace {

Task write_two(Proc& self, RegId reg, Value a, Value b) {
  co_await self.write(reg, a);
  co_await self.write(reg, b);
}

Task read_two(Proc& self, RegId reg, Value* out1, Value* out2) {
  *out1 = co_await self.read(reg);
  *out2 = co_await self.read(reg);
}

Task flip_some(Proc& self, int count, int* ones) {
  for (int i = 0; i < count; ++i) {
    *ones += co_await self.flip_coin();
    co_await self.yield();
  }
}

TEST(Scheduler, AtomicRegisterBasicSemantics) {
  Scheduler sched(1);
  sched.add_register(0, Semantics::kAtomic, 5);
  Value v1 = -1;
  Value v2 = -1;
  sched.add_process("w", [](Proc& p) { return write_two(p, 0, 10, 20); });
  sched.add_process("r",
                    [&](Proc& p) { return read_two(p, 0, &v1, &v2); });
  RoundRobinAdversary adv;
  EXPECT_EQ(sched.run(adv), RunOutcome::kAllDone);
  // Round-robin: w writes 10, r reads 10, w writes 20, r reads 20.
  EXPECT_EQ(v1, 10);
  EXPECT_EQ(v2, 20);
  sched.global_history().validate();
}

TEST(Scheduler, DeterministicUnderSameSeed) {
  const auto run = [](std::uint64_t seed) {
    Scheduler sched(seed);
    sched.add_register(0, Semantics::kLinearizable, 0);
    Value v1 = 0;
    Value v2 = 0;
    sched.add_process("w", [](Proc& p) { return write_two(p, 0, 1, 2); });
    sched.add_process("r",
                      [&](Proc& p) { return read_two(p, 0, &v1, &v2); });
    RandomAdversary adv(seed);
    sched.run(adv);
    return sched.global_history().to_string();
  };
  EXPECT_EQ(run(42), run(42));
  // (Different seeds usually differ, but that is not guaranteed.)
}

TEST(Scheduler, CoinFlipsAreLoggedForTheAdversary) {
  Scheduler sched(7);
  int ones = 0;
  sched.add_process("f", [&](Proc& p) { return flip_some(p, 20, &ones); });
  RoundRobinAdversary adv;
  EXPECT_EQ(sched.run(adv), RunOutcome::kAllDone);
  EXPECT_EQ(sched.coin_log().size(), 20u);
  int logged_ones = 0;
  for (const CoinRecord& c : sched.coin_log()) logged_ones += c.outcome;
  EXPECT_EQ(logged_ones, ones);
}

TEST(Scheduler, ActionCapStopsRun) {
  Scheduler sched(1);
  sched.add_register(0, Semantics::kAtomic, 0);
  Value a = 0;
  Value b = 0;
  sched.add_process("r", [&](Proc& p) { return read_two(p, 0, &a, &b); });
  RoundRobinAdversary adv;
  EXPECT_EQ(sched.run(adv, 1), RunOutcome::kActionCap);
}

TEST(LinearizableModel, OperationsOverlapAndBlock) {
  Scheduler sched(1);
  sched.add_register(0, Semantics::kLinearizable, 0);
  Value v1 = -1;
  Value v2 = -1;
  sched.add_process("w", [](Proc& p) { return write_two(p, 0, 10, 20); });
  sched.add_process("r", [&](Proc& p) { return read_two(p, 0, &v1, &v2); });
  // Step both processes once: both ops invoked, both processes blocked.
  sched.apply(Action::step(0));
  sched.apply(Action::step(1));
  EXPECT_TRUE(sched.process_blocked(0));
  EXPECT_TRUE(sched.process_blocked(1));
  EXPECT_EQ(sched.pending_ops().size(), 2u);
}

TEST(LinearizableModel, ReadChoicesEnumerateFeasibleValues) {
  Scheduler sched(1);
  sched.add_register(0, Semantics::kLinearizable, 0);
  Value v1 = -1;
  Value v2 = -1;
  sched.add_process("w", [](Proc& p) { return write_two(p, 0, 10, 20); });
  sched.add_process("r", [&](Proc& p) { return read_two(p, 0, &v1, &v2); });
  sched.apply(Action::step(0));  // write(10) pending
  sched.apply(Action::step(1));  // read pending
  const auto pending = sched.pending_ops();
  const int read_op = pending[1].op_id;
  const auto& choices = sched.choices_for(read_op);
  ASSERT_EQ(choices.size(), 2u);  // initial 0 or concurrent 10
  std::set<Value> values;
  for (const auto& c : choices) values.insert(c.value);
  EXPECT_EQ(values, (std::set<Value>{0, 10}));
}

TEST(LinearizableModel, OffLineFreedomSurvivesWriteCompletion) {
  // The crux of Theorem 6: after BOTH concurrent writes complete, a read
  // that overlapped them can still be told either value.
  Scheduler sched(1);
  sched.add_register(0, Semantics::kLinearizable, 0);
  Value v1 = -1;
  Value v2 = -1;
  sched.add_process("w1", [](Proc& p) { return write_two(p, 0, 10, 11); });
  sched.add_process("w2", [](Proc& p) { return write_two(p, 0, 20, 21); });
  sched.add_process("r", [&](Proc& p) { return read_two(p, 0, &v1, &v2); });
  sched.apply(Action::step(0));  // w1: write(10) pending
  sched.apply(Action::step(1));  // w2: write(20) pending
  sched.apply(Action::step(2));  // read pending (overlaps both)
  // Complete both writes.
  auto respond_write = [&](ProcessId p) {
    for (const auto& info : sched.pending_ops()) {
      if (info.process == p) {
        const auto& choices = sched.choices_for(info.op_id);
        ASSERT_EQ(choices.size(), 1u);
        sched.apply(Action::respond(p, info.op_id, choices[0]));
        return;
      }
    }
    FAIL() << "no pending op for p" << p;
  };
  respond_write(0);
  respond_write(1);
  // The read may return the initial value (it was invoked before either
  // write completed) or either write's value — the adversary decides the
  // order of the two concurrent writes off-line, AFTER their completion.
  const int read_op = sched.pending_ops()[0].op_id;
  std::set<Value> values;
  for (const auto& c : sched.choices_for(read_op)) values.insert(c.value);
  EXPECT_EQ(values, (std::set<Value>{0, 10, 20}));
}

TEST(WslModel, WriteResponseFreezesOrder) {
  // Same setup, WSL semantics: completing w1 with commitment [w1] means
  // any read now (after both writes complete) can only see w1 last if
  // the adversary also committed w2 first — the choice set shrinks.
  Scheduler sched(1);
  sched.add_register(0, Semantics::kWriteStrong, 0);
  Value v1 = -1;
  Value v2 = -1;
  sched.add_process("w1", [](Proc& p) { return write_two(p, 0, 10, 11); });
  sched.add_process("w2", [](Proc& p) { return write_two(p, 0, 20, 21); });
  sched.add_process("r", [&](Proc& p) { return read_two(p, 0, &v1, &v2); });
  sched.apply(Action::step(0));
  sched.apply(Action::step(1));
  sched.apply(Action::step(2));
  // Respond w1's write committing only [w1] (w2 left uncommitted, hence
  // ordered after w1 forever).
  const auto pending = sched.pending_ops();
  const int w1_op = pending[0].op_id;
  const int w2_op = pending[1].op_id;
  const int r_op = pending[2].op_id;
  std::optional<ResponseChoice> w1_only;
  for (const auto& c : sched.choices_for(w1_op)) {
    if (c.commit_extension == std::vector<int>{w1_op}) w1_only = c;
  }
  ASSERT_TRUE(w1_only.has_value());
  sched.apply(Action::respond(0, w1_op, *w1_only));
  // Respond w2 (it must append after w1).
  const auto& w2_choices = sched.choices_for(w2_op);
  ASSERT_FALSE(w2_choices.empty());
  sched.apply(Action::respond(1, w2_op, w2_choices[0]));
  // The read overlapped everything, but w1-before-w2 is now frozen:
  // it can return 0 (before both), 10 (between), or 20 (after) — BUT a
  // second read after it could never see 10 then 20 reversed.  Check the
  // first read's choice values contain 20 and 10 but a follow-up
  // constraint holds: respond with 20, then the next read can only be 20.
  std::optional<ResponseChoice> twenty;
  for (const auto& c : sched.choices_for(r_op)) {
    if (c.value == 20) twenty = c;
  }
  ASSERT_TRUE(twenty.has_value());
  sched.apply(Action::respond(2, r_op, *twenty));
  sched.apply(Action::step(2));  // invoke second read
  const int r2_op = sched.pending_ops()[0].op_id;
  std::set<Value> values;
  for (const auto& c : sched.choices_for(r2_op)) values.insert(c.value);
  EXPECT_EQ(values, (std::set<Value>{20}));
}

TEST(WslModel, CommittedOrderSurvivesCollapse) {
  // Run a full write-write-read cycle to quiescence; the model collapses
  // its window, and the next read must see the committed final value.
  Scheduler sched(3);
  sched.add_register(0, Semantics::kWriteStrong, 0);
  Value v1 = -1;
  Value v2 = -1;
  sched.add_process("w", [](Proc& p) { return write_two(p, 0, 10, 20); });
  sched.add_process("r", [&](Proc& p) { return read_two(p, 0, &v1, &v2); });
  RandomAdversary adv(99);
  EXPECT_EQ(sched.run(adv), RunOutcome::kAllDone);
  // Reads are monotone: v1=10 implies v2 in {10, 20}; v1=20 implies v2=20.
  if (v1 == 20) {
    EXPECT_EQ(v2, 20);
  }
  sched.global_history().validate();
}

TEST(Models, RandomRunsProduceLinearizableHistories) {
  for (const Semantics sem :
       {Semantics::kAtomic, Semantics::kLinearizable,
        Semantics::kWriteStrong}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      Scheduler sched(seed);
      sched.add_register(0, sem, 0);
      Value v1 = 0;
      Value v2 = 0;
      Value v3 = 0;
      Value v4 = 0;
      sched.add_process("w1",
                        [](Proc& p) { return write_two(p, 0, 10, 11); });
      sched.add_process("w2",
                        [](Proc& p) { return write_two(p, 0, 20, 21); });
      sched.add_process("r1",
                        [&](Proc& p) { return read_two(p, 0, &v1, &v2); });
      sched.add_process("r2",
                        [&](Proc& p) { return read_two(p, 0, &v3, &v4); });
      RandomAdversary adv(seed * 31);
      ASSERT_EQ(sched.run(adv), RunOutcome::kAllDone);
      const auto result = checker::check_linearizable(sched.global_history());
      ASSERT_TRUE(result.ok)
          << to_string(sem) << " seed " << seed << ": " << result.error;
    }
  }
}

TEST(Models, WslRunsProduceWslHistories) {
  // The WSL model's histories must pass the off-line Definition 4 check.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Scheduler sched(seed);
    sched.add_register(0, Semantics::kWriteStrong, 0);
    Value v1 = 0;
    Value v2 = 0;
    sched.add_process("w1", [](Proc& p) { return write_two(p, 0, 10, 11); });
    sched.add_process("w2", [](Proc& p) { return write_two(p, 0, 20, 21); });
    sched.add_process("r",
                      [&](Proc& p) { return read_two(p, 0, &v1, &v2); });
    RandomAdversary adv(seed * 17);
    ASSERT_EQ(sched.run(adv), RunOutcome::kAllDone);
    const auto result =
        checker::check_write_strong_linearizable(sched.global_history());
    ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.explanation;
  }
}

TEST(Scheduler, ExceptionsInProcessesPropagate) {
  Scheduler sched(1);
  sched.add_register(0, Semantics::kAtomic, 0);
  sched.add_process("bad", [](Proc& p) -> Task {
    co_await p.yield();
    RLT_CHECK_MSG(false, "deliberate failure");
  });
  RoundRobinAdversary adv;
  EXPECT_THROW(sched.run(adv), util::InvariantViolation);
}

TEST(Scheduler, RejectsDuplicateRegisters) {
  Scheduler sched(1);
  sched.add_register(0, Semantics::kAtomic, 0);
  EXPECT_THROW(sched.add_register(0, Semantics::kAtomic, 0),
               util::InvariantViolation);
}

TEST(FixedStepAdversary, ReplaysExactSchedule) {
  Scheduler sched(1);
  sched.add_register(0, Semantics::kAtomic, 0);
  Value v1 = -1;
  Value v2 = -1;
  sched.add_process("w", [](Proc& p) { return write_two(p, 0, 10, 20); });
  sched.add_process("r", [&](Proc& p) { return read_two(p, 0, &v1, &v2); });
  FixedStepAdversary adv({0, 0, 1, 1, 1});  // both writes, then reads
  EXPECT_EQ(sched.run(adv), RunOutcome::kStopped);
  EXPECT_EQ(v1, 20);
}

}  // namespace
}  // namespace rlt::sim
