// Tests for the three history checkers: linearizability (Definition 2),
// write strong-linearizability over history trees (Definition 4), and
// strong linearizability (Definition 3) — including the strictness of
// the containment  strong  ⊊  write-strong  ⊊  linearizable.
#include <gtest/gtest.h>

#include "checker/lin_checker.hpp"
#include "checker/strong_checker.hpp"
#include "checker/wsl_checker.hpp"
#include "util/assert.hpp"

namespace rlt::checker {
namespace {

using history::History;
using history::kNoTime;
using history::OpRecord;

int add(History& h, int process, OpKind kind, Value v, Time invoke,
        Time response, int reg = 0) {
  OpRecord op;
  op.process = process;
  op.reg = reg;
  op.kind = kind;
  op.value = v;
  op.invoke = invoke;
  op.response = response;
  return h.add(op);
}

// ---------- linearizability ----------

TEST(LinChecker, MultiRegisterComposition) {
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 4, /*reg=*/0);
  add(h, 1, OpKind::kWrite, 2, 2, 5, /*reg=*/1);
  add(h, 0, OpKind::kRead, 2, 6, 8, /*reg=*/1);
  add(h, 1, OpKind::kRead, 1, 7, 9, /*reg=*/0);
  const LinCheckResult r = check_linearizable(h);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.order.size(), 4u);
}

TEST(LinChecker, DetectsPerRegisterViolation) {
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 2, /*reg=*/0);
  add(h, 1, OpKind::kRead, 99, 3, 4, /*reg=*/0);  // impossible value
  const LinCheckResult r = check_linearizable(h);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("R0"), std::string::npos);
}

TEST(LinChecker, MergedWitnessRespectsCrossRegisterRealTime) {
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 2, /*reg=*/0);
  add(h, 1, OpKind::kWrite, 2, 5, 6, /*reg=*/1);
  const LinCheckResult r = check_linearizable(h);
  ASSERT_TRUE(r.ok);
  // op0 precedes op1 in real time, so it must come first globally.
  EXPECT_EQ(r.order, (std::vector<int>{0, 1}));
}

TEST(LinChecker, PrefixClosedness) {
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 6);
  add(h, 1, OpKind::kRead, 1, 2, 4);
  add(h, 2, OpKind::kRead, 1, 7, 9);
  EXPECT_TRUE(check_all_prefixes_linearizable(h).ok);
}

TEST(LinChecker, HistoriesStartingAtTimeZeroAreHandled) {
  // External (streamed) histories may start their clock at 0 — a time no
  // inclusive unsigned cutoff can exclude.  Every checker must accept a
  // clean t=0 history and reject a violating one; the tree checkers'
  // empty-prefix handling (wsl_checker/strong_checker) must not build a
  // wrong one-event "empty" view.
  History good;
  add(good, 0, OpKind::kWrite, 1, 0, 2);  // invoked at t=0
  add(good, 1, OpKind::kRead, 1, 3, 4);
  EXPECT_TRUE(check_linearizable(good).ok);
  EXPECT_TRUE(check_all_prefixes_linearizable(good).ok);
  EXPECT_TRUE(check_write_strong_linearizable(good).ok);
  EXPECT_TRUE(check_strong_linearizable(good).ok);

  History bad;
  add(bad, 0, OpKind::kWrite, 1, 0, 2);
  add(bad, 1, OpKind::kRead, 99, 3, 4);
  EXPECT_FALSE(check_linearizable(bad).ok);
  EXPECT_FALSE(check_write_strong_linearizable(bad).ok);
}

// ---------- write strong-linearizability ----------

TEST(WslChecker, SequentialHistoryIsWsl) {
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 2);
  add(h, 1, OpKind::kRead, 1, 3, 4);
  const WslCheckResult r = check_write_strong_linearizable(h);
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.write_orders.size(), 1u);
  EXPECT_EQ(r.write_orders[0], (std::vector<int>{0}));
}

TEST(WslChecker, ConcurrentWritesSingleRunIsWsl) {
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 10);
  add(h, 1, OpKind::kWrite, 2, 2, 12);
  add(h, 2, OpKind::kRead, 1, 13, 15);
  EXPECT_TRUE(check_write_strong_linearizable(h).ok);
}

/// The paper's core counterexample shape (Theorem 13 / Figure 4): two
/// extensions of a common prefix G that force opposite orders of two
/// writes that were concurrent in G, where one of them completed in G.
TEST(WslChecker, Theorem13BranchingTreeIsNotWsl) {
  // G: w1 by p0 pending [1..), w2 by p1 completes [2..5].
  // H1: w1 completes at 8; read by p2 [10..12] -> w2's value
  //     (forces w1 before w2: the read starts after w1 completed).
  // H2: w1 completes at 8; read by p2 [10..12] -> w1's value
  //     (forces w2 before w1: the read starts after w2 completed).
  const auto build = [](Value read_value) {
    History h;
    add(h, 0, OpKind::kWrite, 1, 1, 8);
    add(h, 1, OpKind::kWrite, 2, 2, 5);
    add(h, 2, OpKind::kRead, read_value, 10, 12);
    return h;
  };
  const History h1 = build(2);
  const History h2 = build(1);
  EXPECT_TRUE(check_linearizable(h1).ok);
  EXPECT_TRUE(check_linearizable(h2).ok);
  EXPECT_TRUE(check_write_strong_linearizable(h1).ok);
  EXPECT_TRUE(check_write_strong_linearizable(h2).ok);
  const WslCheckResult r =
      check_write_strong_linearizable(std::vector<History>{h1, h2});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.explanation.find("no write strong-linearization"),
            std::string::npos);
}

TEST(WslChecker, CompatibleBranchesAreWsl) {
  // Both extensions force the SAME write order: fine.
  const auto build = [](Time read_start) {
    History h;
    add(h, 0, OpKind::kWrite, 1, 1, 8);
    add(h, 1, OpKind::kWrite, 2, 2, 5);
    add(h, 2, OpKind::kRead, 2, read_start, read_start + 2);
    return h;
  };
  const WslCheckResult r = check_write_strong_linearizable(
      std::vector<History>{build(10), build(20)});
  EXPECT_TRUE(r.ok);
}

TEST(WslChecker, PendingWriteReadForcesCommitment) {
  // A read returns a pending write's value; the write order must commit
  // the pending write at the read's response — and the later branch must
  // agree with it.
  History h;
  add(h, 0, OpKind::kWrite, 7, 1, kNoTime);
  add(h, 1, OpKind::kRead, 7, 2, 4);
  add(h, 2, OpKind::kRead, 7, 5, 6);
  const WslCheckResult r = check_write_strong_linearizable(h);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.write_orders[0], (std::vector<int>{0}));
}

TEST(WslChecker, SwmrHistoriesAreAlwaysWsl) {
  // Theorem 14 shape: single-writer histories (writes never concurrent).
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 4);
  add(h, 1, OpKind::kRead, 1, 2, 6);
  add(h, 0, OpKind::kWrite, 2, 7, 12);
  add(h, 2, OpKind::kRead, 1, 8, 10);  // old value, overlapping write
  add(h, 1, OpKind::kRead, 2, 13, 14);
  EXPECT_TRUE(check_write_strong_linearizable(h).ok);
}

TEST(WslChecker, WslImpliesLinearizable) {
  // A non-linearizable run must be rejected by the WSL checker too.
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 2);
  add(h, 1, OpKind::kRead, 99, 3, 4);
  EXPECT_FALSE(check_linearizable(h).ok);
  EXPECT_FALSE(check_write_strong_linearizable(h).ok);
}

// ---------- strong linearizability ----------

TEST(StrongChecker, SequentialHistoryIsStrong) {
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 2);
  add(h, 1, OpKind::kRead, 1, 3, 4);
  EXPECT_TRUE(check_strong_linearizable(h).ok);
}

TEST(StrongChecker, Theorem13TreeIsNotStrong) {
  // Strong linearizability implies WSL, so Theorem 13's tree must fail
  // the strong checker as well.
  const auto build = [](Value read_value) {
    History h;
    add(h, 0, OpKind::kWrite, 1, 1, 8);
    add(h, 1, OpKind::kWrite, 2, 2, 5);
    add(h, 2, OpKind::kRead, read_value, 10, 12);
    return h;
  };
  const StrongCheckResult r = check_strong_linearizable(
      std::vector<History>{build(2), build(1)});
  EXPECT_FALSE(r.ok);
}

/// A single history where strong linearizability survives only by
/// committing a still-pending read EARLY with an invented response
/// (Definition 2 allows adding matching responses): when w2 responds,
/// the overlapping read must be frozen before w2 — guessing it will
/// return w1's value.  In a single run the guess can be made to match.
TEST(StrongChecker, PendingReadCanBeCommittedEarlyWithInventedResponse) {
  History h;
  h.set_initial(0, 0);
  add(h, 0, OpKind::kWrite, 1, 1, 4);    // w1 completes early
  add(h, 1, OpKind::kWrite, 2, 5, 12);   // w2 completes before r responds
  add(h, 2, OpKind::kRead, 1, 6, 20);    // r -> OLD value, overlaps w2
  ASSERT_TRUE(check_linearizable(h).ok);
  EXPECT_TRUE(check_write_strong_linearizable(h).ok);
  EXPECT_TRUE(check_strong_linearizable(h).ok);
}

/// Separation witness (the content of Corollary 11): a two-branch tree
/// that is write strongly-linearizable but NOT strongly linearizable.
/// Common prefix G: w1 completed, w2 completed, read r still pending and
/// overlapping w2.  Branch A: r returns the old value (r must sit BEFORE
/// w2).  Branch B: r returns the new value (r must sit AFTER w2).  A
/// strong linearization function must fix r's position relative to w2 at
/// w2's response — inside G, before the branches diverge — so one branch
/// always contradicts it.  Write strong-linearizability only fixes the
/// write order [w1, w2], which both branches share.
TEST(StrongChecker, BranchingReadsSeparateStrongFromWsl) {
  const auto build = [](Value read_value) {
    History h;
    h.set_initial(0, 0);
    add(h, 0, OpKind::kWrite, 1, 1, 4);
    add(h, 1, OpKind::kWrite, 2, 5, 12);
    add(h, 2, OpKind::kRead, read_value, 6, 20);
    return h;
  };
  const History ha = build(1);  // old value
  const History hb = build(2);  // new value
  ASSERT_TRUE(check_linearizable(ha).ok);
  ASSERT_TRUE(check_linearizable(hb).ok);
  const auto wsl = check_write_strong_linearizable(
      std::vector<History>{ha, hb});
  EXPECT_TRUE(wsl.ok) << wsl.explanation;
  const auto strong =
      check_strong_linearizable(std::vector<History>{ha, hb});
  EXPECT_FALSE(strong.ok);
}

TEST(StrongChecker, PendingOpsMayBeLinearizedWithInventedResponses) {
  // A pending read may enter f(G) with the value its position implies.
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 4);
  add(h, 1, OpKind::kRead, 0, 2, kNoTime);  // pending forever
  EXPECT_TRUE(check_strong_linearizable(h).ok);
}

TEST(StrongChecker, RejectsRunsOverSixtyFourOps) {
  // 66 pending writes and one completed read: 67 commitment candidates,
  // past the 64-bit selection mask.  The run is refused up front, as the
  // WSL checker refuses it, instead of searching 67! orders.
  History h;
  Time t = 0;
  for (int p = 0; p < 66; ++p) {
    add(h, p, OpKind::kWrite, 100 + p, ++t, kNoTime);
  }
  const Time read_invoke = ++t;
  add(h, 66, OpKind::kRead, 165, read_invoke, ++t);
  ASSERT_EQ(h.size(), 67u);
  EXPECT_THROW((void)check_strong_linearizable(h), util::InvariantViolation);
  EXPECT_THROW((void)check_write_strong_linearizable(h),
               util::InvariantViolation);
}

TEST(StrongChecker, StrongImpliesWslOnRandomShapes) {
  // Hand-picked small shapes: whenever strong succeeds, WSL must too.
  std::vector<History> shapes;
  {
    History h;
    add(h, 0, OpKind::kWrite, 1, 1, 6);
    add(h, 1, OpKind::kRead, 1, 2, 8);
    shapes.push_back(h);
  }
  {
    History h;
    add(h, 0, OpKind::kWrite, 1, 1, 10);
    add(h, 1, OpKind::kWrite, 2, 12, 14);
    add(h, 2, OpKind::kRead, 2, 15, 16);
    shapes.push_back(h);
  }
  for (const History& h : shapes) {
    if (check_strong_linearizable(h).ok) {
      EXPECT_TRUE(check_write_strong_linearizable(h).ok);
    }
  }
}

}  // namespace
}  // namespace rlt::checker
