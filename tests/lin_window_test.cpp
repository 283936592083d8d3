// Differential oracle for the incremental solver window: every LinWindow
// probe must answer exactly what the batch solver answers on the same
// history.  Two levels:
//  * solver level — seeded random single-register histories, fed one
//    event at a time; at every event-prefix the window's probes are
//    compared with feasible / solve / feasible_final_values on a
//    LinProblem over that prefix, in free and exact write-order modes,
//    with every pending op as a completion overlay, pruning on and off;
//  * model level — the simulator's linearizable and WSL register models
//    (which probe through their window) must offer exactly the menus a
//    test-local LinProblem reference computes on the materialized window.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "checker/lin_solver.hpp"
#include "history/history.hpp"
#include "sim/adversary.hpp"
#include "sim/regmodel.hpp"
#include "sim/scheduler.hpp"
#include "util/append.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace rlt {
namespace {

using checker::LinProblem;
using checker::LinWindow;
using checker::WriteOrderMode;
using history::History;
using history::kNoTime;
using history::OpKind;
using history::OpRecord;
using history::Time;
using history::Value;

// ---- solver level ---------------------------------------------------------

/// One event of a generated history: an invocation (op id = invocation
/// order) or a response.
struct GenEvent {
  bool invoke = true;
  int op = -1;
  Time time = 0;
};

/// A random single-register history with ops numbered in invocation order
/// (so history ids equal window ids), plus its events in time order.
/// Values come from {0..3}; completed reads claim a random value, so
/// roughly half the prefixes are infeasible.
struct GenHistory {
  History h;
  std::vector<GenEvent> events;
};

GenHistory random_history(util::Rng& rng) {
  GenHistory g;
  const int processes = 1 + static_cast<int>(rng.uniform(4));
  const int target_ops = 1 + static_cast<int>(rng.uniform(11));
  std::vector<int> open(static_cast<std::size_t>(processes), -1);
  int started = 0;
  Time now = static_cast<Time>(rng.uniform(2));  // sometimes start at t=0
  while (true) {
    std::vector<int> can_invoke;
    std::vector<int> can_respond;
    for (int p = 0; p < processes; ++p) {
      if (open[static_cast<std::size_t>(p)] >= 0) {
        can_respond.push_back(p);
      } else if (started < target_ops) {
        can_invoke.push_back(p);
      }
    }
    if (can_invoke.empty() && (can_respond.empty() || rng.chance(1, 4))) {
      break;  // leftovers stay pending
    }
    const bool invoke =
        !can_invoke.empty() && (can_respond.empty() || rng.chance(1, 2));
    if (invoke) {
      const int p = can_invoke[rng.uniform(can_invoke.size())];
      OpRecord op;
      op.process = p;
      op.reg = 0;
      op.kind = rng.chance(1, 2) ? OpKind::kWrite : OpKind::kRead;
      op.value = op.kind == OpKind::kWrite
                     ? static_cast<Value>(rng.uniform(4))
                     : Value{0};
      op.invoke = now;
      const int id = g.h.add(op);
      open[static_cast<std::size_t>(p)] = id;
      g.events.push_back({true, id, now});
      ++started;
    } else {
      const int p = can_respond[rng.uniform(can_respond.size())];
      const int id = open[static_cast<std::size_t>(p)];
      g.h.complete_op(id, static_cast<Value>(rng.uniform(4)), now);
      open[static_cast<std::size_t>(p)] = -1;
      g.events.push_back({false, id, now});
    }
    now += 1 + rng.uniform(2);
  }
  return g;
}

/// The write subsequence of a solver witness.
std::vector<int> writes_of(const History& h, const std::vector<int>& order) {
  std::vector<int> out;
  for (const int id : order) {
    if (h.op(id).is_write()) out.push_back(id);
  }
  return out;
}

/// A random ordering of a random subset of the writes invoked by `t`.
std::vector<int> random_write_order(util::Rng& rng, const History& h, Time t) {
  std::vector<int> out;
  for (const OpRecord& op : h.ops()) {
    if (op.is_write() && op.invoke <= t && rng.chance(3, 4)) {
      out.push_back(op.id);
    }
  }
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.uniform(i)]);
  }
  return out;
}

/// Compares every probe of `window` (fed through time `t`) with the batch
/// solver on `h`'s prefix at `t`.  Returns the number of comparisons.
int compare_prefix(util::Rng& rng, const History& h, const LinWindow& window,
                   const std::vector<Value>& initials, Time t, bool prune) {
  int compared = 0;
  LinProblem base;
  base.history = &h;
  base.cutoff = t;
  base.initial_values = initials;
  base.prune = prune;
  const std::string where = "prefix t<=" + std::to_string(t) +
                            (prune ? " (prune)" : " (no prune)") + ":\n" +
                            h.prefix_at(t).to_string();

  // Free write order: all three entry points.
  const checker::LinSolution free_solution = checker::solve(base);
  EXPECT_EQ(window.feasible(WriteOrderMode::kFree, {}), free_solution.ok)
      << where;
  EXPECT_EQ(checker::feasible(base), free_solution.ok) << where;
  EXPECT_EQ(window.final_values(WriteOrderMode::kFree, {}),
            checker::feasible_final_values(base))
      << where;
  ++compared;

  // Exact write orders: the solver's own, and random ones.
  std::vector<std::vector<int>> orders;
  if (free_solution.ok) orders.push_back(writes_of(h, free_solution.order));
  for (int k = 0; k < 3; ++k) orders.push_back(random_write_order(rng, h, t));
  for (const std::vector<int>& order : orders) {
    LinProblem exact = base;
    exact.mode = WriteOrderMode::kExact;
    exact.exact_write_order = order;
    EXPECT_EQ(window.feasible(WriteOrderMode::kExact, order),
              checker::feasible(exact))
        << where;
    EXPECT_EQ(window.feasible(WriteOrderMode::kExact, order),
              checker::solve(exact).ok)
        << where;
    EXPECT_EQ(window.final_values(WriteOrderMode::kExact, order),
              checker::feasible_final_values(exact))
        << where;
    ++compared;
  }

  // Completion overlays: every pending op, every candidate value, after
  // every event so far.
  std::set<Value> values(initials.begin(), initials.end());
  for (const OpRecord& op : h.ops()) {
    if (op.is_write()) values.insert(op.value);
  }
  values.insert(7);  // a value nothing wrote
  for (int id = 0; id < window.size(); ++id) {
    const OpRecord& op = h.op(id);  // window ids are history ids here
    if (op.response != kNoTime && op.response <= t) continue;
    for (const Value v : values) {
      const LinWindow::Completion c{id, v, t + 1};
      LinProblem overlay = base;
      overlay.completion = c;
      EXPECT_EQ(window.feasible(WriteOrderMode::kFree, {}, &c),
                checker::feasible(overlay))
          << "completing op" << id << " with " << v << " at " << where;
      overlay.mode = WriteOrderMode::kExact;
      overlay.exact_write_order = orders.back();
      EXPECT_EQ(window.feasible(WriteOrderMode::kExact, orders.back(), &c),
                checker::feasible(overlay))
          << "completing op" << id << " with " << v << " (exact) at "
          << where;
      compared += 2;
    }
  }
  return compared;
}

TEST(LinWindowOracle, ProbesMatchTheBatchSolverAtEveryPrefix) {
  util::Rng rng(20260117);
  int compared = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const GenHistory g = random_history(rng);
    const std::vector<Value> initials =
        rng.chance(1, 3) ? std::vector<Value>{0, 2} : std::vector<Value>{0};
    for (const bool prune : {true, false}) {
      LinWindow window(prune);
      window.reset(initials);
      for (const GenEvent& ev : g.events) {
        const OpRecord& op = g.h.op(ev.op);
        if (ev.invoke) {
          ASSERT_EQ(window.invoke(op.is_write(), op.value, ev.time), ev.op);
        } else {
          window.respond(ev.op, op.value, ev.time);
        }
        compared += compare_prefix(rng, g.h, window, initials, ev.time, prune);
        if (testing::Test::HasFailure()) return;
      }
    }
  }
  EXPECT_GE(compared, 20000);
}

TEST(LinWindowOracle, ResetStartsAFreshHistory) {
  LinWindow window;
  window.reset(std::vector<Value>{5});
  const int w = window.invoke(true, 1, 1);
  window.respond(w, 0, 2);
  const int r = window.invoke(false, 0, 3);
  window.respond(r, 5, 4);
  EXPECT_FALSE(window.feasible(WriteOrderMode::kFree, {}));
  window.reset(std::vector<Value>{1, 5});
  EXPECT_TRUE(window.empty());
  const int r2 = window.invoke(false, 0, 5);
  window.respond(r2, 5, 6);
  EXPECT_EQ(r2, 0);
  EXPECT_TRUE(window.feasible(WriteOrderMode::kFree, {}));
  EXPECT_EQ(window.final_values(WriteOrderMode::kFree, {}),
            (std::set<Value>{5}));
}

TEST(LinWindowOracle, MisuseIsRejected) {
  LinWindow window;
  const int w = window.invoke(true, 1, 10);
  EXPECT_THROW(window.invoke(false, 0, 10), util::InvariantViolation);
  EXPECT_THROW(window.respond(w, 0, 9), util::InvariantViolation);
  window.respond(w, 0, 11);
  EXPECT_THROW(window.respond(w, 0, 12), util::InvariantViolation);
  EXPECT_THROW(window.reset({}), util::InvariantViolation);
  const LinWindow::Completion done{w, 0, 20};
  EXPECT_THROW((void)window.feasible(WriteOrderMode::kFree, {}, &done),
               util::InvariantViolation);
}

TEST(LinWindowOracle, MoreThan64OpsFailEveryProbe) {
  LinWindow window;
  Time t = 0;
  for (int i = 0; i < 65; ++i) {
    const int id = window.invoke(true, i, ++t);
    window.respond(id, 0, ++t);
  }
  EXPECT_EQ(window.size(), 65);
  EXPECT_THROW((void)window.feasible(WriteOrderMode::kFree, {}),
               util::InvariantViolation);
  EXPECT_THROW((void)window.final_values(WriteOrderMode::kFree, {}),
               util::InvariantViolation);
}

// ---- model level ------------------------------------------------------------

sim::Task writes_then_read(sim::Proc& p, int role, int writes) {
  for (int i = 0; i < writes; ++i) co_await p.write(0, 100 * (role + 1) + i);
  (void)co_await p.read(0);
}

/// Ordered selections of `candidates`, in the WSL model's enumeration
/// order (depth-first, candidates ascending).
void selections(const std::vector<int>& candidates, std::vector<int>& current,
                std::uint64_t used, std::vector<std::vector<int>>& out) {
  if (!current.empty()) out.push_back(current);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if ((used & (1ULL << i)) != 0) continue;
    current.push_back(candidates[i]);
    selections(candidates, current, used | (1ULL << i), out);
    current.pop_back();
  }
}

/// Before every adversary decision, checks each pending op's menu against
/// a LinProblem reference on the register's materialized window, then
/// lets `inner` decide.
class MenuOracle final : public sim::Adversary {
 public:
  MenuOracle(sim::Adversary& inner, sim::Semantics semantics)
      : inner_(inner), semantics_(semantics) {}

  std::optional<sim::Action> choose(sim::Scheduler& sched) override {
    const History& global = sched.global_history();
    // No pending op means the model just collapsed its window (or never
    // opened one): the next window starts with the next invocation.
    if (sched.pending_ops().empty()) start_ = static_cast<int>(global.size());
    for (const sim::PendingOpInfo& info : sched.pending_ops()) {
      EXPECT_EQ(sched.choices_for(info.op_id), reference(sched, info.op_id))
          << "menu of op" << info.op_id << " at t=" << sched.now();
      ++menus_;
    }
    return inner_.choose(sched);
  }

  [[nodiscard]] int menus() const noexcept { return menus_; }

 private:
  std::vector<sim::ResponseChoice> reference(sim::Scheduler& sched,
                                             int op_id) const {
    const History& global = sched.global_history();
    History window;
    for (const OpRecord& op : global.ops()) {
      if (op.id >= start_) window.add(op);
    }
    const auto& model = dynamic_cast<const sim::WindowedModel&>(sched.model(0));
    const std::vector<Value>& initials = model.initial_values();
    const int wid = op_id - start_;
    const OpRecord& op = window.op(wid);
    const Time now = sched.now() + 1;

    std::set<Value> candidates(initials.begin(), initials.end());
    std::vector<int> committed;  // window ids
    std::vector<int> uncommitted;
    for (const OpRecord& w : window.ops()) {
      if (w.is_write()) candidates.insert(w.value);
    }
    for (const auto& c : sched.commit_log(0).commits) {
      if (c.op >= start_) committed.push_back(c.op - start_);
    }
    for (const OpRecord& w : window.ops()) {
      if (w.is_write() && std::find(committed.begin(), committed.end(),
                                    w.id) == committed.end()) {
        uncommitted.push_back(w.id);
      }
    }
    const auto feasible = [&](WriteOrderMode mode,
                              const std::vector<int>& exact, Value v) {
      LinProblem p;
      p.history = &window;
      p.mode = mode;
      p.exact_write_order = exact;
      p.initial_values = initials;
      p.completion = LinProblem::Completion{wid, v, now};
      return checker::feasible(p);
    };
    const auto global_ids = [this](const std::vector<int>& wids) {
      std::vector<int> out;
      for (const int w : wids) out.push_back(w + start_);
      return out;
    };

    std::vector<sim::ResponseChoice> menu;
    if (semantics_ == sim::Semantics::kLinearizable) {
      if (op.is_write()) return {sim::ResponseChoice{op.value, {}}};
      for (const Value v : candidates) {
        if (feasible(WriteOrderMode::kFree, {}, v)) menu.push_back({v, {}});
      }
      return menu;
    }
    const bool is_committed = std::find(committed.begin(), committed.end(),
                                        wid) != committed.end();
    if (op.is_write() && is_committed) {
      return {sim::ResponseChoice{op.value, {}}};
    }
    std::vector<std::vector<int>> batches;
    if (!op.is_write()) batches.emplace_back();
    std::vector<int> current;
    selections(uncommitted, current, 0, batches);
    for (const std::vector<int>& batch : batches) {
      if (op.is_write() &&
          std::find(batch.begin(), batch.end(), wid) == batch.end()) {
        continue;
      }
      std::vector<int> exact = committed;
      exact.insert(exact.end(), batch.begin(), batch.end());
      if (op.is_write()) {
        if (feasible(WriteOrderMode::kExact, exact, op.value)) {
          menu.push_back({op.value, global_ids(batch)});
        }
        continue;
      }
      for (const Value v : candidates) {
        if (feasible(WriteOrderMode::kExact, exact, v)) {
          menu.push_back({v, global_ids(batch)});
        }
      }
    }
    return menu;
  }

  sim::Adversary& inner_;
  sim::Semantics semantics_;
  int start_ = 0;
  int menus_ = 0;
};

TEST(LinWindowOracle, ModelMenusMatchALinProblemReference) {
  int menus = 0;
  for (const auto semantics :
       {sim::Semantics::kLinearizable, sim::Semantics::kWriteStrong}) {
    for (const int processes : {3, 4}) {
      for (const bool random : {true, false}) {
        for (std::uint64_t seed = 0; seed < 300; ++seed) {
          sim::Scheduler sched(seed);
          sched.add_register(0, semantics, 0);
          for (int p = 0; p < processes; ++p) {
            sched.add_process(util::numbered("p", p), [p](sim::Proc& pr) {
              return writes_then_read(pr, p, 2);
            });
          }
          sim::RandomAdversary rand_adv(seed * 1099511628211ULL + 1);
          sim::RoundRobinAdversary rr_adv;
          MenuOracle oracle(random ? static_cast<sim::Adversary&>(rand_adv)
                                   : rr_adv,
                            semantics);
          EXPECT_EQ(sched.run(oracle, 10'000), sim::RunOutcome::kAllDone);
          menus += oracle.menus();
          if (testing::Test::HasFailure()) {
            FAIL() << to_string(semantics) << " p" << processes
                   << (random ? " rand" : " rr") << " seed " << seed;
          }
        }
      }
    }
  }
  EXPECT_GE(menus, 10000);
}

}  // namespace
}  // namespace rlt
