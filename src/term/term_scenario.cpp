#include "term/term_scenario.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <vector>

#include "consensus/composed.hpp"
#include "consensus/rand_consensus.hpp"
#include "consensus/shared_coin.hpp"
#include "game/game_runner.hpp"
#include "sim/adversary.hpp"
#include "sweep/fnv.hpp"
#include "util/append.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace rlt::term {
namespace {

using sweep::fnv_mix_u64;
using sweep::kFnvOffset;
using sweep::kFnvPrime;

/// Derives the adversary's seed stream from the scenario, decorrelated
/// from the scheduler's coin stream (which uses the raw scenario seed).
std::uint64_t adversary_seed(const TermScenario& s) {
  std::uint64_t mix = kFnvOffset;
  fnv_mix_u64(mix, s.seed);
  fnv_mix_u64(mix, static_cast<std::uint64_t>(s.family));
  fnv_mix_u64(mix, static_cast<std::uint64_t>(s.adversary));
  return mix;
}

/// Victims of the stalling adversary: a seeded strict minority, a pure
/// function of (processes, seed) via the picker shared with the safety
/// sweep's stall axis.  Empty unless the adversary is kStalling.
std::vector<sim::ProcessId> stall_victims(const TermScenario& s) {
  if (s.adversary != TermAdversary::kStalling) return {};
  std::uint64_t mix = kFnvOffset;
  fnv_mix_u64(mix, s.seed);
  fnv_mix_u64(mix, 0x57A11ULL);  // domain-separate from adversary_seed
  return sim::pick_strict_minority(s.processes, mix);
}

bool is_stalled(const std::vector<sim::ProcessId>& victims, int p) {
  return std::find(victims.begin(), victims.end(), p) != victims.end();
}

/// Accumulates the outcome fingerprint.
struct Hash {
  std::uint64_t h = kFnvOffset;
  void mix(std::uint64_t x) { fnv_mix_u64(h, x); }
  void mix_i(int x) { fnv_mix_u64(h, static_cast<std::uint64_t>(x)); }
};

/// Folds the record's own digest-relevant fields into its fingerprint
/// (per-family extras were mixed by the drivers before this).
void seal_record(TermRecord& r, Hash& hash) {
  hash.mix(r.terminated ? 1 : 0);
  hash.mix(r.capped ? 1 : 0);
  hash.mix(r.safety_ok ? 1 : 0);
  hash.mix(r.error ? 1 : 0);
  hash.mix_i(r.rounds);
  hash.mix_i(r.stalled);
  hash.mix(r.coin_flips);
  hash.mix(r.steps);
  r.outcome_hash = hash.h;
}

// ---- coroutine bodies (free functions, per CP.51) -----------------------

sim::Task consensus_proc(sim::Proc& p, consensus::ConsensusState& st, int i) {
  (void)co_await consensus_body(p, st, i);
}

sim::Task coin_proc(sim::Proc& p, consensus::SharedCoinConfig cfg, int i,
                    std::vector<int>* outs) {
  (*outs)[static_cast<std::size_t>(i)] =
      co_await consensus::shared_coin_flip(p, cfg, i);
}

// ---- family drivers -----------------------------------------------------

/// Consensus inputs derived deterministically from the scenario seed
/// (mirrors the composed runner's derivation, different stream).
std::vector<int> derive_inputs(const TermScenario& s) {
  util::Rng rng(s.seed ^ 0xC0FFEEULL);
  std::vector<int> in(static_cast<std::size_t>(s.processes));
  for (int& b : in) b = rng.flip();
  return in;
}

void run_consensus_family(const TermScenario& s,
                          const std::vector<sim::ProcessId>& victims,
                          TermRecord& out, Hash& hash) {
  consensus::ConsensusConfig cfg;
  cfg.n = s.processes;
  cfg.max_rounds = s.max_rounds;
  sim::Scheduler sched(s.seed);
  consensus::ConsensusState st(cfg, derive_inputs(s));
  setup_consensus(sched, cfg, sim::Semantics::kAtomic);
  for (int i = 0; i < cfg.n; ++i) {
    sched.add_process("c" + std::to_string(i), [&st, i](sim::Proc& p) {
      return consensus_proc(p, st, i);
    });
  }
  sim::RunOutcome outcome;
  if (victims.empty()) {
    sim::RandomAdversary adv(adversary_seed(s));
    outcome = sched.run(adv, s.max_actions);
  } else {
    sim::StallingAdversary adv(victims, adversary_seed(s));
    outcome = sched.run(adv, s.max_actions);
  }
  out.terminated = true;
  for (int i = 0; i < cfg.n; ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    hash.mix_i(st.inputs[ui]);
    hash.mix_i(st.decisions[ui]);
    hash.mix_i(st.decided_round[ui]);
    if (is_stalled(victims, i)) continue;
    if (st.decisions[ui] < 0) out.terminated = false;
    out.rounds = std::max(out.rounds, st.decided_round[ui]);
  }
  if (!out.terminated) out.rounds = 0;
  out.capped = st.hit_round_cap || outcome == sim::RunOutcome::kActionCap;
  out.safety_ok = st.agreement() && st.validity();
  if (!out.safety_ok) out.detail = "consensus agreement/validity violated";
  out.coin_flips = sched.coin_log().size();
  out.steps = sched.actions_applied();
}

void run_coin_family(const TermScenario& s,
                     const std::vector<sim::ProcessId>& victims,
                     TermRecord& out, Hash& hash) {
  consensus::SharedCoinConfig cfg;
  cfg.n = s.processes;
  cfg.first_reg = 0;
  cfg.threshold_per_proc = 2;
  sim::Scheduler sched(s.seed);
  setup_shared_coin(sched, cfg, sim::Semantics::kAtomic);
  std::vector<int> outs(static_cast<std::size_t>(cfg.n), -1);
  for (int i = 0; i < cfg.n; ++i) {
    sched.add_process("coin" + std::to_string(i),
                      [cfg, i, &outs](sim::Proc& p) {
                        return coin_proc(p, cfg, i, &outs);
                      });
  }
  // The coin has no round structure of its own, so the round budget caps
  // the random walk through the action budget: roughly max_rounds flip
  // iterations per process (each iteration is a flip, a counter write,
  // and n counter reads).  Tight budgets genuinely cap long walks —
  // the axis is live for this family too, not just a key suffix.
  const std::uint64_t budget =
      std::min(s.max_actions,
               static_cast<std::uint64_t>(s.max_rounds + 2) *
                   static_cast<std::uint64_t>(s.processes) *
                   static_cast<std::uint64_t>(s.processes + 6));
  sim::RunOutcome outcome;
  if (victims.empty()) {
    sim::RandomAdversary adv(adversary_seed(s));
    outcome = sched.run(adv, budget);
  } else {
    sim::StallingAdversary adv(victims, adversary_seed(s));
    outcome = sched.run(adv, budget);
  }
  // Personal walk length per process: its own coin flips.
  std::vector<int> flips(static_cast<std::size_t>(cfg.n), 0);
  for (const sim::CoinRecord& c : sched.coin_log()) {
    ++flips[static_cast<std::size_t>(c.process)];
  }
  out.terminated = true;
  for (int i = 0; i < cfg.n; ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    hash.mix_i(outs[ui]);
    hash.mix_i(flips[ui]);
    if (is_stalled(victims, i)) continue;
    if (outs[ui] < 0) out.terminated = false;
    out.rounds = std::max(out.rounds, flips[ui]);
  }
  if (!out.terminated) out.rounds = 0;
  out.capped = outcome == sim::RunOutcome::kActionCap;
  out.coin_flips = sched.coin_log().size();
  out.steps = sched.actions_applied();
}

void run_game_family(const TermScenario& s,
                     const std::vector<sim::ProcessId>& victims,
                     TermRecord& out, Hash& hash) {
  game::GameConfig cfg;
  cfg.n = s.processes;
  cfg.max_rounds = s.max_rounds;
  game::GameState state(cfg);
  game::GameRunResult gr;
  int doomed_round = 0;
  if (s.adversary == TermAdversary::kScripted) {
    // Theorem 6's regime: merely linearizable registers, the scripted
    // strong adversary.  The script survives every round — the game only
    // stops at the structural round cap.
    game::GameScriptAdversary adv(cfg, game::CommitStrategy::kRandomOrder,
                                  adversary_seed(s));
    const std::uint64_t budget =
        std::min(s.max_actions,
                 static_cast<std::uint64_t>(cfg.max_rounds + 2) *
                     (static_cast<std::uint64_t>(cfg.n) * 24 + 64));
    gr = game::run_game_adversary(state, sim::Semantics::kLinearizable, adv,
                                  budget, s.seed);
    doomed_round = adv.stats().doomed_round;
  } else {
    const std::uint64_t budget =
        std::min(s.max_actions,
                 static_cast<std::uint64_t>(cfg.max_rounds + 2) *
                     (static_cast<std::uint64_t>(cfg.n) * 400 + 4000));
    if (victims.empty()) {
      sim::RandomAdversary adv(adversary_seed(s));
      gr = game::run_game_adversary(state, sim::Semantics::kAtomic, adv,
                                    budget, s.seed);
    } else {
      sim::StallingAdversary adv(victims, adversary_seed(s));
      gr = game::run_game_adversary(state, sim::Semantics::kAtomic, adv,
                                    budget, s.seed);
    }
  }
  out.terminated = true;
  int live_exit = 0;
  for (int i = 0; i < cfg.n; ++i) {
    const game::ProcStatus& p = state.procs[static_cast<std::size_t>(i)];
    hash.mix_i(p.returned ? 1 : 0);
    hash.mix_i(p.exit_round);
    hash.mix_i(static_cast<int>(p.exit_line));
    if (is_stalled(victims, i)) continue;
    if (!p.returned) out.terminated = false;
    live_exit = std::max(live_exit, p.exit_round);
  }
  if (out.terminated) {
    out.rounds = doomed_round != 0 ? doomed_round : live_exit;
  }
  // A non-terminated game is always budget-bound: either a process saw
  // the structural round cap itself, the action budget ran out, or the
  // script stopped scheduling after driving its last budgeted round
  // (kStopped before any process re-entered the loop to notice the cap —
  // the Theorem 6 steady state).
  out.capped = gr.capped || gr.outcome == sim::RunOutcome::kActionCap ||
               (!out.terminated && gr.outcome == sim::RunOutcome::kStopped);
  out.coin_flips = gr.coin_flips;
  out.steps = gr.actions;
}

void run_composed_family(const TermScenario& s,
                         const std::vector<sim::ProcessId>& victims,
                         TermRecord& out, Hash& hash) {
  game::GameConfig gc;
  gc.n = s.processes;
  gc.max_rounds = s.max_rounds;
  consensus::ConsensusConfig cc;
  cc.n = s.processes;
  cc.max_rounds = s.max_rounds;
  consensus::ComposedStats st;
  if (s.adversary == TermAdversary::kScripted) {
    // The positive side of Corollary 9: write strongly-linearizable game
    // registers force the script to commit before the coin; the game
    // dies geometrically fast and consensus then runs on atomic regs.
    game::GameScriptAdversary adv(gc, game::CommitStrategy::kRandomOrder,
                                  adversary_seed(s));
    const std::uint64_t budget = std::min(
        s.max_actions,
        static_cast<std::uint64_t>(gc.max_rounds + 2) *
                (static_cast<std::uint64_t>(gc.n) * 24 + 64) +
            static_cast<std::uint64_t>(cc.max_rounds + 2) *
                (static_cast<std::uint64_t>(gc.n) * 600 + 2000));
    st = consensus::run_composed_adversary(gc, cc, sim::Semantics::kWriteStrong,
                                           adv, budget, s.seed);
  } else {
    const std::uint64_t budget = std::min(
        s.max_actions,
        static_cast<std::uint64_t>(gc.max_rounds + 2) *
                (static_cast<std::uint64_t>(gc.n) * 400 + 4000) +
            static_cast<std::uint64_t>(cc.max_rounds + 2) *
                (static_cast<std::uint64_t>(gc.n) * 2000 + 8000));
    if (victims.empty()) {
      sim::RandomAdversary adv(adversary_seed(s));
      st = consensus::run_composed_adversary(gc, cc, sim::Semantics::kAtomic,
                                             adv, budget, s.seed);
    } else {
      sim::StallingAdversary adv(victims, adversary_seed(s));
      st = consensus::run_composed_adversary(gc, cc, sim::Semantics::kAtomic,
                                             adv, budget, s.seed);
    }
  }
  out.terminated = true;
  for (int i = 0; i < s.processes; ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    hash.mix_i(st.game_returned[ui] ? 1 : 0);
    hash.mix_i(st.decisions[ui]);
    hash.mix_i(st.decided_round[ui]);
    if (is_stalled(victims, i)) continue;
    if (!st.game_returned[ui] || st.decisions[ui] < 0) out.terminated = false;
    out.rounds = std::max(out.rounds, st.decided_round[ui]);
  }
  if (!out.terminated) out.rounds = 0;
  hash.mix_i(st.game_rounds);
  out.capped = st.game_capped || st.consensus_capped ||
               st.outcome == sim::RunOutcome::kActionCap;
  out.safety_ok = st.agreement && st.validity;
  if (!out.safety_ok) out.detail = "composed agreement/validity violated";
  out.coin_flips = st.coin_flips;
  out.steps = st.actions;
}

}  // namespace

const char* to_string(Family f) noexcept {
  switch (f) {
    case Family::kConsensus: return "consensus";
    case Family::kComposed: return "composed";
    case Family::kSharedCoin: return "coin";
    case Family::kGame: return "game";
  }
  return "?";
}

const char* to_string(TermAdversary a) noexcept {
  switch (a) {
    case TermAdversary::kScripted: return "scripted";
    case TermAdversary::kRandom: return "rand";
    case TermAdversary::kStalling: return "stall";
  }
  return "?";
}

bool combination_valid(Family f, TermAdversary a) noexcept {
  if (a != TermAdversary::kScripted) return true;
  return f == Family::kComposed || f == Family::kGame;
}

std::string TermScenario::key() const {
  std::string k = "term/";
  k += to_string(family);
  k += '/';
  k += to_string(adversary);
  k += "/p";
  util::append_int(k, processes);
  k += "/r";
  util::append_int(k, max_rounds);
  k += "/seed";
  util::append_int(k, seed);
  return k;
}

TermProbe run_term_probe(const TermProbeSpec& spec,
                         sim::Adversary& adversary) {
  RLT_CHECK_MSG(spec.processes >= 1 && spec.processes <= 64,
                "probe processes out of range");
  RLT_CHECK_MSG(
      spec.processes >= 3 || (spec.family != Family::kGame &&
                              spec.family != Family::kComposed),
      "the game families need >= 3 processes");
  RLT_CHECK_MSG(spec.max_rounds >= 1, "probe round budget must be positive");
  const int n = spec.processes;
  const std::uint64_t cap_score =
      static_cast<std::uint64_t>(spec.max_rounds) + 1;
  TermProbe out;
  Hash hash;
  hash.mix(static_cast<std::uint64_t>(spec.family));
  switch (spec.family) {
    case Family::kConsensus: {
      consensus::ConsensusConfig cfg;
      cfg.n = n;
      cfg.max_rounds = spec.max_rounds;
      sim::Scheduler sched(spec.seed);
      TermScenario inputs_key;  // reuse the scenario input derivation
      inputs_key.processes = n;
      inputs_key.seed = spec.seed;
      consensus::ConsensusState st(cfg, derive_inputs(inputs_key));
      setup_consensus(sched, cfg, sim::Semantics::kAtomic);
      for (int i = 0; i < cfg.n; ++i) {
        sched.add_process("c" + std::to_string(i), [&st, i](sim::Proc& p) {
          return consensus_proc(p, st, i);
        });
      }
      const sim::RunOutcome outcome = sched.run(adversary, spec.max_actions);
      out.decided = true;
      int max_round = 0;
      for (int i = 0; i < cfg.n; ++i) {
        const std::size_t ui = static_cast<std::size_t>(i);
        hash.mix_i(st.decisions[ui]);
        hash.mix_i(st.decided_round[ui]);
        if (st.decisions[ui] < 0) out.decided = false;
        max_round = std::max(max_round, st.decided_round[ui]);
      }
      out.capped = st.hit_round_cap || outcome == sim::RunOutcome::kActionCap;
      out.rounds_reached = st.max_round_entered;
      out.rounds_score = out.decided ? static_cast<std::uint64_t>(max_round)
                         : st.hit_round_cap
                             ? cap_score
                             : static_cast<std::uint64_t>(out.rounds_reached);
      out.steps = sched.actions_applied();
      out.coin_flips = sched.coin_log().size();
      break;
    }
    case Family::kSharedCoin: {
      consensus::SharedCoinConfig cfg;
      cfg.n = n;
      cfg.first_reg = 0;
      cfg.threshold_per_proc = 2;
      sim::Scheduler sched(spec.seed);
      setup_shared_coin(sched, cfg, sim::Semantics::kAtomic);
      std::vector<int> outs(static_cast<std::size_t>(cfg.n), -1);
      for (int i = 0; i < cfg.n; ++i) {
        sched.add_process("coin" + std::to_string(i),
                          [cfg, i, &outs](sim::Proc& p) {
                            return coin_proc(p, cfg, i, &outs);
                          });
      }
      const std::uint64_t budget =
          std::min(spec.max_actions,
                   static_cast<std::uint64_t>(spec.max_rounds + 2) *
                       static_cast<std::uint64_t>(n) *
                       static_cast<std::uint64_t>(n + 6));
      const sim::RunOutcome outcome = sched.run(adversary, budget);
      std::vector<int> flips(static_cast<std::size_t>(cfg.n), 0);
      for (const sim::CoinRecord& c : sched.coin_log()) {
        ++flips[static_cast<std::size_t>(c.process)];
      }
      out.decided = true;
      int longest = 0;
      for (int i = 0; i < cfg.n; ++i) {
        const std::size_t ui = static_cast<std::size_t>(i);
        hash.mix_i(outs[ui]);
        hash.mix_i(flips[ui]);
        if (outs[ui] < 0) out.decided = false;
        longest = std::max(longest, flips[ui]);
      }
      out.capped = outcome == sim::RunOutcome::kActionCap;
      out.rounds_reached = longest;
      // The walk has no structural cap: the objective is the longest
      // personal walk the adversary sustained, decided or not.
      out.rounds_score = static_cast<std::uint64_t>(longest);
      out.steps = sched.actions_applied();
      out.coin_flips = sched.coin_log().size();
      break;
    }
    case Family::kGame: {
      game::GameConfig cfg;
      cfg.n = n;
      cfg.max_rounds = spec.max_rounds;
      game::GameState state(cfg);
      const std::uint64_t budget =
          std::min(spec.max_actions,
                   static_cast<std::uint64_t>(cfg.max_rounds + 2) *
                       (static_cast<std::uint64_t>(cfg.n) * 400 + 4000));
      const game::GameRunResult gr = game::run_game_adversary(
          state, spec.game_semantics, adversary, budget, spec.seed);
      for (int i = 0; i < cfg.n; ++i) {
        const game::ProcStatus& p = state.procs[static_cast<std::size_t>(i)];
        hash.mix_i(p.returned ? 1 : 0);
        hash.mix_i(p.exit_round);
        hash.mix_i(static_cast<int>(p.exit_line));
      }
      out.decided = gr.terminated;
      out.capped = gr.capped || gr.outcome == sim::RunOutcome::kActionCap;
      out.rounds_reached = gr.rounds_reached;
      out.rounds_score =
          out.decided ? static_cast<std::uint64_t>(gr.termination_round)
          : out.capped ? cap_score
                       : static_cast<std::uint64_t>(gr.rounds_reached);
      out.steps = gr.actions;
      out.coin_flips = gr.coin_flips;
      break;
    }
    case Family::kComposed: {
      game::GameConfig gc;
      gc.n = n;
      gc.max_rounds = spec.max_rounds;
      consensus::ConsensusConfig cc;
      cc.n = n;
      cc.max_rounds = spec.max_rounds;
      const std::uint64_t budget = std::min(
          spec.max_actions,
          static_cast<std::uint64_t>(gc.max_rounds + 2) *
                  (static_cast<std::uint64_t>(gc.n) * 400 + 4000) +
              static_cast<std::uint64_t>(cc.max_rounds + 2) *
                  (static_cast<std::uint64_t>(gc.n) * 2000 + 8000));
      const consensus::ComposedStats st = consensus::run_composed_adversary(
          gc, cc, spec.game_semantics, adversary, budget, spec.seed);
      out.decided = true;
      int max_round = 0;
      for (int i = 0; i < n; ++i) {
        const std::size_t ui = static_cast<std::size_t>(i);
        hash.mix_i(st.game_returned[ui] ? 1 : 0);
        hash.mix_i(st.decisions[ui]);
        hash.mix_i(st.decided_round[ui]);
        if (!st.game_returned[ui] || st.decisions[ui] < 0) {
          out.decided = false;
        }
        max_round = std::max(max_round, st.decided_round[ui]);
      }
      hash.mix_i(st.game_rounds);
      out.capped = st.game_capped || st.consensus_capped ||
                   st.outcome == sim::RunOutcome::kActionCap;
      out.rounds_reached = st.game_rounds;
      out.rounds_score =
          out.decided ? static_cast<std::uint64_t>(max_round)
          : (st.game_capped || st.consensus_capped)
              ? cap_score
              : static_cast<std::uint64_t>(st.game_rounds);
      out.steps = st.actions;
      out.coin_flips = st.coin_flips;
      break;
    }
  }
  hash.mix(out.decided ? 1 : 0);
  hash.mix(out.capped ? 1 : 0);
  hash.mix_i(out.rounds_reached);
  hash.mix(out.rounds_score);
  hash.mix(out.coin_flips);
  hash.mix(out.steps);
  out.outcome_hash = hash.h;
  return out;
}

TermRecord run_term_scenario(const TermScenario& s) {
  TermRecord out;
  Hash hash;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    RLT_CHECK_MSG(combination_valid(s.family, s.adversary),
                  "the scripted adversary only drives the game-register "
                  "families (composed, game)");
    RLT_CHECK_MSG(s.processes >= 1 && s.processes <= 64,
                  "scenario processes out of range");
    RLT_CHECK_MSG(
        s.processes >= 3 || (s.family != Family::kGame &&
                             s.family != Family::kComposed),
        "the game families need >= 3 processes");
    RLT_CHECK_MSG(s.max_rounds >= 1, "round budget must be positive");
    const std::vector<sim::ProcessId> victims = stall_victims(s);
    out.stalled = static_cast<int>(victims.size());
    switch (s.family) {
      case Family::kConsensus:
        run_consensus_family(s, victims, out, hash);
        break;
      case Family::kComposed:
        run_composed_family(s, victims, out, hash);
        break;
      case Family::kSharedCoin:
        run_coin_family(s, victims, out, hash);
        break;
      case Family::kGame:
        run_game_family(s, victims, out, hash);
        break;
    }
  } catch (const std::exception& e) {
    out = TermRecord{};
    out.error = true;
    out.detail = std::string("error: ") + e.what();
    hash = Hash{};
  } catch (...) {
    out = TermRecord{};
    out.error = true;
    out.detail = "error: unknown exception";
    hash = Hash{};
  }
  seal_record(out, hash);
  out.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return out;
}

}  // namespace rlt::term
