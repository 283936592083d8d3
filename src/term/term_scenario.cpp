#include "term/term_scenario.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <utility>
#include <vector>

#include "consensus/composed.hpp"
#include "consensus/rand_consensus.hpp"
#include "consensus/shared_coin.hpp"
#include "game/game_runner.hpp"
#include "sim/adversary.hpp"
#include "sweep/fnv.hpp"
#include "util/append.hpp"
#include "util/assert.hpp"

namespace rlt::term {
namespace {

using sweep::fnv_mix_u64;
using sweep::kFnvOffset;

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

/// Accumulates the outcome fingerprint.
struct Hash {
  std::uint64_t h = kFnvOffset;
  void mix(std::uint64_t x) { fnv_mix_u64(h, x); }
  void mix_i(int x) { fnv_mix_u64(h, static_cast<std::uint64_t>(x)); }
};

/// Folds the record's own digest-relevant fields into its fingerprint
/// (the process rows were mixed by mix_rows before this).
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

// ---- family drivers (see the header) --------------------------------------

/// One process's end state, in its family's terms.
struct ProcRow {
  int input = -1;         ///< Consensus input (kConsensus).
  bool returned = false;  ///< Returned from the game (kGame, kComposed).
  int value = -1;         ///< Decision or coin output (not kGame); -1 = none.
  /// Decision round, own coin flips (kSharedCoin) or game exit round.
  int round = 0;
  int exit_line = 0;      ///< Game exit line (kGame).
};

/// What one family driver run produced.
struct FamilyRun {
  std::vector<ProcRow> rows{};
  sim::RunOutcome outcome = sim::RunOutcome::kStopped;
  bool round_capped = false;  ///< Some process hit a structural round cap.
  /// Highest round entered (game round for kComposed, longest personal
  /// walk for kSharedCoin).
  int rounds_reached = 0;
  bool safety_ok = true;  ///< Agreement + validity (consensus families).
  std::uint64_t steps = 0;
  std::uint64_t coin_flips = 0;
};

bool plays_game(Family f) {
  return f == Family::kGame || f == Family::kComposed;
}

/// The run shapes both entry points accept.
void check_shape(Family f, int processes, int max_rounds) {
  RLT_CHECK_MSG(processes >= 1 && processes <= 64, "processes out of range");
  RLT_CHECK_MSG(processes >= 3 || !plays_game(f),
                "the game families need >= 3 processes");
  RLT_CHECK_MSG(max_rounds >= 1, "round budget must be positive");
}

/// `spec.max_actions` tightened by the family's own budget formula
/// (consensus has none).
std::uint64_t family_budget(const TermProbeSpec& spec, bool scripted) {
  const game::GameConfig gc{.n = spec.processes,
                            .max_rounds = spec.max_rounds};
  const consensus::ConsensusConfig cc{.n = spec.processes,
                                      .max_rounds = spec.max_rounds};
  std::uint64_t budget = spec.max_actions;
  switch (spec.family) {
    case Family::kConsensus:
      break;
    case Family::kSharedCoin:
      budget = consensus::coin_walk_budget(spec.processes, spec.max_rounds);
      break;
    case Family::kGame:
      budget = scripted ? game::scripted_game_budget(gc)
                        : game::random_game_budget(gc);
      break;
    case Family::kComposed:
      budget = scripted ? consensus::scripted_composed_budget(gc, cc)
                        : consensus::random_composed_budget(gc, cc);
      break;
  }
  return std::min(spec.max_actions, budget);
}

FamilyRun run_consensus(const TermProbeSpec& spec, sim::Adversary& adv) {
  const consensus::ConsensusConfig cfg{.n = spec.processes,
                                       .max_rounds = spec.max_rounds};
  consensus::ConsensusState st(cfg, consensus::seeded_inputs(cfg.n, spec.seed));
  sim::Scheduler sched(spec.seed);
  setup_consensus(sched, cfg, sim::Semantics::kAtomic);
  for (int i = 0; i < cfg.n; ++i) {
    sched.add_process(util::numbered("c", i), [&st, i](sim::Proc& p) {
      return consensus_proc(p, st, i);
    });
  }
  FamilyRun run{.outcome = sched.run(adv, spec.max_actions),
                .round_capped = st.hit_round_cap,
                .rounds_reached = st.max_round_entered,
                .safety_ok = st.agreement() && st.validity(),
                .steps = sched.actions_applied(),
                .coin_flips = sched.coin_log().size()};
  for (std::size_t i = 0; i < st.inputs.size(); ++i) {
    run.rows.push_back({.input = st.inputs[i],
                        .value = st.decisions[i],
                        .round = st.decided_round[i]});
  }
  return run;
}

FamilyRun run_coin(const TermProbeSpec& spec, sim::Adversary& adv) {
  const consensus::SharedCoinConfig cfg{
      .n = spec.processes, .first_reg = 0, .threshold_per_proc = 2};
  std::vector<int> outs(static_cast<std::size_t>(cfg.n), -1);
  sim::Scheduler sched(spec.seed);
  setup_shared_coin(sched, cfg, sim::Semantics::kAtomic);
  for (int i = 0; i < cfg.n; ++i) {
    sched.add_process(util::numbered("coin", i),
                      [cfg, i, &outs](sim::Proc& p) {
                        return coin_proc(p, cfg, i, &outs);
                      });
  }
  FamilyRun run{.outcome = sched.run(adv, spec.max_actions),
                .steps = sched.actions_applied(),
                .coin_flips = sched.coin_log().size()};
  for (const int out : outs) run.rows.push_back({.value = out});
  // Personal walk length per process: its own coin flips.
  for (const sim::CoinRecord& c : sched.coin_log()) {
    ProcRow& row = run.rows[static_cast<std::size_t>(c.process)];
    run.rounds_reached = std::max(run.rounds_reached, ++row.round);
  }
  return run;
}

FamilyRun run_game(const TermProbeSpec& spec, sim::Adversary& adv) {
  game::GameState state(
      game::GameConfig{.n = spec.processes, .max_rounds = spec.max_rounds});
  const game::GameRunResult gr = game::run_game_adversary(
      state, spec.game_semantics, adv, spec.max_actions, spec.seed);
  FamilyRun run{.outcome = gr.outcome,
                .round_capped = gr.capped,
                .rounds_reached = gr.rounds_reached,
                .steps = gr.actions,
                .coin_flips = gr.coin_flips};
  for (const game::ProcStatus& p : state.procs) {
    run.rows.push_back({.returned = p.returned,
                        .round = p.exit_round,
                        .exit_line = static_cast<int>(p.exit_line)});
  }
  return run;
}

FamilyRun run_composed(const TermProbeSpec& spec, sim::Adversary& adv) {
  const consensus::ComposedStats st = consensus::run_composed_adversary(
      game::GameConfig{.n = spec.processes, .max_rounds = spec.max_rounds},
      consensus::ConsensusConfig{.n = spec.processes,
                                 .max_rounds = spec.max_rounds},
      spec.game_semantics, adv, spec.max_actions, spec.seed);
  FamilyRun run{.outcome = st.outcome,
                .round_capped = st.game_capped || st.consensus_capped,
                .rounds_reached = st.game_rounds,
                .safety_ok = st.agreement && st.validity,
                .steps = st.actions,
                .coin_flips = st.coin_flips};
  for (std::size_t i = 0; i < st.decisions.size(); ++i) {
    run.rows.push_back({.returned = st.game_returned[i],
                        .value = st.decisions[i],
                        .round = st.decided_round[i]});
  }
  return run;
}

FamilyRun run_family(const TermProbeSpec& spec, sim::Adversary& adv) {
  switch (spec.family) {
    case Family::kConsensus: return run_consensus(spec, adv);
    case Family::kSharedCoin: return run_coin(spec, adv);
    case Family::kGame: return run_game(spec, adv);
    case Family::kComposed: return run_composed(spec, adv);
  }
  return {};
}

/// Mixes every process row into `hash`: the fields its family fills, in
/// process order; the sweep's consensus rows lead with the input.
void mix_rows(Hash& hash, Family f, const FamilyRun& run, bool inputs) {
  for (const ProcRow& row : run.rows) {
    if (inputs) hash.mix_i(row.input);
    if (plays_game(f)) hash.mix_i(row.returned ? 1 : 0);
    if (f != Family::kGame) hash.mix_i(row.value);
    hash.mix_i(row.round);
    if (f == Family::kGame) hash.mix_i(row.exit_line);
  }
  if (f == Family::kComposed) hash.mix_i(run.rounds_reached);
}

/// Whether every process outside `skip` completed its protocol (returned
/// from the game and/or decided or output a coin value), and the highest
/// round among them.
std::pair<bool, int> completion(Family f, const FamilyRun& run,
                                const std::vector<sim::ProcessId>& skip) {
  bool all = true;
  int round = 0;
  for (std::size_t i = 0; i < run.rows.size(); ++i) {
    if (std::find(skip.begin(), skip.end(), static_cast<int>(i)) !=
        skip.end()) {
      continue;
    }
    const ProcRow& row = run.rows[i];
    all = all && (!plays_game(f) || row.returned) &&
          (f == Family::kGame || row.value >= 0);
    round = std::max(round, row.round);
  }
  return {all, round};
}

/// The scenario's adversary: the Theorem 6 script, a stalling adversary
/// over `victims`, or a uniformly random one.
std::unique_ptr<sim::Adversary> make_term_adversary(
    const TermScenario& s, const std::vector<sim::ProcessId>& victims) {
  if (s.adversary == TermAdversary::kScripted) {
    return std::make_unique<game::GameScriptAdversary>(
        game::GameConfig{.n = s.processes, .max_rounds = s.max_rounds},
        game::CommitStrategy::kRandomOrder, adversary_seed(s));
  }
  if (victims.empty()) {
    return std::make_unique<sim::RandomAdversary>(adversary_seed(s));
  }
  return std::make_unique<sim::StallingAdversary>(victims, adversary_seed(s));
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
  return a != TermAdversary::kScripted || plays_game(f);
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
  check_shape(spec.family, spec.processes, spec.max_rounds);
  TermProbeSpec budgeted = spec;
  budgeted.max_actions = family_budget(spec, /*scripted=*/false);
  const FamilyRun run = run_family(budgeted, adversary);
  TermProbe out;
  Hash hash;
  hash.mix(static_cast<std::uint64_t>(spec.family));
  mix_rows(hash, spec.family, run, /*inputs=*/false);
  const auto [decided, max_round] = completion(spec.family, run, {});
  out.decided = decided;
  out.capped =
      run.round_capped || run.outcome == sim::RunOutcome::kActionCap;
  out.rounds_reached = run.rounds_reached;
  // An undecided run scores the cap when it hit a structural round cap;
  // the game also scores an action-capped run that way.  The coin has no
  // structural cap, so its score is always its longest walk.
  const bool cap_scored =
      spec.family == Family::kGame ? out.capped : run.round_capped;
  out.rounds_score =
      out.decided  ? static_cast<std::uint64_t>(max_round)
      : cap_scored ? static_cast<std::uint64_t>(spec.max_rounds) + 1
                   : static_cast<std::uint64_t>(out.rounds_reached);
  out.steps = run.steps;
  out.coin_flips = run.coin_flips;
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
    check_shape(s.family, s.processes, s.max_rounds);
    const std::vector<sim::ProcessId> victims = stall_victims(s);
    out.stalled = static_cast<int>(victims.size());
    // Scripted runs put the game registers where Theorem 6 (kGame:
    // linearizable) or Corollary 9 (kComposed: write strongly-
    // linearizable) puts them, with the script's budget; every other run
    // is atomic, with the random budget.
    const bool scripted = s.adversary == TermAdversary::kScripted;
    TermProbeSpec spec{.family = s.family,
                       .processes = s.processes,
                       .max_rounds = s.max_rounds,
                       .max_actions = s.max_actions,
                       .seed = s.seed,
                       .game_semantics =
                           !scripted ? sim::Semantics::kAtomic
                           : s.family == Family::kGame
                               ? sim::Semantics::kLinearizable
                               : sim::Semantics::kWriteStrong};
    spec.max_actions = family_budget(spec, scripted);
    const std::unique_ptr<sim::Adversary> adversary =
        make_term_adversary(s, victims);
    const FamilyRun run = run_family(spec, *adversary);
    mix_rows(hash, s.family, run, s.family == Family::kConsensus);
    // Stalled processes never run, so termination and the termination
    // round are read over the live ones.
    const auto [terminated, live_round] = completion(s.family, run, victims);
    out.terminated = terminated;
    if (terminated) out.rounds = live_round;
    if (terminated && scripted && s.family == Family::kGame) {
      // The script knows the round it doomed the game in.
      const int doomed =
          static_cast<const game::GameScriptAdversary&>(*adversary)
              .stats()
              .doomed_round;
      if (doomed != 0) out.rounds = doomed;
    }
    out.capped = run.round_capped ||
                 run.outcome == sim::RunOutcome::kActionCap ||
                 (s.family == Family::kGame && !out.terminated &&
                  run.outcome == sim::RunOutcome::kStopped);
    out.safety_ok = run.safety_ok;
    if (!out.safety_ok) {
      out.detail = to_string(s.family);
      out.detail += " agreement/validity violated";
    }
    out.coin_flips = run.coin_flips;
    out.steps = run.steps;
  } catch (const std::exception& e) {
    out = TermRecord{};
    out.error = true;
    out.detail = "error: ";
    out.detail += e.what();
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
