// Harness for running Algorithm 1 under the three register semantics and
// collecting the statistics the paper's claims are about.  Every game run
// goes through run_game_adversary, with an action budget from one of the
// two named formulas below; the termination lab (src/term/) uses the
// same entry point and budgets.
#pragma once

#include <cstdint>
#include <vector>

#include "game/theorem6_adversary.hpp"
#include "sim/regmodel.hpp"

namespace rlt::game {

/// Outcome of one game execution.
struct GameRunResult {
  sim::RunOutcome outcome = sim::RunOutcome::kStopped;
  bool terminated = false;   ///< All processes returned (lines 16/36).
  bool capped = false;       ///< Some process hit the structural round cap.
  int rounds_reached = 0;    ///< Highest round entered by any process.
  int termination_round = 0; ///< Round the game died in (0 if it never did).
  std::uint64_t actions = 0; ///< Scheduler actions consumed.
  std::uint64_t coin_flips = 0;  ///< Scheduler coin flips (p0's line 6).
  std::vector<int> coins;    ///< p0's coin per round (1-based, -1 unset).
};

/// Action budget for a run under the scripted adversary: generous, since
/// the script uses a bounded number of actions per round.
[[nodiscard]] std::uint64_t scripted_game_budget(const GameConfig& cfg);

/// Action budget for a run under random schedules, which are far less
/// action-efficient than the script; it guards against pathological
/// schedules only.
[[nodiscard]] std::uint64_t random_game_budget(const GameConfig& cfg);

/// Runs the game in a caller-built `state` under a caller-supplied
/// adversary (`seed` seeds the scheduler's coin RNG).  The scripted /
/// random helpers below are wrappers; the termination lab's game driver
/// calls this directly and reads per-process status out of `state`.
[[nodiscard]] GameRunResult run_game_adversary(GameState& state,
                                               sim::Semantics semantics,
                                               sim::Adversary& adversary,
                                               std::uint64_t budget,
                                               std::uint64_t seed);

/// Runs the game with the scripted adversary (Theorem 6 schedule /
/// best-effort WSL variant).  `semantics` must be kLinearizable or
/// kWriteStrong (the script responds to pending operations, which atomic
/// registers never have).
[[nodiscard]] GameRunResult run_scripted_game(const GameConfig& cfg,
                                              sim::Semantics semantics,
                                              CommitStrategy strategy,
                                              std::uint64_t seed);

/// Runs the game under a uniformly random strong adversary (any
/// semantics, including atomic).
[[nodiscard]] GameRunResult run_random_game(const GameConfig& cfg,
                                            sim::Semantics semantics,
                                            std::uint64_t seed);

/// Termination-round histogram over many seeds (Theorem 7's experiment).
struct TerminationDistribution {
  std::vector<int> rounds;     ///< Termination round per seed (0 = capped).
  int capped_runs = 0;         ///< Runs that hit the round cap.
  double mean_round = 0.0;     ///< Mean over terminated runs.
  /// P(termination round > k) for k = 0..max observed (index k).
  std::vector<double> survival;
};

[[nodiscard]] TerminationDistribution measure_termination_rounds(
    const GameConfig& cfg, sim::Semantics semantics, CommitStrategy strategy,
    std::uint64_t base_seed, int runs);

}  // namespace rlt::game
