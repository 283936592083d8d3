// One termination-lab scenario: a fully determined point in the
// cross-product
//
//   algorithm family × adversary × process count × round budget × seed
//
// explored by the termination sweep (src/term/term_sweep.hpp).  Where
// the safety sweep (src/sweep/) asks "is every recorded history
// linearizable?", the termination lab asks the question the paper is
// actually about: DOES the randomized algorithm terminate, and how is
// its termination round distributed — the property Theorem 6 shows a
// strong adversary can destroy when the registers are merely
// linearizable.
//
// Scenario families (the `Family` axis):
//
//  * kConsensus — the randomized binary consensus of Corollary 9 ("task
//    T") standalone, on atomic registers.  Terminates with probability 1
//    under any strong adversary; agreement/validity are asserted per run.
//  * kComposed — A' = (Algorithm 1 ; consensus).  Under the scripted
//    adversary the game registers are write strongly-linearizable: the
//    game dies geometrically fast and consensus then decides (the
//    positive side of Corollary 9).  Under random/stalling adversaries
//    the game registers are atomic.
//  * kSharedCoin — the drift weak shared coin, one flip per process, on
//    atomic registers.  The random walk crosses its threshold with
//    probability 1.
//  * kGame — Algorithm 1 alone.  Under the scripted Theorem 6 adversary
//    the registers are merely LINEARIZABLE and the game NEVER terminates:
//    every scenario ends round-capped, which is the paper's headline
//    separation.  Under random/stalling adversaries the registers are
//    atomic and the game dies quickly.
//
// The adversary axis:
//
//  * kScripted — the Theorem 6 strong adversary (game-register families
//    only; the consensus/coin families have no script).
//  * kRandom — uniformly random among enabled actions.
//  * kStalling — a seeded strict minority of processes is never
//    scheduled (sim::StallingAdversary).  "Terminated" then means every
//    LIVE process completed its protocol — the wait-freedom /
//    fault-tolerance reading of termination.
//
// Each family has one driver (in term_scenario.cpp): it builds the
// family's scheduler and processes, runs them under an adversary, an
// action budget and the game registers' semantics, and reports one row
// per process.  run_term_scenario and run_term_probe are two folds over
// that result; the budgets are the named formulas in src/game/ and
// src/consensus/.
#pragma once

#include <cstdint>
#include <string>

#include "sim/regmodel.hpp"

namespace rlt::sim {
class Adversary;
}  // namespace rlt::sim

namespace rlt::term {

/// Which algorithm family the scenario measures termination of.
enum class Family : std::uint8_t {
  kConsensus,   ///< Randomized binary consensus (task T), atomic regs.
  kComposed,    ///< Corollary 9's A' = (Algorithm 1 ; consensus).
  kSharedCoin,  ///< Drift weak shared coin, one flip per process.
  kGame,        ///< Algorithm 1 alone (scripted = Theorem 6 schedule).
};

[[nodiscard]] const char* to_string(Family f) noexcept;

/// How the scenario's run is scheduled.
enum class TermAdversary : std::uint8_t {
  kScripted,  ///< Theorem 6 script (kComposed / kGame only).
  kRandom,    ///< Uniform among enabled actions.
  kStalling,  ///< Seeded strict minority never scheduled.
};

[[nodiscard]] const char* to_string(TermAdversary a) noexcept;

/// Whether (family, adversary) is a meaningful pairing: the scripted
/// adversary replays Algorithm 1's schedule, so it only drives the
/// game-register families.  enumerate_term_scenarios skips invalid
/// pairs; run_term_scenario reports them as error records.
[[nodiscard]] bool combination_valid(Family f, TermAdversary a) noexcept;

/// A fully determined termination scenario.
struct TermScenario {
  Family family = Family::kConsensus;
  TermAdversary adversary = TermAdversary::kRandom;
  int processes = 4;       ///< Game families need >= 3.
  std::uint64_t seed = 0;
  /// Round budget: the game's structural round cap and the consensus
  /// round cap.  A run that exhausts it reports capped, not terminated.
  int max_rounds = 64;
  /// Safety cap on scheduler actions (secondary to the round budget).
  std::uint64_t max_actions = 2'000'000;

  /// Stable key, e.g. "term/game/scripted/p5/r64/seed42".  Mixed into
  /// the termination digest and used as the result-store join column.
  [[nodiscard]] std::string key() const;
};

/// What one termination scenario produced.  All fields except `wall_ns`
/// are pure functions of the TermScenario — the per-scenario property
/// the termination digest and the persisted result store rest on.
struct TermRecord {
  /// Every live (non-stalled) process completed its protocol: returned
  /// from the game, decided, or output a coin value.
  bool terminated = false;
  /// The round budget or action budget ran out first.  Theorem 6
  /// scenarios end here by design — capped is an expected outcome class,
  /// not a failure.
  bool capped = false;
  /// Deterministic safety (consensus agreement + validity over decided
  /// processes) held.  Always true for families without such a property.
  bool safety_ok = true;
  /// The scenario could not run (invalid combination / config /
  /// exception).  `detail` explains.
  bool error = false;
  /// Termination round: the round the game died in (kGame), the highest
  /// decision round of a live process (kConsensus / kComposed), or the
  /// longest personal flip count of a live process (kSharedCoin).
  /// 0 when the run never terminated (or errored).
  int rounds = 0;
  int stalled = 0;            ///< Processes frozen by kStalling.
  std::uint64_t coin_flips = 0;  ///< Scheduler coin flips consumed.
  std::uint64_t steps = 0;       ///< Scheduler actions consumed.
  /// FNV fingerprint over the full outcome (decisions, exit rounds, coin
  /// outputs, the fields above) — the termination analogue of the safety
  /// sweep's history hash.
  std::uint64_t outcome_hash = 0;
  std::uint64_t wall_ns = 0;  ///< Measured; NOT digest material.
  std::string detail;         ///< Failure/error explanation ("" if clean).
};

/// Runs one termination scenario.  Deterministic: identical `s` gives
/// identical records (modulo wall_ns).  Never throws; exceptions become
/// error records.
[[nodiscard]] TermRecord run_term_scenario(const TermScenario& s);

/// One exploration probe of a term family under an external adversary.
/// The family drivers take the same spec; the sweep builds one per
/// scenario.
struct TermProbeSpec {
  Family family = Family::kGame;
  int processes = 4;
  int max_rounds = 16;
  /// Action cap, tightened by the family's own budget formula.
  std::uint64_t max_actions = 2'000'000;
  /// Scheduler seed: the coin stream.  Fixed across a search instance,
  /// so the adversary searches schedules against one coin sequence — the
  /// adaptive-adversary regime of the paper.
  std::uint64_t seed = 0;
  /// Register semantics of the game registers (kGame / kComposed).  The
  /// Theorem 6 separation lives at kLinearizable; consensus/coin run on
  /// atomic registers regardless, per the paper.
  sim::Semantics game_semantics = sim::Semantics::kLinearizable;
};

/// What one probe produced.  Pure function of (spec, adversary
/// decisions), which makes recorded probe schedules replayable.
struct TermProbe {
  /// The exploration lab's rounds-to-decide objective: the decision
  /// round when the run decided; `rounds_reached` when it ran out of
  /// budget mid-protocol; `max_rounds + 1` when it survived to the
  /// structural round cap without deciding (the Theorem 6 signature, and
  /// the objective's maximum).
  std::uint64_t rounds_score = 0;
  bool decided = false;  ///< Every process completed its protocol.
  bool capped = false;   ///< Structural round cap (or action cap) hit.
  int rounds_reached = 0;
  std::uint64_t steps = 0;
  std::uint64_t coin_flips = 0;
  /// FNV fingerprint over the full outcome; byte-identical on replay.
  std::uint64_t outcome_hash = 0;
};

/// Runs one probe under `adversary`, with the family's random-schedule
/// action budget whatever the adversary.  Throws on invalid specs (the
/// exploration lab validates its axes up front).
[[nodiscard]] TermProbe run_term_probe(const TermProbeSpec& spec,
                                       sim::Adversary& adversary);

}  // namespace rlt::term
