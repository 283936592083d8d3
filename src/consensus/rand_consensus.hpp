// Randomized binary consensus for n processes from shared registers,
// terminating with probability 1 against a strong adversary — the
// "task T" algorithm A of Corollary 9.
//
// Structure (Aspnes–Herlihy-style racing rounds):
//   * Shared round markers M[v][r] (MWMR registers, one per value
//     v ∈ {0,1} and round r): M[v][r] = 1 once some process with
//     preference v reached round r.  Marks of each value form a
//     contiguous range of rounds, so "the other side's max round" can be
//     scanned incrementally.
//   * A process at round r with preference p marks M[p][r], CATCHES UP
//     with its own team (r := own-side max, restarting the iteration if
//     it was behind), then scans the opposite side's max round m:
//       - m > r  : adopt the leading value (p := 1-p, r := m);
//       - m == r : tied — flip a coin for next round's preference
//         (local coin, or the drift shared coin from shared_coin.hpp);
//       - m <= r-2: the other side can no longer catch up — decide p;
//       - m == r-1: slightly ahead, advance (r := r+1).
//     The catch-up step is essential for agreement: without it, a team
//     member lagging behind its own team can compare the other side
//     against its stale round, see a spurious "tie", coin-defect to the
//     trailing value and re-open a race its team already decided.
//
// Safety (agreement + validity) holds in EVERY run and is asserted by
// tests; termination holds with probability 1 because each tied round
// resolves unanimously with positive probability (2^-n for local coins,
// a constant for the shared coin) after which the race closes.
#pragma once

#include <cstdint>
#include <vector>

#include "consensus/shared_coin.hpp"
#include "sim/scheduler.hpp"

namespace rlt::consensus {

/// Which coin the tie rule uses.
enum class CoinKind {
  kLocal,   ///< Independent local flips (slower convergence, simplest).
  kShared,  ///< One drift shared-coin instance per round.
};

/// Consensus parameters and register layout.
struct ConsensusConfig {
  int n = 3;
  int max_rounds = 64;      ///< Structural cap; runs report if they hit it.
  sim::RegId first_reg = 0; ///< Registers allocated from this id upward.
  CoinKind coin = CoinKind::kLocal;
  int coin_threshold_per_proc = 2;  ///< kShared only.

  /// Register ids used: markers occupy 2*(max_rounds+2) ids, then
  /// (kShared only) n ids per round.
  [[nodiscard]] sim::RegId marker_reg(int v, int r) const {
    return first_reg + v * (max_rounds + 2) + r;
  }
  [[nodiscard]] sim::RegId coin_reg_base(int r) const {
    return first_reg + 2 * (max_rounds + 2) + r * n;
  }
  [[nodiscard]] int register_count() const {
    return 2 * (max_rounds + 2) +
           (coin == CoinKind::kShared ? n * (max_rounds + 2) : 0);
  }
};

/// Live results of one consensus execution.
struct ConsensusState {
  ConsensusConfig cfg;
  std::vector<int> inputs;     ///< Per-process input bit.
  std::vector<int> decisions;  ///< Per-process decision; -1 undecided.
  std::vector<int> decided_round;  ///< Round of decision; 0 if none.
  int max_round_entered = 0;
  bool hit_round_cap = false;

  ConsensusState(const ConsensusConfig& config, std::vector<int> in)
      : cfg(config),
        inputs(std::move(in)),
        decisions(static_cast<std::size_t>(config.n), -1),
        decided_round(static_cast<std::size_t>(config.n), 0) {}

  [[nodiscard]] bool all_decided() const;
  /// All decided values equal (vacuously true if none decided).
  [[nodiscard]] bool agreement() const;
  /// Every decision equals some process's input.
  [[nodiscard]] bool validity() const;
};

/// The n input bits of a seeded run (flips of `seed ^ 0xC0FFEE`).  The
/// composed runner and the termination lab share it, so identical seeds
/// give identical inputs.
[[nodiscard]] std::vector<int> seeded_inputs(int n, std::uint64_t seed);

/// Adds the consensus registers (markers + coin counters) to `sched`
/// with the given semantics (the paper's A assumes atomic base objects).
void setup_consensus(sim::Scheduler& sched, const ConsensusConfig& cfg,
                     sim::Semantics semantics);

/// The consensus protocol for process slot `i`; returns the decision
/// (or -1 if the round cap was hit).  Usable standalone or co_awaited
/// from a composed process body (Corollary 9).
sim::ValueTask<int> consensus_body(sim::Proc& self, ConsensusState& st,
                                   int i);

}  // namespace rlt::consensus
