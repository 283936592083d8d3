// A one-shot weak shared coin for n processes from shared registers,
// in the style of Aspnes & Herlihy's random-walk ("drift") coins.
//
// Each process repeatedly flips a fair local coin, adds the ±1 vote to
// its own single-writer counter register, and then reads all counters;
// once the total drift crosses ±(threshold_per_proc * n), it outputs the
// drift's sign.  Because a strong adversary can hide at most one
// in-flight vote per process (n votes total) while the threshold is a
// multiple of n, all processes output the same value with probability
// bounded away from zero (weak agreement); the random walk crosses a
// threshold with probability 1 (termination).
//
// This is the flavor of shared object that motivates the paper: the coin
// is correct with ATOMIC (or write strongly-linearizable) registers, and
// its guarantees are exactly the kind of probabilistic property that
// merely-linearizable registers can destroy [Golab, Higham, Woelfel].
#pragma once

#include <cstdint>

#include "sim/scheduler.hpp"

namespace rlt::consensus {

/// Layout/parameters of one shared-coin instance.
struct SharedCoinConfig {
  int n = 3;                    ///< Participating processes.
  sim::RegId first_reg = 0;     ///< n counter registers from this id.
  int threshold_per_proc = 4;   ///< Drift threshold = this * n.
};

/// Action budget for `n` processes flipping one coin.  The coin has no
/// rounds, so `max_rounds` caps the random walk through this budget:
/// about `max_rounds` iterations (a flip, a counter write and n counter
/// reads) per process.
[[nodiscard]] std::uint64_t coin_walk_budget(int n, int max_rounds);

/// Adds the coin's n counter registers to `sched`.
void setup_shared_coin(sim::Scheduler& sched, const SharedCoinConfig& cfg,
                       sim::Semantics semantics);

/// Executes one shared-coin flip as process slot `i` (owner of counter
/// register first_reg + i).  Returns 0 or 1.
sim::ValueTask<int> shared_coin_flip(sim::Proc& self, SharedCoinConfig cfg,
                                     int i);

}  // namespace rlt::consensus
