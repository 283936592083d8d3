#include "consensus/rand_consensus.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace rlt::consensus {

std::vector<int> seeded_inputs(int n, std::uint64_t seed) {
  util::Rng rng(seed ^ 0xC0FFEEULL);
  std::vector<int> in(static_cast<std::size_t>(n));
  for (int& b : in) b = rng.flip();
  return in;
}

bool ConsensusState::all_decided() const {
  return std::all_of(decisions.begin(), decisions.end(),
                     [](int d) { return d != -1; });
}

bool ConsensusState::agreement() const {
  int seen = -1;
  for (const int d : decisions) {
    if (d == -1) continue;
    if (seen == -1) seen = d;
    if (d != seen) return false;
  }
  return true;
}

bool ConsensusState::validity() const {
  for (const int d : decisions) {
    if (d == -1) continue;
    if (std::find(inputs.begin(), inputs.end(), d) == inputs.end()) {
      return false;
    }
  }
  return true;
}

void setup_consensus(sim::Scheduler& sched, const ConsensusConfig& cfg,
                     sim::Semantics semantics) {
  for (int v = 0; v < 2; ++v) {
    for (int r = 0; r <= cfg.max_rounds + 1; ++r) {
      sched.add_register(cfg.marker_reg(v, r), semantics, 0);
    }
  }
  if (cfg.coin == CoinKind::kShared) {
    for (int r = 0; r <= cfg.max_rounds + 1; ++r) {
      SharedCoinConfig coin;
      coin.n = cfg.n;
      coin.first_reg = cfg.coin_reg_base(r);
      coin.threshold_per_proc = cfg.coin_threshold_per_proc;
      setup_shared_coin(sched, coin, semantics);
    }
  }
}

sim::ValueTask<int> consensus_body(sim::Proc& self, ConsensusState& st,
                                   int i) {
  const ConsensusConfig& cfg = st.cfg;
  RLT_CHECK(i >= 0 && i < cfg.n);
  int p = st.inputs[static_cast<std::size_t>(i)];
  RLT_CHECK_MSG(p == 0 || p == 1, "inputs must be binary");
  int r = 1;
  // Highest round known marked, per value (marks are contiguous from 1).
  int known[2] = {0, 0};

  for (;;) {
    if (r > cfg.max_rounds) {
      st.hit_round_cap = true;
      co_return -1;
    }
    st.max_round_entered = std::max(st.max_round_entered, r);

    co_await self.write(cfg.marker_reg(p, r), 1);

    // Catch-up rule: before comparing against the other team, advance to
    // MY OWN team's max round.  Without it a lagging team member can
    // misread the race ("the other team is at my round — tie!") while its
    // own team already leads, coin-defect to the trailing value, and
    // single-handedly re-open a race a teammate has already decided —
    // an agreement violation (see ConsensusRegression.TieDefector).
    while (known[p] <= cfg.max_rounds) {
      const history::Value marked =
          co_await self.read(cfg.marker_reg(p, known[p] + 1));
      if (marked == 0) break;
      ++known[p];
    }
    if (known[p] > r) {
      r = known[p];
      continue;
    }

    // Scan the opposite side's max marked round (incremental: marks per
    // value are contiguous ranges of rounds starting at 1).
    while (known[1 - p] <= cfg.max_rounds) {
      const history::Value marked =
          co_await self.read(cfg.marker_reg(1 - p, known[1 - p] + 1));
      if (marked == 0) break;
      ++known[1 - p];
    }
    const int other = known[1 - p];

    if (other > r) {
      // The other value leads the race: adopt it and jump to its round.
      p = 1 - p;
      r = other;
      continue;
    }
    if (other == r) {
      // Tied round: next preference comes from the coin.
      if (cfg.coin == CoinKind::kLocal) {
        p = co_await self.flip_coin();
      } else {
        SharedCoinConfig coin;
        coin.n = cfg.n;
        coin.first_reg = cfg.coin_reg_base(r);
        coin.threshold_per_proc = cfg.coin_threshold_per_proc;
        p = co_await shared_coin_flip(self, coin, i);
      }
      r = r + 1;
      continue;
    }
    if (r - other >= 2) {
      // The other side is two rounds behind: it can no longer reach
      // round r-1 without first observing our marks and adopting p.
      st.decisions[static_cast<std::size_t>(i)] = p;
      st.decided_round[static_cast<std::size_t>(i)] = r;
      co_return p;
    }
    r = r + 1;  // Ahead by exactly one: keep racing.
  }
}

}  // namespace rlt::consensus
