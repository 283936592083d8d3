#include "consensus/shared_coin.hpp"

#include "util/assert.hpp"

namespace rlt::consensus {

std::uint64_t coin_walk_budget(int n, int max_rounds) {
  return static_cast<std::uint64_t>(max_rounds + 2) *
         static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n + 6);
}

void setup_shared_coin(sim::Scheduler& sched, const SharedCoinConfig& cfg,
                       sim::Semantics semantics) {
  for (int i = 0; i < cfg.n; ++i) {
    sched.add_register(cfg.first_reg + i, semantics, 0);
  }
}

sim::ValueTask<int> shared_coin_flip(sim::Proc& self, SharedCoinConfig cfg,
                                     int i) {
  RLT_CHECK(i >= 0 && i < cfg.n);
  const std::int64_t threshold =
      static_cast<std::int64_t>(cfg.threshold_per_proc) * cfg.n;
  std::int64_t my_total = 0;
  for (;;) {
    const int flip = co_await self.flip_coin();
    my_total += flip == 1 ? 1 : -1;
    co_await self.write(cfg.first_reg + i, my_total);
    std::int64_t drift = 0;
    for (int k = 0; k < cfg.n; ++k) {
      drift += co_await self.read(cfg.first_reg + k);
    }
    if (drift >= threshold) co_return 1;
    if (drift <= -threshold) co_return 0;
  }
}

}  // namespace rlt::consensus
