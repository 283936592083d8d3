#include "checker/lin_solver.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace rlt::checker {

namespace {

using history::HistoryView;

/// Per-probe solver state: the per-op tables plus constraint bookkeeping.
///
/// Everything the DFS consults per node is precomputed here at context
/// build time:
///  * `pred[id]` — bitmask of completed ops that strictly precede op
///    `id` in real time, so the availability rule is one AND per
///    candidate instead of a scan over unplaced completed ops;
///  * `reads_by_value` — placeable reads grouped by returned value, so
///    candidate generation starts from a table lookup instead of an
///    O(n) kind/value filter;
///  * `write_mask` — placeable writes (kFree candidates are
///    value-independent; kExact restricts to the next write of the exact
///    order, whose index the DFS threads down instead of recomputing).
struct SolveContext {
  WriteOrderMode mode = WriteOrderMode::kFree;
  std::span<const int> exact;        // op ids, kExact only
  std::uint64_t included_mask = 0;   // ops present in the problem
  std::uint64_t completed_mask = 0;  // ops that must be placed
  std::uint64_t must_place_mask = 0; // completed + listed pending writes
  std::uint64_t placeable_mask = 0;  // ops that may ever be placed
  std::uint64_t write_mask = 0;      // placeable writes
  std::uint64_t all_writes_mask = 0; // every included write
  /// Per op id: written value, or returned value of a completed read.
  std::array<Value, 64> value{};
  /// Per op id: invocation time.
  std::array<Time, 64> invoke{};
  /// Per op id: response time (completion overlay applied); kNoTime while
  /// pending.  The accept shortcut orders remaining free-mode writes by it.
  std::array<Time, 64> resp{};
  /// Per op id: completed predecessors.  Inline (no heap): n <= 64.
  std::array<std::uint64_t, 64> pred{};
  /// Placeable reads grouped by returned value, sorted by value; inline.
  std::array<std::pair<Value, std::uint64_t>, 64> reads_by_value{};
  int nread_groups = 0;
  /// Placeable writes grouped by written value, sorted by value; inline.
  /// Consulted by the doomed-state prune.
  std::array<std::pair<Value, std::uint64_t>, 64> writes_by_value{};
  int nwrite_groups = 0;
  /// kExact only: exact_suffix[i] = ops of exact[i..] as a bitmask — the
  /// writes still placeable once `exact_next` reaches `i`.
  std::array<std::uint64_t, 65> exact_suffix{};
  bool prune = true;
  /// Allowed pre-history values.
  std::span<const Value> initials;
  Value single_initial = 0;  // backs `initials` when the caller gave none
  int n = 0;

  /// Search statistics, tallied locally (plain increments on this
  /// context — no registry traffic inside the DFS) and flushed to the
  /// obs registry once per solver entry when observability is on.
  std::uint64_t stat_nodes = 0;
  std::uint64_t stat_memo_hits = 0;
  std::uint64_t stat_prune_doomed = 0;
  std::uint64_t stat_prune_eager = 0;
  std::uint64_t stat_prune_accept = 0;

  // State key for memoization (failed states / visited states).
  struct Key {
    std::uint64_t mask;
    Value value;
    friend bool operator==(const Key&, const Key&) = default;
  };
  static std::uint64_t mix_key(const Key& k) noexcept {
    // 64-bit mix of both fields (splitmix-style).
    std::uint64_t x = k.mask * 0x9E3779B97F4A7C15ULL;
    x ^= static_cast<std::uint64_t>(k.value) + 0xBF58476D1CE4E5B9ULL +
         (x << 6) + (x >> 2);
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    return x ^ (x >> 31);
  }

  /// Open-addressing state-key set.  Most solves memoize a handful of
  /// states; std::unordered_set spends more time constructing and
  /// tearing down buckets than probing.  Inline storage for 64 slots,
  /// heap growth only for genuinely hard instances.
  class SeenSet {
   public:
    bool insert(const Key& k) {  // true iff newly inserted
      if (size_ * 4 >= capacity_ * 3) grow();
      Slot* slot = find_slot(slots(), capacity_, k);
      if (slot->used) return false;
      *slot = Slot{k, true};
      ++size_;
      return true;
    }
    [[nodiscard]] bool contains(const Key& k) const {
      return find_slot(slots(), capacity_, k)->used;
    }

   private:
    struct Slot {
      Key key{0, 0};
      bool used = false;
    };
    static Slot* find_slot(Slot* slots, std::size_t capacity, const Key& k) {
      std::size_t i = static_cast<std::size_t>(mix_key(k)) & (capacity - 1);
      while (slots[i].used && !(slots[i].key == k)) {
        i = (i + 1) & (capacity - 1);
      }
      return &slots[i];
    }
    static const Slot* find_slot(const Slot* slots, std::size_t capacity,
                                 const Key& k) {
      return find_slot(const_cast<Slot*>(slots), capacity, k);
    }
    [[nodiscard]] Slot* slots() noexcept {
      return heap_.empty() ? inline_.data() : heap_.data();
    }
    [[nodiscard]] const Slot* slots() const noexcept {
      return heap_.empty() ? inline_.data() : heap_.data();
    }
    void grow() {
      const std::size_t next = capacity_ * 2;
      std::vector<Slot> bigger(next);
      for (std::size_t i = 0; i < capacity_; ++i) {
        const Slot& s = slots()[i];
        if (s.used) *find_slot(bigger.data(), next, s.key) = s;
      }
      heap_ = std::move(bigger);
      capacity_ = next;
    }

    std::array<Slot, 64> inline_{};
    std::vector<Slot> heap_;
    std::size_t capacity_ = 64;
    std::size_t size_ = 0;
  };
  SeenSet seen;

  [[nodiscard]] bool done(std::uint64_t mask) const noexcept {
    return (mask & must_place_mask) == must_place_mask;
  }

  [[nodiscard]] std::uint64_t reads_of(Value v) const noexcept {
    const auto begin = reads_by_value.begin();
    const auto end = begin + nread_groups;
    const auto it = std::lower_bound(
        begin, end, v,
        [](const auto& entry, Value value) { return entry.first < value; });
    return it != end && it->first == v ? it->second : 0;
  }

  /// Ops placeable next from state (mask, value): matching-value reads
  /// plus the allowed write(s), availability-filtered — O(1) per edge.
  [[nodiscard]] std::uint64_t candidates(std::uint64_t mask, Value value,
                                         int exact_next) const noexcept {
    std::uint64_t cand = reads_of(value);
    if (mode == WriteOrderMode::kExact) {
      if (exact_next < static_cast<int>(exact.size())) {
        cand |= 1ULL << exact[static_cast<std::size_t>(exact_next)];
      }
    } else {
      cand |= write_mask;
    }
    cand &= ~mask;
    std::uint64_t out = 0;
    while (cand != 0) {
      const int id = std::countr_zero(cand);
      cand &= cand - 1;
      // Available iff every completed predecessor is already placed.
      if ((pred[static_cast<std::size_t>(id)] & ~mask) == 0) {
        out |= 1ULL << id;
      }
    }
    return out;
  }

  [[nodiscard]] std::uint64_t writes_of(Value v) const noexcept {
    const auto begin = writes_by_value.begin();
    const auto end = begin + nwrite_groups;
    const auto it = std::lower_bound(
        begin, end, v,
        [](const auto& entry, Value value) { return entry.first < value; });
    return it != end && it->first == v ? it->second : 0;
  }

  /// Doomed-state prune: true iff some unplaced completed read returns a
  /// value that is neither the current register value nor produced by any
  /// still-placeable write — no completion (and hence no done-state) is
  /// reachable from (mask, value).  `future_writes` is the mask of writes
  /// that may still be placed from this state.
  [[nodiscard]] bool doomed(std::uint64_t mask, Value value,
                            std::uint64_t future_writes) const noexcept {
    for (int g = 0; g < nread_groups; ++g) {
      const auto& [v, rmask] = reads_by_value[static_cast<std::size_t>(g)];
      if ((rmask & ~mask) == 0) continue;  // every read of v already placed
      if (v == value) continue;            // current value serves it
      if ((writes_of(v) & future_writes) != 0) continue;  // a write can
      return true;
    }
    return false;
  }

  /// Accept shortcut (find-one searches, every completed read placed):
  /// tries to discharge the remaining write obligations directly.  Free
  /// mode always succeeds — the remaining must-place ops are completed
  /// writes, placeable in response-time order (any blocker responds
  /// earlier and is therefore placed first).  Exact mode walks the
  /// remaining committed suffix, which is the only extension the DFS
  /// could try anyway (no read candidates remain), so failure here is
  /// failure of the whole subtree.  Appends the placed ops to `order`
  /// (rolled back by the caller on failure).
  [[nodiscard]] bool try_accept_suffix(std::uint64_t mask, int exact_next,
                                       std::vector<int>* order) const {
    if (mode == WriteOrderMode::kExact) {
      std::uint64_t m = mask;
      for (std::size_t i = static_cast<std::size_t>(exact_next);
           i < exact.size(); ++i) {
        const int w_id = exact[i];
        if ((pred[static_cast<std::size_t>(w_id)] & ~m) != 0) return false;
        m |= 1ULL << w_id;
        if (order != nullptr) order->push_back(w_id);
      }
      return true;
    }
    std::uint64_t rem = must_place_mask & ~mask;  // completed writes only
    std::array<int, 64> by_resp{};
    int nrem = 0;
    while (rem != 0) {
      const int id = std::countr_zero(rem);
      rem &= rem - 1;
      int j = nrem++;
      while (j > 0 && resp[static_cast<std::size_t>(
                          by_resp[static_cast<std::size_t>(j - 1)])] >
                          resp[static_cast<std::size_t>(id)]) {
        by_resp[static_cast<std::size_t>(j)] =
            by_resp[static_cast<std::size_t>(j - 1)];
        --j;
      }
      by_resp[static_cast<std::size_t>(j)] = id;
    }
    if (order != nullptr) {
      for (int i = 0; i < nrem; ++i) {
        order->push_back(by_resp[static_cast<std::size_t>(i)]);
      }
    }
    return true;
  }
};

/// The shared context tail: given the per-op tables (value, invoke,
/// resp, pred for every included op, plus the included / completed /
/// write masks), applies the completion overlay and builds the
/// write-order masks and value groups.  Both the batch builder and
/// LinWindow end here.
void finish_context(SolveContext& ctx, WriteOrderMode mode,
                    std::span<const int> exact,
                    const LinProblem::Completion* completion, bool prune) {
  ctx.mode = mode;
  ctx.exact = exact;
  ctx.prune = prune;
  RLT_CHECK_MSG(!ctx.initials.empty(),
                "initial_values must not be empty when supplied");

  // Completion overlay: one pending op is treated as completed.
  if (completion != nullptr) {
    const int cop = completion->op_id;
    RLT_CHECK_MSG(cop >= 0 && cop < ctx.n, "completion op id out of range");
    const std::uint64_t bit = 1ULL << cop;
    RLT_CHECK_MSG((ctx.included_mask & bit) != 0 &&
                      (ctx.completed_mask & bit) == 0,
                  "completion overlay must name an op pending in the view");
    const auto c = static_cast<std::size_t>(cop);
    RLT_CHECK_MSG(completion->response > ctx.invoke[c],
                  "completion response not after invocation");
    ctx.completed_mask |= bit;
    ctx.resp[c] = completion->response;
    if ((ctx.all_writes_mask & bit) == 0) ctx.value[c] = completion->value;
    std::uint64_t later = ctx.included_mask & ~bit;
    while (later != 0) {
      const int o = std::countr_zero(later);
      later &= later - 1;
      if (completion->response < ctx.invoke[static_cast<std::size_t>(o)]) {
        ctx.pred[static_cast<std::size_t>(o)] |= bit;
      }
    }
  }
  ctx.must_place_mask = ctx.completed_mask;
  ctx.placeable_mask = ctx.completed_mask & ~ctx.all_writes_mask;

  if (mode == WriteOrderMode::kExact) {
    std::uint64_t exact_seen = 0;
    for (const int id : exact) {
      RLT_CHECK_MSG(id >= 0 && id < ctx.n, "exact order op id out of range");
      const std::uint64_t bit = 1ULL << id;
      RLT_CHECK_MSG((ctx.included_mask & bit) != 0,
                    "exact order op" << id << " not invoked within the view");
      RLT_CHECK_MSG((ctx.all_writes_mask & bit) != 0,
                    "exact order contains non-write op" << id);
      RLT_CHECK_MSG((exact_seen & bit) == 0, "exact order repeats op" << id);
      exact_seen |= bit;
    }
    ctx.placeable_mask |= exact_seen;
    ctx.must_place_mask |= exact_seen;
    ctx.write_mask = exact_seen;
    for (std::size_t i = exact.size(); i-- > 0;) {
      ctx.exact_suffix[i] = ctx.exact_suffix[i + 1] | (1ULL << exact[i]);
    }
  } else {
    ctx.write_mask = ctx.all_writes_mask;
    ctx.placeable_mask |= ctx.write_mask;
  }

  // Ops grouped by value (sorted, deduplicated): placeable reads for
  // candidate generation, placeable writes for the doomed-state prune.
  // Tiny arrays: insertion sort beats std::sort's dispatch overhead.
  const auto group_by_value =
      [&ctx](std::array<std::pair<Value, std::uint64_t>, 64>& groups,
             std::uint64_t ops) {
        int ngroups = 0;
        while (ops != 0) {
          const int id = std::countr_zero(ops);
          ops &= ops - 1;
          const std::pair<Value, std::uint64_t> entry{
              ctx.value[static_cast<std::size_t>(id)], 1ULL << id};
          int j = ngroups - 1;
          while (j >= 0 &&
                 groups[static_cast<std::size_t>(j)].first > entry.first) {
            groups[static_cast<std::size_t>(j + 1)] =
                groups[static_cast<std::size_t>(j)];
            --j;
          }
          groups[static_cast<std::size_t>(j + 1)] = entry;
          ++ngroups;
        }
        int w = 0;
        for (int r = 1; r < ngroups; ++r) {
          if (groups[static_cast<std::size_t>(r)].first ==
              groups[static_cast<std::size_t>(w)].first) {
            groups[static_cast<std::size_t>(w)].second |=
                groups[static_cast<std::size_t>(r)].second;
          } else {
            groups[static_cast<std::size_t>(++w)] =
                groups[static_cast<std::size_t>(r)];
          }
        }
        return ngroups == 0 ? 0 : w + 1;
      };
  ctx.nread_groups = group_by_value(ctx.reads_by_value,
                                    ctx.placeable_mask & ~ctx.write_mask);
  ctx.nwrite_groups = group_by_value(ctx.writes_by_value, ctx.write_mask);
}

/// Batch builder: the per-op tables of an arbitrary history under a
/// cutoff, predecessor masks in O(n^2).
void build_context(SolveContext& ctx, const LinProblem& problem) {
  RLT_CHECK(problem.history != nullptr);
  const History& h = *problem.history;
  const auto reg = single_register_of(h);
  RLT_CHECK_MSG(h.size() <= 64, "solver supports at most 64 ops, got "
                                    << h.size());
  const HistoryView view(h, problem.cutoff);
  ctx.n = static_cast<int>(h.size());
  for (int id = 0; id < ctx.n; ++id) {
    if (!view.included(id)) continue;
    const auto i = static_cast<std::size_t>(id);
    const std::uint64_t bit = 1ULL << id;
    ctx.included_mask |= bit;
    ctx.value[i] = view.value(id);
    ctx.invoke[i] = view.invoke(id);
    ctx.resp[i] = view.response(id);
    if (view.is_write(id)) ctx.all_writes_mask |= bit;
    if (view.completed(id)) ctx.completed_mask |= bit;
  }
  // Predecessor bitmasks: pred[o] = completed ops responding before o's
  // invocation.  Only completed ops ever block placement.
  std::uint64_t ops = ctx.included_mask;
  while (ops != 0) {
    const int o = std::countr_zero(ops);
    ops &= ops - 1;
    std::uint64_t preds = 0;
    std::uint64_t comp = ctx.completed_mask & ~(1ULL << o);
    while (comp != 0) {
      const int q = std::countr_zero(comp);
      comp &= comp - 1;
      if (ctx.resp[static_cast<std::size_t>(q)] <
          ctx.invoke[static_cast<std::size_t>(o)]) {
        preds |= 1ULL << q;
      }
    }
    ctx.pred[static_cast<std::size_t>(o)] = preds;
  }
  if (problem.initial_values.has_value()) {
    ctx.initials = *problem.initial_values;
  } else {
    ctx.single_initial = h.initial(reg);
    ctx.initials = {&ctx.single_initial, 1};
  }
  finish_context(ctx, problem.mode, problem.exact_write_order,
                 problem.completion ? &*problem.completion : nullptr,
                 problem.prune);
}

/// Window builder: copies the window's incrementally kept tables, O(n).
void build_context(SolveContext& ctx, std::span<const LinWindow::Op> ops,
                   std::uint64_t completed, std::span<const Value> initials,
                   WriteOrderMode mode, std::span<const int> exact,
                   const LinProblem::Completion* completion, bool prune) {
  RLT_CHECK_MSG(ops.size() <= 64, "solver supports at most 64 ops, got "
                                      << ops.size());
  ctx.n = static_cast<int>(ops.size());
  ctx.included_mask = ctx.n == 64 ? ~0ULL : (1ULL << ctx.n) - 1;
  ctx.completed_mask = completed;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const LinWindow::Op& op = ops[i];
    ctx.value[i] = op.value;
    ctx.invoke[i] = op.invoke;
    ctx.resp[i] = op.response;
    ctx.pred[i] = op.pred;
    if (op.write) ctx.all_writes_mask |= 1ULL << i;
  }
  ctx.initials = initials;
  finish_context(ctx, mode, exact, completion, prune);
}

/// True iff the kExact constraints are not already unsatisfiable: every
/// write completed within the view must appear in the exact order.
bool exact_order_covers_completed(const SolveContext& ctx) {
  if (ctx.mode != WriteOrderMode::kExact) return true;
  return (ctx.completed_mask & ctx.all_writes_mask & ~ctx.write_mask) == 0;
}

/// Shared DFS core over (placed-set, register-value) states.
///
/// kFindOne: stop at the first done-state; `order` (optional) accumulates
/// the witness; failed states are memoized in ctx.seen.
/// kEnumerateFinals: visit every reachable state (ctx.seen is a visited
/// set), record the register value of every done-state in `out`, and keep
/// exploring past done-states — pending writes may still be appended.
enum class DfsMode { kFindOne, kEnumerateFinals };

template <DfsMode M>
bool dfs(SolveContext& ctx, std::uint64_t mask, Value value, int exact_next,
         std::vector<int>* order, std::set<Value>* out) {
  const SolveContext::Key key{mask, value};
  ++ctx.stat_nodes;
  if constexpr (M == DfsMode::kFindOne) {
    if (ctx.done(mask)) return true;
    if (ctx.seen.contains(key)) {
      ++ctx.stat_memo_hits;
      return false;
    }
  } else {
    if (!ctx.seen.insert(key)) {
      ++ctx.stat_memo_hits;
      return false;
    }
    if (ctx.done(mask)) out->insert(value);
  }

  if (ctx.prune) {
    const std::uint64_t future_writes =
        ctx.mode == WriteOrderMode::kExact
            ? ctx.exact_suffix[static_cast<std::size_t>(exact_next)]
            : ctx.write_mask & ~mask;
    if (ctx.doomed(mask, value, future_writes)) {
      ++ctx.stat_prune_doomed;
      if constexpr (M == DfsMode::kFindOne) ctx.seen.insert(key);
      return false;
    }
    if constexpr (M == DfsMode::kFindOne) {
      // Every completed read placed: only write obligations remain.
      if ((ctx.must_place_mask & ~ctx.write_mask & ~mask) == 0) {
        ++ctx.stat_prune_accept;
        const std::size_t mark = order != nullptr ? order->size() : 0;
        if (ctx.try_accept_suffix(mask, exact_next, order)) return true;
        if (order != nullptr) order->resize(mark);
        ctx.seen.insert(key);
        return false;
      }
    }
  }

  std::uint64_t cand = ctx.candidates(mask, value, exact_next);
  if (ctx.prune) {
    // Eager read: placing an available read of the current value first
    // dominates every other extension order — branch only on the lowest.
    const std::uint64_t cand_reads = cand & ~ctx.write_mask;
    if (cand_reads != 0) {
      ++ctx.stat_prune_eager;
      cand = cand_reads & (~cand_reads + 1);
    }
  }
  while (cand != 0) {
    const int id = std::countr_zero(cand);
    cand &= cand - 1;
    const bool is_write = (ctx.all_writes_mask >> id) & 1U;
    const Value next_value =
        is_write ? ctx.value[static_cast<std::size_t>(id)] : value;
    const int next_exact =
        exact_next + (is_write && ctx.mode == WriteOrderMode::kExact ? 1 : 0);
    if constexpr (M == DfsMode::kFindOne) {
      if (order != nullptr) order->push_back(id);
      if (dfs<M>(ctx, mask | (1ULL << id), next_value, next_exact, order,
                 out)) {
        return true;
      }
      if (order != nullptr) order->pop_back();
    } else {
      dfs<M>(ctx, mask | (1ULL << id), next_value, next_exact, order, out);
    }
  }

  if constexpr (M == DfsMode::kFindOne) ctx.seen.insert(key);
  return false;
}

/// Flushes one solver entry's tallies to the metrics registry on every
/// exit path.  The tallies themselves are plain members of the on-stack
/// context, so the solver's hot path never touches the registry.
struct StatFlush {
  const SolveContext& ctx;
  ~StatFlush() {
    if (!obs::enabled()) return;
    obs::count(obs::Counter::kCheckerSolverCalls);
    obs::count(obs::Counter::kCheckerDfsNodes, ctx.stat_nodes);
    obs::count(obs::Counter::kCheckerMemoHits, ctx.stat_memo_hits);
    obs::count(obs::Counter::kCheckerPruneDoomed, ctx.stat_prune_doomed);
    obs::count(obs::Counter::kCheckerPruneEagerRead, ctx.stat_prune_eager);
    obs::count(obs::Counter::kCheckerPruneAccept, ctx.stat_prune_accept);
  }
};

/// Feasibility of a built context: one solver entry.
bool run_feasible(SolveContext& ctx) {
  const StatFlush flush{ctx};
  if (!exact_order_covers_completed(ctx)) return false;
  for (const Value init : ctx.initials) {
    if (dfs<DfsMode::kFindOne>(ctx, 0, init, 0, nullptr, nullptr)) {
      return true;
    }
  }
  return false;
}

/// Feasible final values of a built context: one solver entry.
std::set<Value> run_final_values(SolveContext& ctx) {
  const StatFlush flush{ctx};
  std::set<Value> out;
  if (!exact_order_covers_completed(ctx)) return out;
  for (const Value init : ctx.initials) {
    (void)dfs<DfsMode::kEnumerateFinals>(ctx, 0, init, 0, nullptr, &out);
  }
  return out;
}

}  // namespace

LinSolution solve(const LinProblem& problem) {
  SolveContext ctx;
  build_context(ctx, problem);
  const StatFlush flush{ctx};
  LinSolution out;
  if (!exact_order_covers_completed(ctx)) return out;

  for (const Value init : ctx.initials) {
    std::vector<int> order;
    if (dfs<DfsMode::kFindOne>(ctx, 0, init, 0, &order, nullptr)) {
      out.ok = true;
      out.order = std::move(order);
      out.initial_used = init;
      out.final_value = init;
      for (const int id : out.order) {
        if ((ctx.all_writes_mask >> id) & 1U) {
          out.final_value = ctx.value[static_cast<std::size_t>(id)];
        }
      }
      return out;
    }
  }
  return out;
}

bool feasible(const LinProblem& problem) {
  SolveContext ctx;
  build_context(ctx, problem);
  return run_feasible(ctx);
}

std::set<Value> feasible_final_values(const LinProblem& problem) {
  SolveContext ctx;
  build_context(ctx, problem);
  return run_final_values(ctx);
}

void LinWindow::reset(std::span<const Value> initials) {
  RLT_CHECK_MSG(!initials.empty(), "a window needs an initial value");
  ops_.clear();
  initials_.assign(initials.begin(), initials.end());
  completed_ = 0;
}

int LinWindow::invoke(bool is_write, Value value, Time t) {
  RLT_CHECK_MSG(!any_event_ || t > last_,
                "window event times must increase (t=" << t << " after t="
                                                       << last_ << ")");
  last_ = t;
  any_event_ = true;
  Op op;
  op.value = is_write ? value : Value{0};
  op.invoke = t;
  op.pred = completed_;  // every completed op responded before now
  op.write = is_write;
  ops_.push_back(op);
  return size() - 1;
}

void LinWindow::respond(int id, Value value, Time t) {
  RLT_CHECK_MSG(id >= 0 && id < size(), "window op id out of range: " << id);
  Op& op = ops_[static_cast<std::size_t>(id)];
  RLT_CHECK_MSG(op.response == history::kNoTime,
                "op completed twice: op" << id);
  RLT_CHECK_MSG(t > last_, "window event times must increase (t="
                               << t << " after t=" << last_ << ")");
  last_ = t;
  op.response = t;
  if (!op.write) op.value = value;
  // Later invocations see this op as a predecessor; earlier ones do not.
  if (id < 64) completed_ |= 1ULL << id;
}

const LinWindow::Op& LinWindow::op(int id) const {
  RLT_CHECK_MSG(id >= 0 && id < size(), "window op id out of range: " << id);
  return ops_[static_cast<std::size_t>(id)];
}

bool LinWindow::feasible(WriteOrderMode mode, std::span<const int> exact,
                         const Completion* completion) const {
  SolveContext ctx;
  build_context(ctx, ops_, completed_, initials_, mode, exact, completion,
                prune_);
  return run_feasible(ctx);
}

std::set<Value> LinWindow::final_values(WriteOrderMode mode,
                                        std::span<const int> exact) const {
  SolveContext ctx;
  build_context(ctx, ops_, completed_, initials_, mode, exact, nullptr,
                prune_);
  return run_final_values(ctx);
}

}  // namespace rlt::checker
