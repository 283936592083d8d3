// The termination-statistics sweep: grind the cross-product
//
//   algorithm family × adversary × process count × round budget × seed
//
// through `run_term_scenario` on the same worker pool the safety
// sweep uses, and fold the per-scenario TermRecords into a *stable
// aggregate*: termination rate, round statistics, a survival tail
// P(round > k), and a 64-bit digest that — like the safety digest — is a
// pure function of the sweep options, independent of thread count,
// batch size, and machine.  Optionally streams one canonical record per
// scenario into a result store (src/sweep/store.hpp) for cross-commit
// diffing with tools/sweep_diff.py.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sweep/shard.hpp"
#include "sweep/store.hpp"
#include "term/term_scenario.hpp"

namespace rlt::obs {
struct Hooks;
}  // namespace rlt::obs

namespace rlt::term {

/// The cross-product to sweep plus execution knobs.
struct TermSweepOptions {
  std::vector<Family> families = {Family::kConsensus, Family::kComposed,
                                  Family::kSharedCoin, Family::kGame};
  /// Invalid (family, adversary) pairs — scripted × consensus/coin — are
  /// skipped by enumeration, not errored.
  std::vector<TermAdversary> adversaries = {TermAdversary::kScripted,
                                            TermAdversary::kRandom,
                                            TermAdversary::kStalling};
  std::vector<int> process_counts = {4};
  std::vector<int> round_budgets = {64};
  std::uint64_t seed_begin = 0;  ///< Inclusive.
  std::uint64_t seed_end = 10;   ///< Exclusive.
  std::uint64_t max_actions_per_scenario = 2'000'000;
  int threads = 1;
  /// Scenarios per pool task (digest-independent; see SweepOptions).
  int batch_size = 16;
  /// Which slice of the cross-product this process runs (see
  /// sweep/shard.hpp); an execution knob, not config.
  sweep::ShardSpec shard;
};

/// The canonical config identity of a termination sweep (axes only, no
/// execution knobs) — pinned in shard-store headers and checked by the
/// merge.
[[nodiscard]] std::string config_key(const TermSweepOptions& o);

/// This shard's slice plus the bookkeeping the store and merge need
/// (see sweep::Enumeration for the contract).
struct TermEnumeration {
  std::uint64_t total = 0;
  std::vector<std::uint64_t> global_indices;
  std::vector<TermScenario> scenarios;
};

/// Materializes this shard's slice of the cross-product, seeds outermost
/// (consecutive task ids cover different configs; round robin spreads
/// every config across shards).  Deterministic order; the digest and the
/// result store fold in this order.
[[nodiscard]] TermEnumeration enumerate_term_shard(const TermSweepOptions& o);

/// The owned scenarios alone; the full cross-product under the default
/// shard.
[[nodiscard]] std::vector<TermScenario> enumerate_term_scenarios(
    const TermSweepOptions& o);

/// One survival-tail point: how many runs outlasted `k` rounds (capped
/// runs count — they outlast every budgeted k, which is exactly the
/// Theorem 6 signature).
struct TailPoint {
  int k = 0;
  std::uint64_t over = 0;
};

/// Per-family decision-round histogram: `buckets[r]` counts terminated
/// scenarios of `family` whose decision round was r (index 0 exists for
/// the coin family, whose stalled runs can decide at walk length 0);
/// capped runs have no decision round and are counted separately.
/// Folded in enumeration order, so — like everything in the summary —
/// byte-stable across thread counts and batch sizes.
struct FamilyRoundHist {
  Family family = Family::kConsensus;
  std::vector<std::uint64_t> buckets;
  std::uint64_t terminated = 0;  ///< Sum of buckets.
  std::uint64_t capped = 0;      ///< Runs with no decision round.
};

/// Aggregated outcome of a termination sweep.
struct TermSummary {
  std::uint64_t scenarios = 0;
  std::uint64_t terminated = 0;  ///< Every live process completed.
  std::uint64_t capped = 0;      ///< Round/action budget exhausted.
  std::uint64_t safety_violations = 0;  ///< Agreement/validity broke.
  std::uint64_t errors = 0;
  std::uint64_t total_steps = 0;
  std::uint64_t total_coin_flips = 0;
  std::uint64_t rounds_sum = 0;  ///< Over terminated runs.
  int round_max = 0;             ///< Largest termination round observed.
  /// Survival tail at k = 1, 2, 4, 8, … (≤ round_max, at least k=1 when
  /// any run terminated or capped).
  std::vector<TailPoint> tail;
  /// Decision-round histograms, one per family present in the sweep
  /// (Family enum order).  Also emitted into the result store as one
  /// "term-hist/<family>" record per family, after the scenario records.
  std::vector<FamilyRoundHist> hists;
  /// Stable digest over every record in enumeration order.
  std::uint64_t digest = 0;
  /// Measured, NOT digest material:
  std::uint64_t wall_ns_total = 0;
  std::uint64_t wall_ns_max = 0;
  std::uint64_t elapsed_ns = 0;
  /// key + detail of the first few error / safety-violation scenarios
  /// (capped runs are an expected outcome class and are not listed).
  std::vector<std::string> failures;
  std::uint64_t failures_truncated = 0;

  /// The deterministic section, one line per field, byte-identical
  /// across runs with equal options (timing fields absent).  Rates are
  /// rendered with integer arithmetic so the bytes never depend on
  /// floating-point formatting.
  [[nodiscard]] std::string stable_text() const;

  /// The exit policy: broken safety and errors fail the sweep; capped
  /// runs are Theorem 6 doing its job.
  [[nodiscard]] bool failed() const noexcept {
    return safety_violations > 0 || errors > 0;
  }
};

/// The deterministic half of the termination aggregate as a composable
/// fold (the sweep::SweepFold counterpart): feed it, in global
/// enumeration order, exactly the per-scenario fields the store
/// persists, and it reproduces the counters, histograms, survival tail,
/// digest, and truncation marker of an unsharded run — whether the
/// records came from the pool or were re-read from N merged shard
/// stores.  Wall-clock fields on the incoming TermRecord are ignored.
class TermFold {
 public:
  static constexpr std::size_t kMaxReportedFailures = 16;

  TermFold();

  void add(const std::string& key, Family family, const TermRecord& r);

  /// The folded summary (timing fields zero).  Materializes the
  /// per-family histograms in Family enum order and computes the
  /// survival tail from them; when `sink` is non-null, also appends one
  /// canonical "term-hist/<family>" record per family present (in a
  /// sharded store, the shard's partials: the merge drops them and
  /// recomputes the global ones from the scenario records).
  [[nodiscard]] TermSummary finish(sweep::RecordSink* sink);

 private:
  TermSummary sum_;
  std::uint64_t never_terminated_ = 0;  ///< Capped-without-terminating.
  std::vector<FamilyRoundHist> hist_by_family_;
  std::vector<bool> family_present_;
};

/// The termination sweep's traits for sweep::run_engine
/// (sweep/engine.hpp), over this shard's enumerated scenarios.  A
/// record's family is read back from its key ("term/<family>/…").
class TermMode {
 public:
  using Options = TermSweepOptions;
  using Result = TermRecord;
  using Fold = TermFold;
  static constexpr std::string_view kind = "term";
  static constexpr std::array<std::string_view, 4> classes{"term", "capped",
                                                           "other", "err"};

  explicit TermMode(const TermSweepOptions& o)
      : en_(enumerate_term_shard(o)) {}
  [[nodiscard]] std::uint64_t total() const noexcept { return en_.total; }
  [[nodiscard]] std::uint64_t owned() const { return en_.scenarios.size(); }
  [[nodiscard]] std::uint64_t gi(std::uint64_t i) const {
    return en_.global_indices[i];
  }
  [[nodiscard]] std::string key(std::uint64_t i) const {
    return en_.scenarios[i].key();
  }
  int run(std::uint64_t i, TermRecord& r) const;
  static void add(TermFold& f, const std::string& key, const TermRecord& r);
  void record(sweep::Record& rec, std::uint64_t i, const TermRecord& r) const;
  static void span(sweep::Record& span, const TermRecord& r, bool times);
  static bool parse(std::string_view line, const std::string& key,
                    TermRecord& r);

 private:
  TermEnumeration en_;
};

/// Runs the sweep through sweep::run_engine<TermMode> (see
/// sweep::run_sweep for the contract: enumeration-order fold while the
/// workers run, byte-stable store and trace, hooks never digest
/// material).
[[nodiscard]] TermSummary run_term_sweep(const TermSweepOptions& o,
                                         const obs::Hooks* hooks = nullptr,
                                         sweep::RecordSink* sink = nullptr);

}  // namespace rlt::term
