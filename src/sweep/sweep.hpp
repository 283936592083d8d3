// The scenario-sweep engine: grind the cross-product
//
//   register semantics × algorithm × adversary × process count ×
//   crash-fault plan × seed
//
// through `run_scenario` on the sweep worker pool, validate every
// recorded history, and fold the results into a *stable digest*: a
// 64-bit fingerprint that is a pure function of the sweep options —
// independent of thread count, scheduling, and machine — because every
// per-scenario fingerprint is deterministic and the fold happens in
// scenario-index order.  Two runs with the same options must print the
// same digest; a digest change means behaviour changed somewhere in the
// simulator, a register algorithm, or a checker.
//
// This is the repo's scenario-diversity workhorse: later PRs point it at
// bigger cross-products (sharded across machines, batched seeds) and
// diff digests across commits.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sweep/scenario.hpp"
#include "sweep/shard.hpp"
#include "sweep/store.hpp"

namespace rlt::obs {
struct Hooks;
}  // namespace rlt::obs

namespace rlt::sweep {

/// The cross-product to sweep plus execution knobs.
struct SweepOptions {
  std::vector<Algorithm> algorithms = {Algorithm::kModeled, Algorithm::kAlg2,
                                       Algorithm::kAlg4, Algorithm::kAbd};
  /// Semantics axis; applies to Algorithm::kModeled scenarios only
  /// (implemented registers fix their own base semantics).
  std::vector<sim::Semantics> semantics = {sim::Semantics::kAtomic,
                                           sim::Semantics::kLinearizable,
                                           sim::Semantics::kWriteStrong};
  std::vector<AdversaryKind> adversaries = {AdversaryKind::kRandom,
                                            AdversaryKind::kRoundRobin};
  /// Fault axis.  Each kind multiplies only the families it applies to
  /// (kStall: the simulator families; every other faulty kind: ABD —
  /// see fault_applies); a family with no applicable faulty kind in
  /// this list is emitted once, fault-free, whatever the list says.
  std::vector<FaultKind> faults = {FaultKind::kNone};
  /// Fault-schedule seeds swept per faulty scenario (ignored for kNone,
  /// which needs no schedule).
  std::vector<std::uint64_t> crash_seeds = {0};
  /// Per-message drop probability for kLossy plans, in permille
  /// (1..999; part of every lossy scenario key).  CLI: --drop-prob.
  std::uint32_t drop_permille = 100;
  std::vector<int> process_counts = {3};
  std::uint64_t seed_begin = 0;  ///< Inclusive.
  std::uint64_t seed_end = 10;   ///< Exclusive.
  int writes_per_process = 2;
  std::uint64_t max_actions_per_scenario = 1'000'000;
  int threads = 1;
  /// Scenarios per batch of the ordered loop.  Batching amortizes its
  /// hand-off (one lock + condition-variable signal per batch) across a
  /// run of consecutive scenario indices; results are still folded per
  /// scenario in index order, so the digest is independent of this knob.
  /// At most 16 x threads batches are alive at once.
  int batch_size = 16;
  /// Streaming cross-check: every checkable history is also replayed
  /// through the online checker, and any batch/online split reports as
  /// an ERROR.  Excluded from scenario keys — an agreeing --online sweep
  /// produces records byte-identical to an offline one.
  bool online = false;
  /// Capture per-scenario forensics (Scenario::forensics) so non-ok
  /// results carry a canonical-JSON artifact; run_sweep writes one file
  /// per non-ok scenario into obs::Hooks::forensics_dir.  An execution
  /// knob like `online`: excluded from scenario keys and config_key, so
  /// a --forensics sweep's store and digest are byte-identical to a
  /// plain run's.
  bool forensics = false;
  /// Which slice of the cross-product this process runs (see shard.hpp).
  /// The default (1/1) is the classic unsharded sweep.  An execution
  /// knob, not config: every shard of one logical sweep shares the same
  /// config_key, and `shards + merge ≡ unsharded` byte-for-byte.
  ShardSpec shard;
};

/// The canonical config identity of a sweep: every axis that determines
/// what the sweep computes (algorithms, semantics, adversaries, faults,
/// seeds, workload shape), NONE of the knobs that only determine how it
/// executes (threads, batch, shard, online).  Every shard-store header
/// pins it, and the merge refuses shards whose configs differ.
[[nodiscard]] std::string config_key(const SweepOptions& o);

/// What enumeration yields under a shard: the owned scenarios plus the
/// bookkeeping the store and the merge need.  `global_indices[i]` is the
/// position scenarios[i] holds in the FULL cross-product — a pure
/// function of the options, independent of shard count, which is what
/// lets the merge reconstitute enumeration order mechanically.
struct Enumeration {
  std::uint64_t total = 0;  ///< Full cross-product size (all shards).
  std::vector<std::uint64_t> global_indices;
  std::vector<Scenario> scenarios;
};

/// Materializes this shard's slice of the cross-product, seeds outermost
/// so that consecutive task ids cover different configs (better tail
/// behaviour across workers) and round-robin sharding spreads every
/// config across all shards.  Order is deterministic; the digest folds
/// in this order.  run_sweep decodes the same order one scenario at a
/// time instead of materializing it.  The scenario cap (10M) is per
/// shard: sharding raises the sweepable ceiling N-fold.
[[nodiscard]] Enumeration enumerate_shard(const SweepOptions& o);

/// The owned scenarios alone (enumerate_shard without the bookkeeping);
/// the full cross-product under the default shard.
[[nodiscard]] std::vector<Scenario> enumerate_scenarios(const SweepOptions& o);

/// Aggregated outcome of a sweep.
struct SweepSummary {
  std::uint64_t scenarios = 0;
  std::uint64_t ok = 0;
  std::uint64_t violations = 0;
  /// Runs that went quiescent with pending ops stranded by crashes —
  /// the expected outcome class of the crash axis, counted separately
  /// so it is never conflated with violations or errors.
  std::uint64_t blocked = 0;
  std::uint64_t errors = 0;
  std::uint64_t total_steps = 0;  ///< Sum of adversary actions/deliveries.
  std::uint64_t total_ops = 0;    ///< Sum of completed high-level ops.
  /// Stable digest over (key, verdict, steps, ops, history_hash) of every
  /// scenario in enumeration order.  Excludes all wall-clock fields.
  std::uint64_t digest = 0;
  /// Measured, NOT digest material:
  std::uint64_t wall_ns_total = 0;  ///< Sum over scenarios (cpu-ish time).
  std::uint64_t wall_ns_max = 0;    ///< Slowest single scenario.
  std::uint64_t elapsed_ns = 0;     ///< End-to-end sweep wall clock.
  /// key + detail for the first few non-ok scenarios, enumeration order.
  std::vector<std::string> failures;
  /// Non-ok scenarios beyond the reporting cap.  stable_text() renders
  /// this as a deterministic "... and N more" marker so truncation is
  /// never silent (blocked/violating counts stay honest).
  std::uint64_t failures_truncated = 0;

  /// The deterministic part, one line per field, byte-identical across
  /// runs with equal options.  (Timing fields are deliberately absent.)
  [[nodiscard]] std::string stable_text() const;

  /// The exit policy: violations and errors fail the sweep; blocked runs
  /// are the fault axes doing their job.
  [[nodiscard]] bool failed() const noexcept {
    return violations > 0 || errors > 0;
  }
};

/// The deterministic half of the sweep aggregate as a composable fold:
/// feed it exactly the per-scenario fields the store persists, in global
/// enumeration order, and it produces the same counters, digest, failure
/// list, and truncation marker whether the scenarios came from one
/// process or were re-read from N merged shard stores.  run_sweep and
/// merge_shard_stores share this object, which is what makes
/// `shards + merge ≡ unsharded` an identity instead of a convention.
class SweepFold {
 public:
  /// Failure lines kept verbatim; the rest fold into failures_truncated.
  /// The cap applies to the GLOBAL fold — each shard reports its own
  /// partial list, and the merge re-truncates in global order.
  static constexpr std::size_t kMaxReportedFailures = 16;

  SweepFold();

  void add(const std::string& key, Verdict verdict, std::uint64_t steps,
           std::uint64_t ops, std::uint64_t history_hash,
           const std::string& detail);

  /// The folded summary; wall-clock fields are zero (callers that
  /// measured time fill them in afterwards).  The safety sweep appends
  /// no trailing records, so `sink` goes unused; every fold takes it so
  /// that sweep/engine.hpp finishes them alike.
  [[nodiscard]] SweepSummary finish(RecordSink* sink = nullptr);

 private:
  SweepSummary sum_;
};

/// The safety sweep's traits for run_engine (sweep/engine.hpp).  The
/// cross-product is a decoder, the one enumeration path of the safety
/// sweep: seeds are the outermost axis, so the configs one seed expands
/// to (algorithm, semantics, adversary, process count, fault plan, in
/// that nesting order) are built once, and the scenario at global index
/// gi is config gi % |configs| with seed seed_begin + gi / |configs|.
/// Each scenario is decoded when a worker runs it and again when the
/// fold keys it, so the engine holds no per-scenario list.
class SafetyMode {
 public:
  using Options = SweepOptions;
  using Result = ScenarioResult;
  using Fold = SweepFold;
  static constexpr std::string_view kind = "safety";
  static constexpr std::array<std::string_view, 4> classes{"ok", "viol",
                                                           "blocked", "err"};
  static constexpr std::string_view artifact_prefix = "scenario-";

  explicit SafetyMode(const SweepOptions& o);
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t owned() const noexcept {
    return shard_.share(total_);
  }
  /// Global index of this shard's i-th scenario (round robin).
  [[nodiscard]] std::uint64_t gi(std::uint64_t i) const noexcept {
    return shard_.index + i * shard_.count;
  }
  /// The scenario at global index `gi` (< total()).
  [[nodiscard]] Scenario at(std::uint64_t gi) const;
  [[nodiscard]] std::string key(std::uint64_t i) const {
    return at(gi(i)).key();
  }
  int run(std::uint64_t i, ScenarioResult& r) const;
  static void add(SweepFold& f, const std::string& key,
                  const ScenarioResult& r) {
    f.add(key, r.verdict, r.steps, r.ops, r.history_hash, r.detail);
  }
  void record(Record& rec, std::uint64_t i, const ScenarioResult& r) const;
  static void span(Record& span, const ScenarioResult& r, bool times);
  [[nodiscard]] std::string artifact(std::uint64_t i, const std::string& key,
                                     const ScenarioResult& r) const;
  static bool parse(std::string_view line, const std::string& key,
                    ScenarioResult& r);

 private:
  ShardSpec shard_;
  std::uint64_t seed_begin_;
  std::vector<Scenario> configs_;
  std::uint64_t total_ = 0;
};

/// Runs the sweep through run_engine<SafetyMode> (sweep/engine.hpp):
/// scenarios run on `o.threads` workers and are folded in enumeration
/// order while the workers go on, so memory does not grow with the
/// sweep, and the digest, the store bytes (`sink`) and the trace spans
/// (`hooks`) are independent of thread count and batch size.
/// Observability hooks are never digest material.
[[nodiscard]] SweepSummary run_sweep(const SweepOptions& o,
                                     const obs::Hooks* hooks = nullptr,
                                     RecordSink* sink = nullptr);

}  // namespace rlt::sweep
