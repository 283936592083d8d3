// The exploration lab: adaptive-adversary schedule SEARCH.
//
// Where the sweep engine (src/sweep/) and the termination lab (src/term/)
// *sample* the schedule space — scripted schedules and seeded-random
// adversaries — this subsystem *searches* it.  A search instance fixes a
// workload (a term family for the rounds objective, a register algorithm
// for the violation objective), a process count, and a scheduler seed
// (the coin stream), then spends a budget of runs looking for the
// worst-case schedule under one of two objectives:
//
//  * kRounds    — maximize rounds-to-decide for the term families.  The
//    Theorem 6 regime: on merely linearizable game registers an adaptive
//    adversary can keep the game (and the composed A') running forever;
//    the greedy strategy rediscovers that schedule from observations.
//  * kViolation — hunt Verdict::kViolation / kBlocked for the register
//    families (modeled / Alg2 / Alg4 / ABD).  Correct algorithms should
//    survive the search (assurance); planted ablations (ABD without the
//    read write-back) must be found.
//
// Three strategies: a greedy observing heuristic, hill-climbing mutation
// of recorded traces, and budgeted random restarts.  Every incumbent
// best schedule is captured as a replayable ScheduleTrace; traces whose
// runs exhibit the objective (a violation, a blocked run, a round-cap
// survival) are reduced by the delta-debugging shrinker before they are
// persisted.  Instances run in parallel on the sweep engine's
// worker pool; the summary (and the per-instance store records)
// folds in enumeration order, so — like every aggregate in this repo —
// its digest is a pure function of the options, independent of thread
// count and batch size.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "explore/trace.hpp"
#include "sweep/scenario.hpp"
#include "sweep/shard.hpp"
#include "sweep/store.hpp"
#include "term/term_scenario.hpp"

namespace rlt::obs {
struct Hooks;
}  // namespace rlt::obs

namespace rlt::explore {

enum class Objective : std::uint8_t { kRounds, kViolation };
enum class Strategy : std::uint8_t { kGreedy, kHillClimb, kRandom };

[[nodiscard]] const char* to_string(Objective o) noexcept;
[[nodiscard]] const char* to_string(Strategy s) noexcept;

/// Violation ranks (kViolation outranks kBlocked outranks everything).
/// Public because store records persist the rank as a "found" string and
/// the shard merge maps it back.
inline constexpr int kFoundRankViolation = 3;
inline constexpr int kFoundRankBlocked = 2;

/// One fully determined search instance.
struct ExploreInstance {
  Objective objective = Objective::kRounds;
  Strategy strategy = Strategy::kGreedy;
  /// kRounds: which term family.
  term::Family family = term::Family::kGame;
  /// kViolation: which register algorithm (semantics applies to kModeled;
  /// the game registers of a kRounds probe are always kLinearizable).
  sweep::Algorithm algorithm = sweep::Algorithm::kAbd;
  sim::Semantics semantics = sim::Semantics::kLinearizable;
  int processes = 4;
  int max_rounds = 16;          ///< kRounds: round budget.
  int writes_per_process = 2;   ///< kViolation: writer workload.
  std::uint64_t max_actions = 2'000'000;
  std::uint64_t seed = 0;       ///< Coin stream + search randomness root.
  int search_budget = 32;       ///< Runs this instance may spend.
  std::uint64_t shrink_budget = 4096;  ///< Shrink replays (0 = no shrink).
  /// Ablation knob (tests/CI): disables ABD's read write-back, planting
  /// genuine violations for the search to find.  Marked in key().
  bool abd_read_write_back = true;
  /// kViolation + kAbd: the driver appends budgeted fault injections
  /// (drop, duplicate, crash, recover) to the schedule menu, so the
  /// search hunts worst-case fault schedules too (Scenario::
  /// explore_faults).  Changes behaviour, so it is marked in key().
  bool fault_menu = false;
  /// kViolation: streaming cross-check of every probed history (see
  /// Scenario::online_check).  Excluded from key() for the same
  /// byte-identical-on-agreement reason.
  bool online = false;
  /// kViolation: capture forensics on probes (Scenario::forensics), so
  /// a replay's report carries the witness's canonical-JSON explanation.
  /// Excluded from key(), like `online`: pure observability.
  bool forensics = false;

  /// Stable key, e.g. "explore/rounds/game/greedy/p4/r16/b32/seed0" or
  /// "explore/viol/abd/hill/p5/w2/b128/nowb/fmenu/seed0".
  [[nodiscard]] std::string key() const;
};

/// What one search instance produced.  Everything except `wall_ns` is a
/// pure function of the instance.
struct ExploreOutcome {
  std::uint64_t best_score = 0;
  /// kViolation: 3 = violation found, 2 = blocked found, 0 = neither.
  int found_rank = 0;
  /// Replay fingerprint of the best (post-shrink) trace: history hash
  /// for kViolation, outcome hash for kRounds.
  std::uint64_t fingerprint = 0;
  /// The incumbent best schedule (post-shrink when shrinking applied).
  ScheduleTrace best_trace;
  std::uint64_t trace_fnv = 0;   ///< trace_hash(best_trace).
  /// Seed of the replay fallback stream (trace.hpp); persisting it makes
  /// shrunk (shorter-than-run) traces replay deterministically.
  std::uint64_t fallback_seed = 0;
  std::uint32_t runs = 0;         ///< Search runs actually executed.
  std::uint64_t total_steps = 0;  ///< Across all search runs.
  std::size_t unshrunk_len = 0;   ///< Best trace length before shrinking.
  bool shrunk = false;            ///< A shrink pass ran.
  bool locally_minimal = false;   ///< The shrink reached a fixpoint.
  std::uint64_t shrink_probes = 0;
  bool error = false;
  std::string detail;
  std::uint64_t wall_ns = 0;  ///< Measured; NOT digest material.
};

/// Runs one search instance to completion.  Deterministic (modulo
/// wall_ns); never throws — failures become error outcomes.
[[nodiscard]] ExploreOutcome run_explore_instance(const ExploreInstance& e);

/// Replays `trace` against the instance's workload and reports the same
/// deterministic fields a search run would.  The building block for
/// counterexample reproduction (and the record→replay→re-record tests).
struct ReplayReport {
  std::uint64_t score = 0;
  int rank = 0;                ///< kViolation rank (0 for kRounds).
  std::uint64_t fingerprint = 0;
  std::uint64_t steps = 0;
  ScheduleTrace effective;     ///< Re-recorded effective trace.
  std::string verdict;         ///< Human-readable outcome.
  /// Canonical-JSON forensics artifact of the replayed run; non-empty
  /// only when the instance set `forensics` and the run was non-ok.
  std::string forensics;
};
[[nodiscard]] ReplayReport replay_trace(const ExploreInstance& e,
                                        const ScheduleTrace& trace,
                                        std::uint64_t fallback_seed);

/// The search cross-product plus execution knobs.
struct ExploreOptions {
  Objective objective = Objective::kRounds;
  Strategy strategy = Strategy::kGreedy;
  /// kRounds axes:
  std::vector<term::Family> families = {term::Family::kGame};
  std::vector<int> round_budgets = {16};
  /// kViolation axes:
  std::vector<sweep::Algorithm> algorithms = {sweep::Algorithm::kAbd};
  int writes_per_process = 2;
  bool abd_read_write_back = true;
  /// Offer fault injections on every kAbd instance's schedule menu
  /// (--fault-menu; non-abd targets ignore it like the ablation knob).
  bool fault_menu = false;
  /// Streaming cross-check on every kViolation probe (--online).
  bool online = false;
  /// Write a forensics artifact per found witness (--forensics DIR via
  /// obs::Hooks::forensics_dir): the fold replays each shrunk violation-
  /// objective witness with Scenario::forensics on, so the shrunk trace
  /// ships with its explanation.  Execution knob, not config.
  bool forensics = false;
  /// Shared:
  std::vector<int> process_counts = {4};
  std::uint64_t seed_begin = 0;  ///< Inclusive (instance seeds).
  std::uint64_t seed_end = 4;    ///< Exclusive.
  int search_budget = 32;
  std::uint64_t shrink_budget = 4096;
  std::uint64_t max_actions_per_run = 2'000'000;
  int threads = 1;
  /// Instances per pool task (instances are heavy; default 1).
  int batch_size = 1;
  /// Which slice of the instance list this process runs (see
  /// sweep/shard.hpp); an execution knob, not config.
  sweep::ShardSpec shard;
};

/// The canonical config identity of an exploration (axes only, no
/// execution knobs) — pinned in shard-store headers and checked by the
/// merge.
[[nodiscard]] std::string config_key(const ExploreOptions& o);

/// This shard's slice plus the bookkeeping the store and merge need
/// (see sweep::Enumeration for the contract).
struct ExploreEnumeration {
  std::uint64_t total = 0;
  std::vector<std::uint64_t> global_indices;
  std::vector<ExploreInstance> instances;
};

/// Materializes this shard's slice of the instance list (seeds
/// outermost, like the sweeps; round robin spreads every config across
/// shards).
[[nodiscard]] ExploreEnumeration enumerate_explore_shard(
    const ExploreOptions& o);

/// The owned instances alone; the full list under the default shard.
[[nodiscard]] std::vector<ExploreInstance> enumerate_explore_instances(
    const ExploreOptions& o);

/// Aggregated, thread-count-stable outcome of an exploration.
struct ExploreSummary {
  std::uint64_t instances = 0;
  std::uint64_t search_runs = 0;
  std::uint64_t violations_found = 0;  ///< Instances whose best is kViolation.
  std::uint64_t blocked_found = 0;     ///< ... whose best is kBlocked.
  std::uint64_t shrunk_traces = 0;
  std::uint64_t errors = 0;
  std::uint64_t total_steps = 0;
  std::uint64_t best_score = 0;   ///< Max over instances.
  std::string best_key;           ///< First instance attaining it.
  /// Stable digest over every instance outcome in enumeration order.
  std::uint64_t digest = 0;
  /// Measured, NOT digest material:
  std::uint64_t wall_ns_total = 0;
  std::uint64_t wall_ns_max = 0;  ///< Slowest single instance.
  std::uint64_t elapsed_ns = 0;
  std::vector<std::string> failures;
  std::uint64_t failures_truncated = 0;

  /// Deterministic section, byte-identical across runs/threads/batches.
  [[nodiscard]] std::string stable_text() const;

  /// The exit policy: only machinery errors fail an exploration; finding
  /// a violation is the search doing its job.
  [[nodiscard]] bool failed() const noexcept { return errors > 0; }
};

/// The deterministic half of the exploration aggregate as a composable
/// fold (the sweep::SweepFold counterpart): feed it, in global
/// enumeration order, exactly the per-instance fields the store
/// persists, and it reproduces the unsharded summary — including the
/// first-instance best_key tie-break — whether the outcomes came from
/// the pool or from N merged shard stores.
class ExploreFold {
 public:
  static constexpr std::size_t kMaxReportedFailures = 16;

  /// The persisted per-instance fields the fold consumes (the
  /// digest material plus the failure detail).
  struct Item {
    std::uint64_t best_score = 0;
    int found_rank = 0;
    std::uint64_t fingerprint = 0;
    std::uint64_t trace_fnv = 0;
    std::uint64_t runs = 0;
    std::uint64_t total_steps = 0;
    bool shrunk = false;
    bool locally_minimal = false;
    std::uint64_t shrink_probes = 0;
    bool error = false;
    std::string detail;
  };

  ExploreFold();

  /// Folds one instance from an Item or from an ExploreOutcome, whose
  /// fields of the same names are the Item's.
  template <class In>
  void add(const std::string& key, const In& it);

  /// The folded summary (timing fields zero).  `sink` goes unused (see
  /// sweep::SweepFold::finish).
  [[nodiscard]] ExploreSummary finish(sweep::RecordSink* sink = nullptr);

 private:
  ExploreSummary sum_;
  std::uint64_t index_ = 0;  ///< Global enumeration index of the next add.
};

/// The exploration's traits for sweep::run_engine (sweep/engine.hpp),
/// over this shard's enumerated instances.  Forensics artifacts replay
/// each found violation-objective witness with capture on.
class ExploreMode {
 public:
  using Options = ExploreOptions;
  using Result = ExploreOutcome;
  using Fold = ExploreFold;
  static constexpr std::string_view kind = "explore";
  // "clean", not "done": the progress protocol's state counter already
  // uses the "done" key, and every key in a line must be unique.
  static constexpr std::array<std::string_view, 4> classes{"clean", "found",
                                                           "other", "err"};
  static constexpr std::string_view artifact_prefix = "explore-";

  explicit ExploreMode(const ExploreOptions& o)
      : en_(enumerate_explore_shard(o)) {}
  [[nodiscard]] std::uint64_t total() const noexcept { return en_.total; }
  [[nodiscard]] std::uint64_t owned() const { return en_.instances.size(); }
  [[nodiscard]] std::uint64_t gi(std::uint64_t i) const {
    return en_.global_indices[i];
  }
  [[nodiscard]] std::string key(std::uint64_t i) const {
    return en_.instances[i].key();
  }
  int run(std::uint64_t i, ExploreOutcome& r) const;
  static void add(ExploreFold& f, const std::string& key,
                  const ExploreOutcome& r) {
    f.add(key, r);
  }
  void record(sweep::Record& rec, std::uint64_t i,
              const ExploreOutcome& r) const;
  static void span(sweep::Record& span, const ExploreOutcome& r, bool times);
  [[nodiscard]] std::string artifact(std::uint64_t i, const std::string& key,
                                     const ExploreOutcome& r) const;
  static bool parse(std::string_view line, const std::string& key,
                    ExploreOutcome& r);

 private:
  ExploreEnumeration en_;
};

/// Runs the search through sweep::run_engine<ExploreMode> (see
/// sweep::run_sweep for the contract).  Each store record includes the
/// encoded best trace, replayable via replay_trace / sweep_main
/// --replay.
[[nodiscard]] ExploreSummary run_explore(const ExploreOptions& o,
                                         const obs::Hooks* hooks = nullptr,
                                         sweep::RecordSink* sink = nullptr);

/// Rebuilds an instance + trace from a store record line written by
/// run_explore (the "--replay" path).  Returns nullopt (with an error in
/// `*error`) if the line is not an explore record.
struct PersistedTrace {
  ExploreInstance instance;
  ScheduleTrace trace;
  std::uint64_t fallback_seed = 0;
  std::uint64_t fingerprint = 0;  ///< Expected replay fingerprint.
  std::uint64_t best_score = 0;   ///< Expected replay score.
};
[[nodiscard]] std::optional<PersistedTrace> parse_explore_record(
    const std::string& line, std::string* error);

}  // namespace rlt::explore
