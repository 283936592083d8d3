// Write strong-linearizability checking (Definition 4 of the paper).
//
// A function f is a *write strong-linearization* function for a set of
// histories H iff it is a linearization function and, whenever G is a
// prefix of H, the write subsequence of f(G) is a prefix of the write
// subsequence of f(H).  It is a property of a *prefix-closed set* of
// histories — not of one history in isolation — which is why Theorem 13's
// counterexample needs two different extensions of a common prefix.
//
// This checker therefore takes a SET of (single-register) histories that
// may share event-prefixes, builds their prefix tree, and searches for a
// per-branch "committed write sequence" that
//   * grows only by appending (property P),
//   * at every event-prefix G admits a legal linearization of G whose
//     write subsequence is exactly the committed sequence (property L,
//     checked by the exact-order mode of the backtracking solver),
//   * agrees across branches on their common prefix.
//
// Search strategy (detail::TreeSearch in checker/tree_common.hpp, shared
// with the strong checker) — *lazy commitment*: extend the committed
// sequence only at events where the current sequence has become
// infeasible, trying every ordered selection of uncommitted invoked
// writes.  Lazy search is complete: if any write strong-linearization f
// exists, truncating each f(G) to its last "forced" write (a completed
// write, or a write whose value a completed read returned) yields a
// monotone family reachable by lazy decisions; conversely exhausting all
// lazy paths proves no f exists.
// (See DESIGN.md §5 and the module tests for the full argument.)
//
// Witness-first checking.  Most callers already hold a candidate
// function: the implementation under test builds one as it runs
// (Algorithm 3 for Algorithm 2, Theorem 10; the f* construction for SWMR
// registers such as ABD, Theorem 14 / Lemma 67; the WSL register model's
// committed write order).  A `WslWitness` states it as committed writes in
// order, each with a commit time, commit times non-decreasing.  For the
// event-prefix G_k of a single run (last event at t_k), the witness's
// candidate write sequence is S_k = the witness writes committed at or
// before t_k.  The verifier accepts iff, for every k, some legal
// linearization of G_k has write subsequence exactly S_k.
//
// Soundness: if the verifier accepts, f(G_k) := such a linearization is a
// write strong-linearization function for the run's prefix-closed set.
// It is a linearization function by construction, and S_j is a prefix of
// S_k for j <= k because both are prefixes of one fixed order (property
// P).  So a WSL function exists and the tree search (which is complete)
// would answer ok too: a verified witness never changes a verdict.  The
// verifier probes only where the answer can change — at response events
// and where S_k grew.  At any other event G_k adds one pending operation
// outside S_k; the exact-order solver never includes it, so f(G_{k-1})
// stays a linearization of G_k.  A witness that fails any check only
// sends the call to the unchanged tree search, which decides.  Malformed
// witnesses (a non-write, out-of-range or repeated op id, a commit before
// the write's invocation, decreasing commit times) and histories the tree
// search itself refuses are rejected before any probe, so the verifier
// never throws; the fallback then reports or throws exactly as a
// witness-free call would.
#pragma once

#include <string>
#include <vector>

#include "checker/lin_solver.hpp"

namespace rlt::checker {

/// Tuning knobs for the WSL tree search.
struct WslCheckOptions {
  /// Memoize feasibility verdicts across the tree search, keyed on
  /// (prefix-tree node, committed write sequence).  Sibling commitment
  /// branches restored from the same snapshot re-reach identical
  /// (prefix, committed) states constantly; the cache answers those
  /// without re-running the solver.  Disable only to cross-check (the
  /// verdict and write orders must not depend on this flag).
  bool memoize = true;
};

/// A candidate write strong-linearization of one run (see file comment).
struct WslWitness {
  struct Commit {
    int op = -1;    ///< Write op id in the run.
    Time time = 0;  ///< When the write joined the committed order.
  };
  /// Committed writes in order; times never decrease.  A write committed
  /// after the run's last event is in no prefix's committed sequence.
  std::vector<Commit> commits;
};

/// How a call that was handed a witness got its verdict.
enum class WslWitnessOutcome {
  kNone,      ///< No witness supplied: the tree search decided.
  kVerified,  ///< The witness verified: no tree search ran.
  kFallback,  ///< The witness was rejected: the tree search decided.
};

/// Result of a write strong-linearizability check.
struct WslCheckResult {
  bool ok = false;
  /// On success: for each input history, the final committed write order
  /// (op ids within that history).
  std::vector<std::vector<int>> write_orders;
  /// On failure: human-readable certificate — the decision point where
  /// every commitment choice fails, with per-choice reasons.
  std::string explanation;
  /// Number of solver feasibility calls made (for perf benches).  With
  /// memoization on, this counts actual solver runs (== cache_misses).
  std::size_t solver_calls = 0;
  /// Feasibility probes answered from the memo cache.
  std::size_t cache_hits = 0;
  /// Feasibility probes that had to run the solver.
  std::size_t cache_misses = 0;
  /// How the verdict was reached.  solver_calls and the cache counts
  /// cover the tree search only, so a verified witness leaves them 0.
  WslWitnessOutcome witness = WslWitnessOutcome::kNone;
};

/// Verdict of the witness verifier alone (no fallback).
struct WslWitnessCheck {
  bool verified = false;
  /// Why the witness was rejected (empty when verified).
  std::string rejection;
  /// Exact-order feasibility probes run.
  std::size_t probes = 0;
  /// When verified: the committed write order at the run's last event.
  std::vector<int> write_order;
};

/// Checks `witness` against every event-prefix of `run` (see file
/// comment).  Never throws: malformed witnesses and histories the tree
/// search refuses come back rejected.
[[nodiscard]] WslWitnessCheck verify_wsl_witness(const History& run,
                                                 const WslWitness& witness);

/// Checks whether the prefix-closed set generated by `runs` (all prefixes
/// of every run) admits a write strong-linearization function.
///
/// Requirements: every run is a single-register history on the same
/// register with the same initial value; every process's operations are
/// sequential within a run; each run has at most 64 operations.  Runs
/// that extend one another are allowed; branching runs must agree exactly
/// (event times and payloads) on their common prefix.
[[nodiscard]] WslCheckResult check_write_strong_linearizable(
    const std::vector<History>& runs, const WslCheckOptions& options = {});

/// Convenience overload for a single run (checks all its prefixes).
[[nodiscard]] WslCheckResult check_write_strong_linearizable(
    const History& run, const WslCheckOptions& options = {});

/// Witness-first single-run check: verifies `witness` and, only if that
/// fails, runs the tree search above.  The verdict always equals the
/// witness-free call's; on a verified witness `write_orders` holds the
/// witness's committed order on the whole run.
[[nodiscard]] WslCheckResult check_write_strong_linearizable(
    const History& run, const WslWitness& witness,
    const WslCheckOptions& options = {});

}  // namespace rlt::checker
