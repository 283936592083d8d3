// Algorithm 3: the write strong-linearization function f for Algorithm 2
// histories, as executable code.
//
// Algorithm 3 scans the history by increasing time and maintains the
// sequence WS of writes linearized so far.  At the time ti of the i-th
// write to some Val[-] (line 8 of Algorithm 2), if the writing operation
// wi is not yet in WS, it collects the set Ci of write operations active
// at ti and not in WS, evaluates their (possibly *incomplete*) vector
// timestamps at ti (unset entries read as ∞), keeps those with timestamp
// <= wi's (Bi), and appends Bi to WS in increasing timestamp order.
// Reads returning (v, ts) are then placed right after the write that
// published (v, ts), ordered among themselves by start time (reads of the
// initial value go first).
//
// Because WS only ever grows by appending — using information available
// at time ti only — the resulting linearization function satisfies the
// prefix property (P) of Definition 4; `verify_alg3_wsl` re-runs the
// construction on every trace prefix and checks this mechanically, plus
// properties 1-3 of Definition 2 via the sequential-spec validator.
#pragma once

#include <string>
#include <vector>

#include "checker/spec.hpp"
#include "checker/wsl_checker.hpp"
#include "registers/alg2_register.hpp"

namespace rlt::registers {

/// Output of one run of Algorithm 3.
struct Alg3Result {
  /// hl op ids in linearization order (writes that reached line 8, plus
  /// all completed reads).
  std::vector<int> sequence;
  /// The write subsequence of `sequence` (hl op ids) — "WS".
  std::vector<int> write_sequence;
  /// Parallel to `write_sequence`: the time t_i of the line-8 write whose
  /// batch B_i appended the write to WS.  Non-decreasing.
  std::vector<Time> commit_times;
};

/// Runs Algorithm 3 on an instrumentation trace.
[[nodiscard]] Alg3Result run_alg3(const Alg2Trace& trace);

/// Algorithm 3's write order with its commit times, as a witness for
/// checker::check_write_strong_linearizable on the high-level history.
/// One run serves every prefix: run_alg3 on the trace cut at t commits
/// exactly the writes committed here at or before t (Claim 49.1).
[[nodiscard]] checker::WslWitness alg3_wsl_witness(const Alg2Trace& trace);

/// Verdict of the full Theorem 10 verification.
struct Alg3Verification {
  bool ok = false;
  std::string error;
  std::size_t prefixes_checked = 0;
};

/// Verifies that Algorithm 3 defines a write strong-linearization
/// function for this execution:
///  (L) its output is a legal linearization of the high-level history
///      (Definition 2, via checker::is_legal_sequential), and
///  (P) for every event-prefix of the trace, the write sequence produced
///      on the prefix is a prefix of the write sequence produced on the
///      full trace (Lemma 49 / Claim 49.1).
[[nodiscard]] Alg3Verification verify_alg3_wsl(const Alg2Trace& trace,
                                               const history::History& hl);

}  // namespace rlt::registers
