// Theorem 14 / Lemma 67, executable: every linearizable SWMR register
// implementation is write strongly-linearizable.
//
// The construction: given any linearization function f, define f* by
// removing the last operation of f(H) when it is a write that is
// incomplete in H.  Lemma 67 shows f* is still a linearization function
// (Claim 67.3) and that its write sequences are prefix-monotone
// (Claim 67.4) — the key facts being that a SWMR register never has two
// concurrent writes (Observation 65), so the writes of any linearization
// are totally ordered by their invocation times (Observation 66), and a
// write appears in f*(G) iff it is completed in G or read by a completed
// read of G.
//
// `check_swmr_write_strong` runs the construction on a concrete history
// (e.g. recorded from ABD): it computes f on every event-prefix with the
// deterministic backtracking solver, applies the f* pruning, verifies
// each pruned output is still a legal linearization, and verifies the
// write sequences grow only by appending.
#pragma once

#include <optional>
#include <string>

#include "checker/lin_solver.hpp"
#include "checker/wsl_checker.hpp"

namespace rlt::mp {

/// Result of the executable Theorem 14 check.
struct SwmrWslCheck {
  bool ok = false;
  std::string error;
  std::size_t prefixes_checked = 0;
};

/// Applies f* to a solver witness: drops the final operation if it is a
/// write that is pending in `h` (Lemma 67's construction).
[[nodiscard]] std::vector<int> f_star(const history::History& h,
                                      std::vector<int> linearization);

/// Verifies the f* construction on all event-prefixes of a single-writer
/// history `h` (throws if `h` has concurrent writes — it would not be a
/// SWMR history, Observation 65).  Writes should carry distinct values;
/// duplicate values can make the write-identification ambiguous and the
/// check conservative.
[[nodiscard]] SwmrWslCheck check_swmr_write_strong(const history::History& h);

/// f*'s write order as a witness for
/// checker::check_write_strong_linearizable, computed in one pass:
/// writes in invocation order (Observation 66), each committed once it
/// is forced — at the earlier of its response and the first response of
/// a completed read returning its value — or once a later write is
/// forced, whichever comes first (f*(G) holds exactly the writes
/// completed or read in G, and every write before them).  Writes never
/// forced are left out.  std::nullopt when `h` has more than one writer.
[[nodiscard]] std::optional<checker::WslWitness> swmr_wsl_witness(
    const history::History& h);

}  // namespace rlt::mp
