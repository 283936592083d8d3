#include "mp/f_star.hpp"

#include <algorithm>
#include <sstream>

#include "util/assert.hpp"

namespace rlt::mp {

using checker::LinProblem;
using checker::LinSolution;
using history::History;
using history::OpRecord;

std::vector<int> f_star(const History& h, std::vector<int> linearization) {
  if (!linearization.empty()) {
    const OpRecord& last = h.op(linearization.back());
    if (last.is_write() && last.pending()) linearization.pop_back();
  }
  return linearization;
}

SwmrWslCheck check_swmr_write_strong(const History& h) {
  SwmrWslCheck out;

  // Observation 65: writes must be pairwise non-concurrent.
  for (const OpRecord& a : h.ops()) {
    if (!a.is_write()) continue;
    for (const OpRecord& b : h.ops()) {
      if (!b.is_write() || a.id >= b.id) continue;
      RLT_CHECK_MSG(!a.concurrent_with(b),
                    "not a SWMR history: writes op"
                        << a.id << " and op" << b.id << " are concurrent");
    }
  }

  std::vector<int> previous_writes;
  for (const History& prefix : h.all_prefixes()) {
    LinProblem problem;
    problem.history = &prefix;
    const LinSolution sol = checker::solve(problem);
    if (!sol.ok) {
      out.error = "prefix is not linearizable (so the premise of Theorem 14 "
                  "fails):\n" +
                  prefix.to_string();
      return out;
    }
    const std::vector<int> pruned = f_star(prefix, sol.order);

    // Claim 67.3: f* output is still a legal linearization.
    const checker::SequentialCheck chk =
        checker::is_legal_sequential(prefix, pruned);
    if (!chk.ok) {
      out.error = "f*(G) is not a linearization: " + chk.error;
      return out;
    }

    // Claim 67.4: write sequences are prefix-monotone.  Writes are
    // identified across prefixes by invocation time (ids are stable:
    // prefixes keep id order).
    const std::vector<int> writes = checker::writes_of(prefix, pruned);
    if (!checker::is_prefix_of(previous_writes, writes)) {
      std::ostringstream os;
      os << "write sequence shrank or reordered across prefixes: [";
      for (const int w : previous_writes) os << ' ' << w;
      os << " ] then [";
      for (const int w : writes) os << ' ' << w;
      os << " ]";
      out.error = os.str();
      return out;
    }
    previous_writes = writes;
    ++out.prefixes_checked;
  }
  out.ok = true;
  return out;
}

std::optional<checker::WslWitness> swmr_wsl_witness(const History& h) {
  std::vector<const OpRecord*> writes;
  for (const OpRecord& op : h.ops()) {
    if (!op.is_write()) continue;
    if (!writes.empty() && op.process != writes.front()->process) {
      return std::nullopt;
    }
    writes.push_back(&op);
  }
  std::sort(writes.begin(), writes.end(),
            [](const OpRecord* a, const OpRecord* b) {
              return a->invoke < b->invoke;
            });
  std::vector<history::Time> forced(writes.size() + 1, history::kNoTime);
  for (std::size_t i = writes.size(); i-- > 0;) {
    forced[i] = std::min(writes[i]->response, forced[i + 1]);
    for (const OpRecord& r : h.ops()) {
      if (r.is_read() && !r.pending() && r.value == writes[i]->value) {
        forced[i] = std::min(forced[i], r.response);
      }
    }
  }
  checker::WslWitness witness;
  for (std::size_t i = 0; i < writes.size(); ++i) {
    if (forced[i] != history::kNoTime) {
      witness.commits.push_back({writes[i]->id, forced[i]});
    }
  }
  return witness;
}

}  // namespace rlt::mp
