#include "checker/wsl_checker.hpp"

#include <sstream>
#include <string_view>
#include <utility>

#include "checker/tree_common.hpp"
#include "util/assert.hpp"

namespace rlt::checker {

namespace {

using detail::OpKey;
using detail::PreparedRun;
using history::Event;

/// Definition 4's probe for detail::TreeSearch: the committed sequence
/// holds the writes, and it holds at a prefix iff some legal
/// linearization of the prefix has exactly that write subsequence (the
/// exact-order mode of the backtracking solver, on a zero-copy prefix
/// view of the run's history).
struct WslProbe {
  static constexpr std::string_view kFunction = "write strong-linearization";
  static constexpr std::string_view kCandidates = "writes";
  static constexpr std::string_view kHolds = "feasible";
  static constexpr std::string_view kFails = "infeasible";

  static bool candidate(const OpRecord& op) { return op.is_write(); }

  static bool holds(const PreparedRun& run, Time t, Value /*initial*/,
                    const std::vector<OpKey>& committed) {
    LinProblem problem;
    problem.history = run.h;
    problem.cutoff = t;
    problem.mode = WriteOrderMode::kExact;
    problem.exact_write_order.reserve(committed.size());
    for (const OpKey& key : committed) {
      const int id = run.id_of(key);
      RLT_CHECK_MSG(id >= 0 && run.h->op(id).invoke <= t,
                    "committed op " << key << " not present in prefix");
      problem.exact_write_order.push_back(id);
    }
    return checker::feasible(problem);
  }

  static std::string why_not(const PreparedRun& /*run*/, std::size_t nevents,
                             Time t, Value /*initial*/,
                             const std::vector<OpKey>& committed) {
    std::ostringstream os;
    os << "prefix with " << nevents << " events (t<=" << t
       << ") has no linearization with committed write order [";
    for (std::size_t i = 0; i < committed.size(); ++i) {
      os << (i == 0 ? "" : ", ") << committed[i];
    }
    os << ']';
    return os.str();
  }
};

}  // namespace

WslCheckResult check_write_strong_linearizable(
    const std::vector<History>& runs, const WslCheckOptions& options) {
  detail::TreeOutcome tree =
      detail::check_tree<WslProbe>(runs, options.memoize);
  WslCheckResult result;
  result.ok = tree.ok;
  result.write_orders = std::move(tree.orders);
  result.explanation = std::move(tree.explanation);
  result.solver_calls = tree.solver_calls;
  result.cache_hits = tree.cache_hits;
  result.cache_misses = tree.solver_calls;
  return result;
}

WslCheckResult check_write_strong_linearizable(const History& run,
                                               const WslCheckOptions& options) {
  return check_write_strong_linearizable(std::vector<History>{run}, options);
}

WslWitnessCheck verify_wsl_witness(const History& run,
                                   const WslWitness& witness) {
  WslWitnessCheck out;
  const auto reject = [&out](const std::string& why) {
    out.rejection = why;
    return out;
  };

  // Histories the tree search refuses (it throws) are left to it.
  const std::vector<OpRecord>& ops = run.ops();
  if (ops.size() > 64) return reject("history has more than 64 ops");
  for (const OpRecord& a : ops) {
    if (a.reg != ops.front().reg) return reject("history spans registers");
    if (!a.pending() && a.response <= a.invoke) {
      return reject("op" + std::to_string(a.id) +
                    " responds before it is invoked");
    }
    for (const OpRecord& b : ops) {
      if (a.process == b.process && a.invoke < b.invoke && !a.precedes(b)) {
        return reject("process p" + std::to_string(a.process) +
                      " has overlapping operations");
      }
    }
  }

  // Witness shape.
  std::uint64_t seen = 0;
  Time last = 0;
  for (const WslWitness::Commit& c : witness.commits) {
    const auto bad = [&c, &reject](const char* why) {
      return reject("op" + std::to_string(c.op) + why);
    };
    if (c.op < 0 || c.op >= static_cast<int>(ops.size())) {
      return bad(" is out of range");
    }
    const OpRecord& w = ops[static_cast<std::size_t>(c.op)];
    if (!w.is_write()) return bad(" is not a write");
    if ((seen & (1ULL << c.op)) != 0) return bad(" is committed twice");
    seen |= 1ULL << c.op;
    if (c.time < w.invoke) return bad(" is committed before invoked");
    if (c.time < last) return bad(": commit times decrease");
    last = c.time;
  }

  // One pass over the event-prefixes G_k, fed into a solver window one
  // event at a time: S_k grows by appending the commits at or before t_k;
  // probe where feasibility can change.
  const std::vector<Event> events = run.events();
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (events[i].time == events[i - 1].time) {
      return reject("history has two events at t=" +
                    std::to_string(events[i].time));
    }
  }
  LinWindow window;
  if (!ops.empty()) {
    const Value initial = run.initial(ops.front().reg);
    window.reset({&initial, 1});
  }
  std::vector<int> window_id(ops.size(), -1);
  std::vector<int> exact;  // S_k as window ids
  std::size_t probed = 0;  // |S| at the last probe (the empty S holds at G_0)
  for (const Event& ev : events) {
    const OpRecord& op = ops[static_cast<std::size_t>(ev.op_id)];
    if (ev.kind == Event::Kind::kInvoke) {
      window_id[static_cast<std::size_t>(ev.op_id)] =
          window.invoke(op.is_write(), op.value, ev.time);
    } else {
      window.respond(window_id[static_cast<std::size_t>(ev.op_id)], op.value,
                     ev.time);
    }
    while (exact.size() < witness.commits.size() &&
           witness.commits[exact.size()].time <= ev.time) {
      exact.push_back(window_id[static_cast<std::size_t>(
          witness.commits[exact.size()].op)]);
    }
    if (ev.kind != Event::Kind::kResponse && exact.size() == probed) {
      continue;
    }
    probed = exact.size();
    ++out.probes;
    if (!window.feasible(WriteOrderMode::kExact, exact)) {
      std::ostringstream os;
      os << "prefix up to t=" << ev.time
         << " has no linearization with committed write order [";
      for (std::size_t i = 0; i < probed; ++i) {
        os << (i == 0 ? "" : ", ") << witness.commits[i].op;
      }
      os << ']';
      return reject(os.str());
    }
  }
  out.verified = true;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    out.write_order.push_back(witness.commits[i].op);
  }
  return out;
}

WslCheckResult check_write_strong_linearizable(const History& run,
                                               const WslWitness& witness,
                                               const WslCheckOptions& options) {
  WslWitnessCheck check = verify_wsl_witness(run, witness);
  if (check.verified) {
    WslCheckResult result;
    result.ok = true;
    result.witness = WslWitnessOutcome::kVerified;
    result.write_orders.push_back(std::move(check.write_order));
    return result;
  }
  WslCheckResult result = check_write_strong_linearizable(run, options);
  result.witness = WslWitnessOutcome::kFallback;
  return result;
}

}  // namespace rlt::checker
