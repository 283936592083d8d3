#include "checker/wsl_checker.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "checker/tree_common.hpp"
#include "util/assert.hpp"

namespace rlt::checker {

namespace {

using detail::EventSig;
using detail::for_each_ordered_selection;
using detail::OpKey;
using detail::prefix_tree_nodes;
using detail::prepare_run;
using detail::PreparedRun;
using history::Event;

/// Mutable search state shared across the DFS.
struct TreeSearch {
  std::vector<PreparedRun> runs;
  /// Per run: prefix-tree node id after k events (see prefix_tree_nodes).
  std::vector<std::vector<int>> node_ids;
  Value initial = 0;
  bool memoize = true;
  std::size_t solver_calls = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::string first_failure;  ///< certificate of the deepest failure
  std::size_t deepest_failure_events = 0;
  std::vector<std::vector<int>> result_orders;  ///< per input run index

  /// Committed-sequence interning: every distinct committed write
  /// sequence reached by the search gets a dense trie id (node 0 = the
  /// empty sequence); `cid` values are threaded through walk/step
  /// alongside the committed vector.  Memo keys are then two dense ints
  /// — (prefix-tree node, committed trie id) — with no vector hashing or
  /// copying on the probe path.
  struct TrieNode {
    std::vector<std::pair<OpKey, int>> children;
  };
  std::vector<TrieNode> trie{TrieNode{}};

  int trie_child(int cid, const OpKey& key) {
    for (const auto& [k, child] : trie[static_cast<std::size_t>(cid)].children) {
      if (k == key) return child;
    }
    const int child = static_cast<int>(trie.size());
    trie.emplace_back();
    trie[static_cast<std::size_t>(cid)].children.emplace_back(key, child);
    return child;
  }

  /// Exact memo key: feasibility (and the failure of a whole decision
  /// subtree) is a pure function of (event-prefix, committed sequence).
  /// The prefix-tree node id identifies the prefix exactly (runs sharing
  /// a node agree on every event, hence on the abstract prefix history)
  /// and the trie id identifies the committed sequence exactly, so keys
  /// never conflate distinct states.
  static std::uint64_t memo_key(int node, int cid) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node))
            << 32) |
           static_cast<std::uint32_t>(cid);
  }
  /// Level 1: feasibility verdicts per (node, committed).
  std::unordered_map<std::uint64_t, bool> memo;
  /// Level 2: decision subtrees proven unsatisfiable per (node,
  /// committed-at-entry).  Extension retries at shallower events re-reach
  /// the same (node, committed) states constantly; this skips re-walking
  /// entire failing subtrees, not just single solver calls.  Only
  /// failures are cached (hence a set): successes carry result_orders
  /// side effects.
  std::unordered_set<std::uint64_t> failed_steps;

  /// Feasibility of the prefix of run `run_idx` with `nevents` events
  /// under the committed write sequence: does a legal linearization exist
  /// whose write subsequence is exactly `committed`?  Solves on a
  /// zero-copy prefix view of the run's history (no History copy, no
  /// per-probe id-map rebuild) and memoizes the verdict per
  /// (prefix-tree node, committed).
  bool feasible(int run_idx, std::size_t nevents,
                const std::vector<OpKey>& committed, int cid,
                std::string* why) {
    const PreparedRun& run = runs[static_cast<std::size_t>(run_idx)];
    // The empty prefix has no representable cutoff when the run's first
    // event is at time 0 (Time is unsigned and cutoffs are inclusive, so
    // cutoff 0 would INCLUDE that op).  Resolve it directly: the empty
    // prefix is feasible iff nothing has been committed yet.
    if (nevents == 0) {
      const bool ok0 = committed.empty();
      if (!ok0 && why != nullptr) {
        *why = render_infeasible(nevents, 0, committed);
      }
      return ok0;
    }
    const Time t = run.events[nevents - 1].time;
    bool ok;
    std::uint64_t key = 0;
    if (memoize) {
      key = memo_key(node_ids[static_cast<std::size_t>(run_idx)][nevents],
                     cid);
      const auto it = memo.find(key);
      if (it != memo.end()) {
        ++cache_hits;
        ok = it->second;
        if (!ok && why != nullptr) *why = render_infeasible(nevents, t, committed);
        return ok;
      }
    }
    ++cache_misses;
    ++solver_calls;
    LinProblem problem;
    problem.history = run.h;
    problem.cutoff = t;
    problem.mode = WriteOrderMode::kExact;
    problem.exact_write_order.reserve(committed.size());
    for (const OpKey& ckey : committed) {
      const int id = run.id_of(ckey);
      RLT_CHECK_MSG(id >= 0 && run.h->op(id).invoke <= t,
                    "committed op " << ckey << " not present in prefix");
      problem.exact_write_order.push_back(id);
    }
    ok = checker::feasible(problem);
    if (memoize) memo.emplace(key, ok);
    if (!ok && why != nullptr) *why = render_infeasible(nevents, t, committed);
    return ok;
  }

  static std::string render_infeasible(std::size_t nevents, Time t,
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

  /// Uncommitted writes already invoked in the prefix — the candidates
  /// for lazy commitment extension.
  std::vector<OpKey> extension_candidates(
      const PreparedRun& run, std::size_t nevents,
      const std::vector<OpKey>& committed) const {
    // Empty prefix: nothing invoked, nothing to commit (and no cutoff
    // can express it when events start at time 0 — see feasible()).
    if (nevents == 0) return {};
    const Time t = run.events[nevents - 1].time;
    std::vector<OpKey> out;
    for (const OpRecord& op : run.h->ops()) {
      if (!op.is_write() || op.invoke > t) continue;
      const OpKey key = run.op_keys[static_cast<std::size_t>(op.id)];
      if (std::find(committed.begin(), committed.end(), key) ==
          committed.end()) {
        out.push_back(key);
      }
    }
    return out;
  }

  void note_failure(std::size_t nevents, const std::string& description) {
    if (nevents >= deepest_failure_events) {
      deepest_failure_events = nevents;
      first_failure = description;
    }
  }

  bool walk(const std::vector<int>& group, std::size_t depth,
            std::vector<OpKey>& committed, int cid);
  bool step(const std::vector<int>& subgroup, std::size_t depth,
            std::vector<OpKey>& committed, int cid);
};

bool TreeSearch::step(const std::vector<int>& subgroup, std::size_t depth,
                      std::vector<OpKey>& committed, int cid) {
  const int rep = subgroup.front();
  const std::size_t nevents = depth + 1;

  // Whole-subtree memo: if this (prefix node, committed) decision state
  // already failed, every commitment choice below it fails again.
  const std::uint64_t step_key =
      memoize
          ? memo_key(node_ids[static_cast<std::size_t>(rep)][nevents], cid)
          : 0;
  if (memoize && failed_steps.contains(step_key)) {
    ++cache_hits;
    return false;
  }

  // Invocation events cannot change feasibility: the new op is pending
  // and uncommitted, so the exact-order solver excludes it entirely — the
  // solve instance is the parent's (which held when we were called).
  // Only responses (new completed ops) force a fresh solver probe.
  const bool invocation =
      runs[static_cast<std::size_t>(rep)].events[depth].kind ==
      Event::Kind::kInvoke;

  std::string why;
  if (invocation || feasible(rep, nevents, committed, cid, &why)) {
    if (walk(subgroup, nevents, committed, cid)) return true;
    if (memoize) failed_steps.insert(step_key);
    return false;
  }

  // Forced decision point: lazily extend the committed sequence with some
  // ordered selection of uncommitted invoked writes.
  const std::vector<OpKey> candidates = extension_candidates(
      runs[static_cast<std::size_t>(rep)], nevents, committed);
  std::ostringstream failure;
  failure << why << "; tried extensions over " << candidates.size()
          << " uncommitted writes:";
  const std::size_t base = committed.size();
  const bool ok = for_each_ordered_selection(
      candidates, [&](const std::vector<OpKey>& extension) -> bool {
        committed.resize(base);
        committed.insert(committed.end(), extension.begin(), extension.end());
        int ext_cid = cid;
        for (const OpKey& key : extension) ext_cid = trie_child(ext_cid, key);
        const auto render = [&extension](std::ostream& os) {
          os << "\n  + [";
          for (std::size_t i = 0; i < extension.size(); ++i) {
            os << (i == 0 ? "" : ", ") << extension[i];
          }
          os << ']';
        };
        if (!feasible(rep, nevents, committed, ext_cid, nullptr)) {
          render(failure);
          failure << " infeasible";
          return false;
        }
        if (walk(subgroup, nevents, committed, ext_cid)) return true;
        render(failure);
        failure << " feasible here but fails on a continuation";
        return false;
      });
  if (!ok) {
    committed.resize(base);
    note_failure(nevents, failure.str());
    if (memoize) failed_steps.insert(step_key);
  }
  return ok;
}

bool TreeSearch::walk(const std::vector<int>& group, std::size_t depth,
                      std::vector<OpKey>& committed, int cid) {
  // Runs fully consumed at this depth are satisfied; record their final
  // committed write order (op ids in that run).
  std::vector<int> active;
  for (const int idx : group) {
    const PreparedRun& run = runs[static_cast<std::size_t>(idx)];
    if (run.events.size() <= depth) {
      std::vector<int> ids;
      for (const OpKey& key : committed) {
        const int id = run.id_of(key);
        if (id >= 0) ids.push_back(id);
      }
      result_orders[static_cast<std::size_t>(run.input_index)] =
          std::move(ids);
    } else {
      active.push_back(idx);
    }
  }
  if (active.empty()) return true;

  // Fast path: one active run (the common case for single-history
  // checks) forms a single partition — skip the partition machinery.
  if (active.size() == 1) {
    const std::vector<OpKey> snapshot = committed;
    const bool ok = step(active, depth, committed, cid);
    committed = snapshot;
    return ok;
  }

  // Partition the active runs by the signature of their next event.
  std::vector<std::pair<EventSig, std::vector<int>>> partitions;
  for (const int idx : active) {
    const PreparedRun& run = runs[static_cast<std::size_t>(idx)];
    const EventSig& sig = run.signatures[depth];
    auto it = std::find_if(partitions.begin(), partitions.end(),
                           [&sig](const auto& p) { return p.first == sig; });
    if (it == partitions.end()) {
      partitions.push_back({sig, {idx}});
    } else {
      it->second.push_back(idx);
    }
  }

  // Every branch must succeed starting from the same committed state —
  // decisions inside one branch must not leak into a sibling.
  const std::vector<OpKey> snapshot = committed;
  for (const auto& [sig, subgroup] : partitions) {
    committed = snapshot;
    if (!step(subgroup, depth, committed, cid)) {
      committed = snapshot;
      return false;
    }
  }
  committed = snapshot;
  return true;
}

}  // namespace

WslCheckResult check_write_strong_linearizable(
    const std::vector<History>& runs, const WslCheckOptions& options) {
  WslCheckResult result;
  RLT_CHECK_MSG(!runs.empty(), "need at least one history");

  TreeSearch search;
  search.memoize = options.memoize;
  search.result_orders.resize(runs.size());
  const auto reg0 = single_register_of(runs.front());
  search.initial = runs.front().initial(reg0);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto reg = single_register_of(runs[i]);
    RLT_CHECK_MSG(reg == reg0, "all runs must use the same register");
    RLT_CHECK_MSG(runs[i].initial(reg) == search.initial,
                  "all runs must share the initial value");
    RLT_CHECK_MSG(runs[i].size() <= 64, "runs limited to 64 ops");
    search.runs.push_back(prepare_run(runs[i], static_cast<int>(i)));
  }
  search.node_ids = prefix_tree_nodes(search.runs);

  std::vector<int> group(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) group[i] = static_cast<int>(i);
  std::vector<OpKey> committed;
  const bool ok = search.walk(group, 0, committed, /*cid=*/0);
  result.ok = ok;
  result.solver_calls = search.solver_calls;
  result.cache_hits = search.cache_hits;
  result.cache_misses = search.cache_misses;
  if (ok) {
    result.write_orders = std::move(search.result_orders);
  } else {
    std::ostringstream os;
    os << "no write strong-linearization function exists; deepest failing "
          "decision point (after "
       << search.deepest_failure_events
       << " events): " << search.first_failure;
    result.explanation = os.str();
  }
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
