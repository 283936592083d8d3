// The prefix-tree search shared by the write strong-linearizability and
// strong linearizability checkers (Definitions 4 and 3), plus its
// helpers: stable operation identities across runs that share a prefix,
// and event signatures for prefix-tree construction.
//
// The two definitions differ only in what the committed sequence f(G)
// holds — the writes for WSL, every operation for strong — so one walk
// serves both, parameterised by a Probe (see TreeSearch).
//
// Not part of the public API.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "checker/spec.hpp"
#include "util/assert.hpp"

namespace rlt::checker::detail {

using history::Event;
using history::ProcessId;

/// Stable identity of an operation across runs that share a prefix:
/// (process, ordinal of the op among that process's ops, by invocation).
struct OpKey {
  ProcessId process = -1;
  int ordinal = -1;
  friend auto operator<=>(const OpKey&, const OpKey&) = default;
};

inline std::ostream& operator<<(std::ostream& os, const OpKey& k) {
  return os << 'p' << k.process << '#' << k.ordinal;
}

/// Event signature used to detect shared prefixes between runs.
struct EventSig {
  Time time = 0;
  Event::Kind kind = Event::Kind::kInvoke;
  ProcessId process = -1;
  int ordinal = -1;
  OpKind op_kind = OpKind::kRead;
  bool has_value = false;
  Value value = 0;
  friend bool operator==(const EventSig&, const EventSig&) = default;
};

/// A run preprocessed for a tree walk.
struct PreparedRun {
  const History* h = nullptr;
  int input_index = -1;
  std::vector<Event> events;         ///< time-sorted
  std::vector<EventSig> signatures;  ///< parallel to events
  std::vector<OpKey> op_keys;        ///< per op id
  /// Inverse of op_keys, sorted by key: OpKey -> op id in *h.  Because
  /// prefix views keep base ids, this one table answers key lookups for
  /// EVERY event-prefix of the run (an op is in the prefix at t iff its
  /// invoke <= t) — the per-probe `key_to_id_map(prefix)` rebuild is
  /// gone.  Flat + binary search: lookups sit inside the tree search's
  /// innermost loops.
  std::vector<std::pair<OpKey, int>> key_index;

  /// Id of `key` in *h, or -1 if no such op.
  [[nodiscard]] int id_of(const OpKey& key) const {
    const auto it = std::lower_bound(
        key_index.begin(), key_index.end(), key,
        [](const auto& entry, const OpKey& k) { return entry.first < k; });
    return it != key_index.end() && it->first == key ? it->second : -1;
  }
};

/// Builds the per-run preprocessing; checks process well-formedness.
inline PreparedRun prepare_run(const History& h, int input_index) {
  PreparedRun run;
  run.h = &h;
  run.input_index = input_index;
  run.events = h.events();
  std::map<ProcessId, std::vector<int>> by_process;
  for (const OpRecord& op : h.ops()) by_process[op.process].push_back(op.id);
  run.op_keys.resize(h.size());
  for (auto& [proc, ids] : by_process) {
    std::sort(ids.begin(), ids.end(), [&h](int a, int b) {
      return h.op(a).invoke < h.op(b).invoke;
    });
    for (std::size_t i = 1; i < ids.size(); ++i) {
      RLT_CHECK_MSG(h.op(ids[i - 1]).precedes(h.op(ids[i])),
                    "process p" << proc
                                << " has overlapping operations — histories "
                                   "must be well-formed");
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const OpKey key{proc, static_cast<int>(i)};
      run.op_keys[static_cast<std::size_t>(ids[i])] = key;
      // by_process iterates processes ascending and ordinals ascending,
      // so key_index is built already sorted.
      run.key_index.emplace_back(key, ids[i]);
    }
  }
  run.signatures.reserve(run.events.size());
  for (const Event& ev : run.events) {
    const OpRecord& op = h.op(ev.op_id);
    EventSig sig;
    sig.time = ev.time;
    sig.kind = ev.kind;
    sig.process = op.process;
    sig.ordinal = run.op_keys[static_cast<std::size_t>(ev.op_id)].ordinal;
    sig.op_kind = op.kind;
    if (op.is_write()) {
      sig.has_value = true;
      sig.value = op.value;  // written value, known from invocation
    } else if (ev.kind == Event::Kind::kResponse) {
      sig.has_value = true;
      sig.value = op.value;  // returned value, known at response
    }
    run.signatures.push_back(sig);
  }
  return run;
}

/// Prefix-tree node ids: `result[i][k]` identifies the tree node run `i`
/// reaches after its first `k` events.  Two runs share a node iff their
/// first `k` event signatures are identical — i.e. iff they share that
/// event-prefix — so (node id, extra state) is an exact memoization key
/// for any quantity that depends only on the prefix.  Node 0 is the root
/// (empty prefix); ids are dense.
inline std::vector<std::vector<int>> prefix_tree_nodes(
    const std::vector<PreparedRun>& runs) {
  std::vector<std::vector<int>> node_ids(runs.size());
  std::size_t max_depth = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    node_ids[i].assign(runs[i].events.size() + 1, 0);
    max_depth = std::max(max_depth, runs[i].events.size());
  }
  int next_id = 1;
  for (std::size_t k = 1; k <= max_depth; ++k) {
    // Group runs still alive at depth k by (parent node, k-th signature).
    std::vector<std::pair<std::pair<int, EventSig>, int>> groups;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (runs[i].events.size() < k) continue;
      const std::pair<int, EventSig> edge{node_ids[i][k - 1],
                                          runs[i].signatures[k - 1]};
      auto it = std::find_if(groups.begin(), groups.end(), [&edge](const auto& g) {
        return g.first == edge;
      });
      if (it == groups.end()) {
        groups.push_back({edge, next_id++});
        it = std::prev(groups.end());
      }
      node_ids[i][k] = it->second;
    }
  }
  return node_ids;
}

/// Enumerates all ordered selections (permutations of non-empty subsets)
/// of `candidates`, invoking `fn` with each; stops early when `fn`
/// returns true and propagates the result.  `fn` is also called on every
/// proper prefix of longer selections.  Statically dispatched (`Fn` is a
/// template parameter, not std::function): this runs inside the factorial
/// part of the tree search.
template <typename Fn>
bool for_each_ordered_selection(const std::vector<OpKey>& candidates,
                                const Fn& fn) {
  std::vector<OpKey> current;
  current.reserve(candidates.size());
  std::uint64_t used = 0;
  const auto rec = [&](const auto& self) -> bool {
    if (!current.empty() && fn(current)) return true;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if ((used & (1ULL << i)) != 0) continue;
      used |= 1ULL << i;
      current.push_back(candidates[i]);
      if (self(self)) return true;
      current.pop_back();
      used &= ~(1ULL << i);
    }
    return false;
  };
  return rec(rec);
}

/// The lazy-commitment search over the prefix tree of a set of runs, for
/// the property a Probe names.  A Probe supplies, as static members:
///
///   kFunction            "write strong-linearization" | "strong linearization"
///   kCandidates          noun for the ops it may commit ("writes" | "ops")
///   kHolds, kFails       "feasible"/"infeasible" | "valid"/"invalid"
///   candidate(op)        may `op` join the committed sequence once invoked?
///   holds(run, t, initial, committed)
///                        does the prefix of `run` up to time t admit f(G)
///                        = some linearization whose committed part is
///                        exactly `committed`?
///   why_not(run, nevents, t, initial, committed)
///                        the reason holds() is false, for the certificate
///
/// Search: extend the committed sequence only at events where it has
/// stopped holding, trying every ordered selection of uncommitted invoked
/// candidates; branching runs must succeed from the same committed state
/// on their common prefix.  holds() is a pure function of (event-prefix,
/// committed sequence), and the pair (prefix-tree node, committed trie
/// id) identifies both exactly, so the memo below never conflates states.
template <class Probe>
struct TreeSearch {
  std::vector<PreparedRun> runs;
  /// Per run: prefix-tree node id after k events (see prefix_tree_nodes).
  std::vector<std::vector<int>> node_ids;
  Value initial = 0;
  bool memoize = true;
  std::size_t solver_calls = 0;  ///< Probe::holds runs (= memo misses)
  std::size_t cache_hits = 0;
  std::string first_failure;  ///< certificate of the deepest failure
  std::size_t deepest_failure_events = 0;
  std::vector<std::vector<int>> result_orders;  ///< per input run index

  /// Committed-sequence interning: every distinct committed sequence
  /// reached by the search gets a dense trie id (node 0 = the empty
  /// sequence); `cid` values are threaded through walk/step alongside the
  /// committed vector.  Memo keys are then two dense ints — (prefix-tree
  /// node, committed trie id) — with no vector hashing or copying on the
  /// probe path.
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

  static std::uint64_t memo_key(int node, int cid) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node))
            << 32) |
           static_cast<std::uint32_t>(cid);
  }
  /// Level 1: holds() verdicts per (node, committed).
  std::unordered_map<std::uint64_t, bool> memo;
  /// Level 2: decision subtrees proven unsatisfiable per (node,
  /// committed-at-entry).  Extension retries at shallower events re-reach
  /// the same (node, committed) states constantly; this skips re-walking
  /// entire failing subtrees, not just single probes.  Only failures are
  /// cached (hence a set): successes carry result_orders side effects.
  std::unordered_set<std::uint64_t> failed_steps;

  /// Probe::holds on the prefix of run `run_idx` with `nevents` (>= 1)
  /// events, memoized per (prefix-tree node, committed); on failure, the
  /// reason goes to `why` when it is non-null.
  bool holds(int run_idx, std::size_t nevents,
             const std::vector<OpKey>& committed, int cid, std::string* why) {
    const PreparedRun& run = runs[static_cast<std::size_t>(run_idx)];
    const Time t = run.events[nevents - 1].time;
    const std::uint64_t key =
        memoize
            ? memo_key(node_ids[static_cast<std::size_t>(run_idx)][nevents],
                       cid)
            : 0;
    const auto hit = memoize ? memo.find(key) : memo.end();
    bool ok;
    if (hit != memo.end()) {
      ++cache_hits;
      ok = hit->second;
    } else {
      ++solver_calls;
      ok = Probe::holds(run, t, initial, committed);
      if (memoize) memo.emplace(key, ok);
    }
    if (!ok && why != nullptr) {
      *why = Probe::why_not(run, nevents, t, initial, committed);
    }
    return ok;
  }

  /// Uncommitted candidates already invoked in the prefix — the choices
  /// for lazy commitment extension.
  static std::vector<OpKey> extension_candidates(
      const PreparedRun& run, std::size_t nevents,
      const std::vector<OpKey>& committed) {
    const Time t = run.events[nevents - 1].time;
    std::vector<OpKey> out;
    for (const OpRecord& op : run.h->ops()) {
      if (!Probe::candidate(op) || op.invoke > t) continue;
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

  bool step(const std::vector<int>& subgroup, std::size_t depth,
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

    // Invocation events cannot change holds(): the new op is pending and
    // uncommitted, and no op completes, so the instance is the parent's
    // (which held when we were called).  Only responses force a probe.
    const bool invocation =
        runs[static_cast<std::size_t>(rep)].events[depth].kind ==
        Event::Kind::kInvoke;

    std::string why;
    if (invocation || holds(rep, nevents, committed, cid, &why)) {
      if (walk(subgroup, nevents, committed, cid)) return true;
      if (memoize) failed_steps.insert(step_key);
      return false;
    }

    // Forced decision point: lazily extend the committed sequence with
    // some ordered selection of uncommitted invoked candidates.
    const std::vector<OpKey> candidates = extension_candidates(
        runs[static_cast<std::size_t>(rep)], nevents, committed);
    std::ostringstream failure;
    failure << why << "; tried extensions over " << candidates.size()
            << " uncommitted " << Probe::kCandidates << ':';
    const std::size_t base = committed.size();
    const bool ok = for_each_ordered_selection(
        candidates, [&](const std::vector<OpKey>& extension) -> bool {
          committed.resize(base);
          committed.insert(committed.end(), extension.begin(),
                           extension.end());
          int ext_cid = cid;
          for (const OpKey& key : extension) {
            ext_cid = trie_child(ext_cid, key);
          }
          const auto render = [&extension](std::ostream& os) {
            os << "\n  + [";
            for (std::size_t i = 0; i < extension.size(); ++i) {
              os << (i == 0 ? "" : ", ") << extension[i];
            }
            os << ']';
          };
          if (!holds(rep, nevents, committed, ext_cid, nullptr)) {
            render(failure);
            failure << ' ' << Probe::kFails;
            return false;
          }
          if (walk(subgroup, nevents, committed, ext_cid)) return true;
          render(failure);
          failure << ' ' << Probe::kHolds
                  << " here but fails on a continuation";
          return false;
        });
    if (!ok) {
      committed.resize(base);
      note_failure(nevents, failure.str());
      if (memoize) failed_steps.insert(step_key);
    }
    return ok;
  }

  bool walk(const std::vector<int>& group, std::size_t depth,
            std::vector<OpKey>& committed, int cid) {
    // Runs fully consumed at this depth are satisfied; record their final
    // committed order (op ids in that run).
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
};

/// What a tree search reports back to its checker's entry point.
struct TreeOutcome {
  bool ok = false;
  /// On success: per input run, the final committed order (op ids).
  std::vector<std::vector<int>> orders;
  /// On failure: the certificate of the deepest failing decision point.
  std::string explanation;
  std::size_t solver_calls = 0;
  std::size_t cache_hits = 0;
};

/// The one entry path of both tree checkers.  Requires at least one run;
/// every run a single-register history on the same register with the
/// same initial value, sequential per process, with at most 64 ops (the
/// width of for_each_ordered_selection's mask).  Throws
/// util::InvariantViolation otherwise.
template <class Probe>
TreeOutcome check_tree(const std::vector<History>& runs, bool memoize) {
  RLT_CHECK_MSG(!runs.empty(), "need at least one history");
  TreeSearch<Probe> search;
  search.memoize = memoize;
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
  TreeOutcome out;
  out.ok = search.walk(group, 0, committed, /*cid=*/0);
  out.solver_calls = search.solver_calls;
  out.cache_hits = search.cache_hits;
  if (out.ok) {
    out.orders = std::move(search.result_orders);
  } else {
    std::ostringstream os;
    os << "no " << Probe::kFunction
       << " function exists; deepest failing decision point (after "
       << search.deepest_failure_events << " events): " << search.first_failure;
    out.explanation = os.str();
  }
  return out;
}

}  // namespace rlt::checker::detail
