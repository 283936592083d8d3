#include "explore/explore.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>

#include "explore/policy.hpp"
#include "explore/shrink.hpp"
#include "obs/metrics.hpp"
#include "sim/schedule_policy.hpp"
#include "sweep/engine.hpp"
#include "sweep/fnv.hpp"
#include "util/append.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace rlt::explore {
namespace {

using sweep::fnv_mix_str;
using sweep::fnv_mix_u64;
using sweep::kFnvOffset;

/// Per shard — sharding raises the searchable ceiling N-fold.
constexpr std::uint64_t kMaxInstances = 1'000'000;
/// Short local spellings of the public rank constants (explore.hpp).
constexpr int kRankViolation = kFoundRankViolation;
constexpr int kRankBlocked = kFoundRankBlocked;

/// Independent derived seed streams (domain-separated FNV mixes).
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t h = kFnvOffset;
  fnv_mix_u64(h, a);
  fnv_mix_u64(h, b);
  fnv_mix_u64(h, c);
  return h;
}

[[nodiscard]] bool game_like(term::Family f) {
  return f == term::Family::kGame || f == term::Family::kComposed;
}

/// One run's deterministic outcome, whichever objective produced it.
struct ProbeOutcome {
  std::uint64_t score = 0;
  int rank = 0;  ///< kViolation only.
  std::uint64_t fingerprint = 0;
  std::uint64_t steps = 0;
  std::string verdict;
  std::string forensics;  ///< Artifact (kViolation probes with forensics on).
};

ProbeOutcome probe(const ExploreInstance& e, RecordingPolicy& policy) {
  ProbeOutcome out;
  if (e.objective == Objective::kRounds) {
    term::TermProbeSpec spec;
    spec.family = e.family;
    spec.processes = e.processes;
    spec.max_rounds = e.max_rounds;
    spec.max_actions = e.max_actions;
    spec.seed = e.seed;
    spec.game_semantics = game_like(e.family) ? sim::Semantics::kLinearizable
                                              : sim::Semantics::kAtomic;
    sim::PolicyAdversary adv(policy);
    const term::TermProbe p = term::run_term_probe(spec, adv);
    out.score = p.rounds_score;
    out.fingerprint = p.outcome_hash;
    out.steps = p.steps;
    out.verdict = p.decided ? "decided" : p.capped ? "capped" : "budget";
  } else {
    sweep::Scenario s;
    s.algorithm = e.algorithm;
    s.semantics = e.semantics;
    s.processes = e.processes;
    s.seed = e.seed;
    s.writes_per_process = e.writes_per_process;
    s.max_actions = e.max_actions;
    s.abd_read_write_back = e.abd_read_write_back;
    s.explore_faults = e.fault_menu;
    s.online_check = e.online;
    s.forensics = e.forensics;
    const sweep::ScenarioResult r = sweep::run_scenario_policy(s, policy);
    out.forensics = r.forensics;
    out.rank = r.verdict == sweep::Verdict::kViolation ? kRankViolation
               : r.verdict == sweep::Verdict::kBlocked ? kRankBlocked
                                                       : 0;
    // Lexicographic (rank, peak concurrency): the concurrency observation
    // gives hill climbing a gradient toward overlap-heavy schedules even
    // while no violation has surfaced yet.
    out.score = (static_cast<std::uint64_t>(out.rank) << 32) |
                std::min<std::uint64_t>(policy.peak_pending(), 0xffffffffu);
    out.fingerprint = r.history_hash;
    out.steps = r.steps;
    out.verdict = sweep::to_string(r.verdict);
  }
  return out;
}

/// Seeded trace mutation for the hill-climbing strategy: point rewrites,
/// chunk deletions, insertions, and tail truncations (1-3 of them).
ScheduleTrace mutate(const ScheduleTrace& base, util::Rng& m) {
  ScheduleTrace t = base;
  if (t.choices.empty()) {
    t.choices.push_back(static_cast<std::uint32_t>(m.next_u64()));
    return t;
  }
  const int mutations = 1 + static_cast<int>(m.uniform(3));
  for (int i = 0; i < mutations && !t.choices.empty(); ++i) {
    const std::size_t size = t.choices.size();
    switch (m.uniform(4)) {
      case 0: {  // point rewrite
        const std::size_t pos = static_cast<std::size_t>(m.uniform(size));
        t.choices[pos] = static_cast<std::uint32_t>(m.next_u64());
        break;
      }
      case 1: {  // chunk deletion
        const std::size_t pos = static_cast<std::size_t>(m.uniform(size));
        const std::size_t len = 1 + static_cast<std::size_t>(m.uniform(
                                        std::max<std::uint64_t>(size / 8, 1)));
        const std::size_t end = std::min(pos + len, size);
        t.choices.erase(
            t.choices.begin() + static_cast<std::ptrdiff_t>(pos),
            t.choices.begin() + static_cast<std::ptrdiff_t>(end));
        break;
      }
      case 2: {  // insertion
        const std::size_t pos = static_cast<std::size_t>(m.uniform(size + 1));
        t.choices.insert(t.choices.begin() + static_cast<std::ptrdiff_t>(pos),
                         static_cast<std::uint32_t>(m.next_u64()));
        break;
      }
      default: {  // tail truncation (keeps at least one choice)
        if (size > 1) {
          t.choices.resize(1 + static_cast<std::size_t>(m.uniform(size - 1)));
        }
        break;
      }
    }
  }
  return t;
}

std::unique_ptr<RecordingPolicy> make_policy(const ExploreInstance& e, int k,
                                             const ScheduleTrace& incumbent) {
  switch (e.strategy) {
    case Strategy::kRandom:
      return std::make_unique<RandomPolicy>(mix_seed(e.seed, 0xA11, k));
    case Strategy::kGreedy: {
      // Run 0 is the pure heuristic; later runs jitter ~1/16 of the
      // decisions so the budget explores the heuristic's neighborhood.
      const std::uint32_t jitter = k == 0 ? 0 : 16;
      if (e.objective == Objective::kRounds) {
        return std::make_unique<GreedyRoundsPolicy>(
            game_like(e.family), mix_seed(e.seed, 0x9EE, k), jitter);
      }
      return std::make_unique<GreedyViolationPolicy>(
          mix_seed(e.seed, 0x9EE, k), jitter);
    }
    case Strategy::kHillClimb: {
      if (k == 0) {
        return std::make_unique<RandomPolicy>(mix_seed(e.seed, 0xA11, 0));
      }
      util::Rng m(mix_seed(e.seed, 0xB17, k));
      return std::make_unique<ReplayPolicy>(mutate(incumbent, m),
                                            mix_seed(e.seed, 0xFA11, k));
    }
  }
  RLT_CHECK_MSG(false, "unknown strategy");
  return nullptr;
}

}  // namespace

const char* to_string(Objective o) noexcept {
  switch (o) {
    case Objective::kRounds: return "rounds";
    case Objective::kViolation: return "viol";
  }
  return "?";
}

const char* to_string(Strategy s) noexcept {
  switch (s) {
    case Strategy::kGreedy: return "greedy";
    case Strategy::kHillClimb: return "hill";
    case Strategy::kRandom: return "random";
  }
  return "?";
}

std::string ExploreInstance::key() const {
  const bool rounds = objective == Objective::kRounds;
  std::string k = "explore/";
  k += to_string(objective);
  k += '/';
  k += rounds ? term::to_string(family) : sweep::to_string(algorithm);
  k += '/';
  k += to_string(strategy);
  k += "/p";
  util::append_int(k, processes);
  k += rounds ? "/r" : "/w";
  util::append_int(k, rounds ? max_rounds : writes_per_process);
  k += "/b";
  util::append_int(k, search_budget);
  if (!abd_read_write_back) k += "/nowb";
  if (fault_menu) k += "/fmenu";
  k += "/seed";
  util::append_int(k, seed);
  return k;
}

ReplayReport replay_trace(const ExploreInstance& e, const ScheduleTrace& trace,
                          std::uint64_t fallback_seed) {
  ReplayPolicy policy(trace, fallback_seed);
  const ProbeOutcome p = probe(e, policy);
  ReplayReport r;
  r.score = p.score;
  r.rank = p.rank;
  r.fingerprint = p.fingerprint;
  r.steps = p.steps;
  r.effective = policy.recorded();
  r.verdict = p.verdict;
  r.forensics = p.forensics;
  return r;
}

ExploreOutcome run_explore_instance(const ExploreInstance& e) {
  ExploreOutcome out;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    RLT_CHECK_MSG(e.search_budget >= 1, "search budget must be positive");
    out.fallback_seed = mix_seed(e.seed, 0x5EED, 0);
    ScheduleTrace incumbent;
    bool have_best = false;
    for (int k = 0; k < e.search_budget; ++k) {
      const std::unique_ptr<RecordingPolicy> policy =
          make_policy(e, k, incumbent);
      const ProbeOutcome p = probe(e, *policy);
      ++out.runs;
      out.total_steps += p.steps;
      if (!have_best || p.score > out.best_score) {
        have_best = true;
        out.best_score = p.score;
        out.found_rank = p.rank;
        out.fingerprint = p.fingerprint;
        out.best_trace = policy->recorded();
        incumbent = out.best_trace;
        out.detail = p.verdict;
      }
    }
    // Shrink whatever the search "found": a violation/blocked schedule,
    // or a budget-defeating survival (the non-terminating witness).
    // The probe's verdict string — not a score threshold — decides: the
    // coin family's score (longest personal walk) routinely exceeds any
    // round bound on runs that decided just fine.
    const bool worth_shrinking =
        e.objective == Objective::kViolation
            ? out.found_rank >= kRankBlocked
            : out.detail == "capped";
    out.unshrunk_len = out.best_trace.size();
    if (worth_shrinking && e.shrink_budget > 0) {
      const int target_rank = out.found_rank;
      const std::uint64_t target_score = out.best_score;
      const auto keep = [&](const ScheduleTrace& candidate) {
        const ReplayReport r =
            replay_trace(e, candidate, out.fallback_seed);
        return e.objective == Objective::kViolation
                   ? r.rank >= target_rank
                   : r.score >= target_score;
      };
      ShrinkResult sr =
          shrink(out.best_trace, keep, e.shrink_budget);
      out.shrunk = true;
      out.locally_minimal = sr.locally_minimal;
      out.shrink_probes = sr.probes;
      out.best_trace = std::move(sr.trace);
      // The persisted record describes the SHRUNK trace: re-derive its
      // own deterministic replay facts.
      const ReplayReport fin =
          replay_trace(e, out.best_trace, out.fallback_seed);
      out.best_score = fin.score;
      out.found_rank = fin.rank;
      out.fingerprint = fin.fingerprint;
      out.detail = fin.verdict;
    }
    out.trace_fnv = trace_hash(out.best_trace);
  } catch (const std::exception& ex) {
    out = ExploreOutcome{};
    out.error = true;
    out.detail = std::string("error: ") + ex.what();
  } catch (...) {
    out = ExploreOutcome{};
    out.error = true;
    out.detail = "error: unknown exception";
  }
  out.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return out;
}

std::string config_key(const ExploreOptions& o) {
  std::ostringstream os;
  os << "objective=" << to_string(o.objective)
     << " strategy=" << to_string(o.strategy);
  if (o.objective == Objective::kRounds) {
    os << " families=" << sweep::join_axis(o.families)
       << " rounds=" << sweep::join_axis(o.round_budgets);
  } else {
    os << " algs=" << sweep::join_axis(o.algorithms)
       << " writes=" << o.writes_per_process
       << " wb=" << (o.abd_read_write_back ? 1 : 0)
       << " fmenu=" << (o.fault_menu ? 1 : 0);
  }
  os << " procs=" << sweep::join_axis(o.process_counts)
     << " seeds=" << o.seed_begin << ':' << o.seed_end
     << " budget=" << o.search_budget << " shrink=" << o.shrink_budget
     << " max-actions=" << o.max_actions_per_run;
  return os.str();
}

ExploreEnumeration enumerate_explore_shard(const ExploreOptions& o) {
  RLT_CHECK_MSG(o.seed_begin < o.seed_end, "instance-seed range is empty");
  RLT_CHECK_MSG(o.search_budget >= 1, "search budget must be positive");
  RLT_CHECK_MSG(!o.process_counts.empty(), "process-count list is empty");
  RLT_CHECK_MSG(o.shard.count > 0 && o.shard.index < o.shard.count,
                "shard index/count out of range");
  if (o.objective == Objective::kRounds) {
    RLT_CHECK_MSG(!o.families.empty(), "family list is empty");
    RLT_CHECK_MSG(!o.round_budgets.empty(), "round-budget list is empty");
  } else {
    RLT_CHECK_MSG(!o.algorithms.empty(), "algorithm list is empty");
  }
  const std::uint64_t seeds = o.seed_end - o.seed_begin;
  const std::uint64_t configs =
      (o.objective == Objective::kRounds
           ? o.families.size() * o.round_budgets.size()
           : o.algorithms.size()) *
      o.process_counts.size();
  RLT_CHECK_MSG(configs == 0 || seeds <= UINT64_MAX / configs,
                "exploration cross-product overflows");
  ExploreEnumeration en;
  en.total = configs * seeds;
  RLT_CHECK_MSG(o.shard.share(en.total) <= kMaxInstances,
                "exploration cross-product exceeds the per-shard instance "
                "limit; narrow the seed range or axes, or use more shards");
  en.global_indices.reserve(o.shard.share(en.total));
  en.instances.reserve(o.shard.share(en.total));
  std::uint64_t gi = 0;
  const auto emit = [&](const ExploreInstance& e) {
    if (o.shard.owns(gi)) {
      en.global_indices.push_back(gi);
      en.instances.push_back(e);
    }
    ++gi;
  };
  for (std::uint64_t seed = o.seed_begin; seed < o.seed_end; ++seed) {
    for (const int procs : o.process_counts) {
      if (o.objective == Objective::kRounds) {
        for (const term::Family f : o.families) {
          for (const int rounds : o.round_budgets) {
            ExploreInstance e;
            e.objective = o.objective;
            e.strategy = o.strategy;
            e.family = f;
            e.processes = procs;
            e.max_rounds = rounds;
            e.max_actions = o.max_actions_per_run;
            e.seed = seed;
            e.search_budget = o.search_budget;
            e.shrink_budget = o.shrink_budget;
            emit(e);
          }
        }
      } else {
        for (const sweep::Algorithm a : o.algorithms) {
          ExploreInstance e;
          e.objective = o.objective;
          e.strategy = o.strategy;
          e.algorithm = a;
          e.semantics = sim::Semantics::kLinearizable;
          e.processes = procs;
          e.writes_per_process = o.writes_per_process;
          e.max_actions = o.max_actions_per_run;
          e.seed = seed;
          e.search_budget = o.search_budget;
          e.shrink_budget = o.shrink_budget;
          e.abd_read_write_back =
              a == sweep::Algorithm::kAbd ? o.abd_read_write_back : true;
          e.fault_menu = a == sweep::Algorithm::kAbd && o.fault_menu;
          e.online = o.online;
          emit(e);
        }
      }
    }
  }
  RLT_CHECK_MSG(gi == en.total, "enumeration count disagrees with the "
                                "computed cross-product size");
  return en;
}

std::vector<ExploreInstance> enumerate_explore_instances(
    const ExploreOptions& o) {
  return enumerate_explore_shard(o).instances;
}

std::string ExploreSummary::stable_text() const {
  std::ostringstream os;
  os << "instances " << instances << '\n'
     << "search_runs " << search_runs << '\n'
     << "violations_found " << violations_found << '\n'
     << "blocked_found " << blocked_found << '\n'
     << "shrunk_traces " << shrunk_traces << '\n'
     << "errors " << errors << '\n'
     << "steps " << total_steps << '\n'
     << "best_score " << best_score << '\n'
     << "best_key " << (best_key.empty() ? "n/a" : best_key) << '\n'
     << "digest " << std::hex << digest << std::dec << '\n';
  for (const std::string& f : failures) os << "failure " << f << '\n';
  if (failures_truncated > 0) {
    os << "failure ... and " << failures_truncated
       << " more failing instance(s) not listed\n";
  }
  return os.str();
}

ExploreFold::ExploreFold() { sum_.digest = kFnvOffset; }

template <class In>
void ExploreFold::add(const std::string& key, const In& it) {
  ++sum_.instances;
  sum_.search_runs += it.runs;
  if (it.found_rank >= kRankViolation) ++sum_.violations_found;
  if (it.found_rank == kRankBlocked) ++sum_.blocked_found;
  if (it.shrunk) ++sum_.shrunk_traces;
  if (it.error) ++sum_.errors;
  sum_.total_steps += it.total_steps;
  if (!it.error && it.best_score > sum_.best_score) {
    sum_.best_score = it.best_score;
    sum_.best_key = key;
  }
  // First-instance tie-break: an all-zero exploration still names the
  // first non-error instance, so best_key is never "n/a" spuriously.
  if (sum_.best_key.empty() && !it.error && index_ == 0) sum_.best_key = key;
  fnv_mix_str(sum_.digest, key);
  fnv_mix_u64(sum_.digest, it.best_score);
  fnv_mix_u64(sum_.digest, static_cast<std::uint64_t>(it.found_rank));
  fnv_mix_u64(sum_.digest, it.fingerprint);
  fnv_mix_u64(sum_.digest, it.trace_fnv);
  fnv_mix_u64(sum_.digest, it.runs);
  fnv_mix_u64(sum_.digest, it.total_steps);
  fnv_mix_u64(sum_.digest, it.shrunk ? 1 : 0);
  fnv_mix_u64(sum_.digest, it.locally_minimal ? 1 : 0);
  fnv_mix_u64(sum_.digest, it.shrink_probes);
  fnv_mix_u64(sum_.digest, it.error ? 1 : 0);
  if (it.error) {
    if (sum_.failures.size() < kMaxReportedFailures) {
      sum_.failures.push_back(key + ": " + it.detail);
    } else {
      ++sum_.failures_truncated;
    }
  }
  ++index_;
}
template void ExploreFold::add(const std::string&, const ExploreFold::Item&);
template void ExploreFold::add(const std::string&, const ExploreOutcome&);

ExploreSummary ExploreFold::finish(sweep::RecordSink*) {
  return std::move(sum_);
}

int ExploreMode::run(std::uint64_t i, ExploreOutcome& r) const {
  const ExploreInstance& e = en_.instances[i];
  r = run_explore_instance(e);
  if (obs::enabled()) {
    obs::count(obs::Counter::kExploreRuns, r.runs);
    obs::count(obs::Counter::kExploreShrinkProbes, r.shrink_probes);
    obs::count(obs::Counter::kExploreSteps, r.total_steps);
  }
  // The progress classes: clean / found / other / err.  "found" = the
  // search located what it hunts (a violation/blocked schedule, or a
  // budget-defeating survival for the rounds objective).
  if (r.error) return 3;
  const bool found = e.objective == Objective::kViolation
                         ? r.found_rank >= kRankBlocked
                         : r.detail == "capped";
  return found ? 1 : 0;
}

void ExploreMode::record(sweep::Record& rec, std::uint64_t i,
                         const ExploreOutcome& r) const {
  const ExploreInstance& e = en_.instances[i];
  // For the rounds objective: the best run's own verdict ("decided" /
  // "capped" / "budget"), not a score threshold — see the shrink gate.
  const char* found = r.error                              ? "error"
                      : e.objective == Objective::kRounds  ? r.detail.c_str()
                      : r.found_rank >= kRankViolation     ? "violation"
                      : r.found_rank == kRankBlocked       ? "blocked"
                                                           : "none";
  rec.str("objective", to_string(e.objective))
      .str("strategy", to_string(e.strategy))
      .str("target", e.objective == Objective::kRounds
                         ? term::to_string(e.family)
                         : sweep::to_string(e.algorithm))
      .u64("processes", static_cast<std::uint64_t>(e.processes))
      .u64("rounds", static_cast<std::uint64_t>(e.max_rounds))
      .u64("writes", static_cast<std::uint64_t>(e.writes_per_process))
      .u64("max_actions", e.max_actions)
      .u64("seed", e.seed)
      .u64("budget", static_cast<std::uint64_t>(e.search_budget))
      .boolean("write_back", e.abd_read_write_back)
      .boolean("fault_menu", e.fault_menu)
      .u64("runs", r.runs)
      .u64("steps", r.total_steps)
      .u64("best_score", r.best_score)
      .str("found", found)
      .hex("fingerprint", r.fingerprint)
      .hex("trace_fnv", r.trace_fnv)
      .u64("trace_len", r.best_trace.size())
      .u64("unshrunk_len", r.unshrunk_len)
      .boolean("shrunk", r.shrunk)
      .boolean("locally_minimal", r.locally_minimal)
      .u64("shrink_probes", r.shrink_probes)
      .u64("fallback_seed", r.fallback_seed)
      .str("trace", encode_trace(r.best_trace))
      .str("detail", r.detail);
}

void ExploreMode::span(sweep::Record& s, const ExploreOutcome& r,
                       bool times) {
  s.u64("runs", r.runs)
      .u64("best_score", r.best_score)
      .u64("shrink_probes", r.shrink_probes)
      .u64("steps", r.total_steps);
  if (times) s.u64("wall_ns", r.wall_ns);
}

std::string ExploreMode::artifact(std::uint64_t i, const std::string& key,
                                  const ExploreOutcome& r) const {
  const ExploreInstance& e = en_.instances[i];
  if (e.objective != Objective::kViolation || r.error ||
      r.found_rank < kRankBlocked) {
    return {};
  }
  // Witness forensics: replay the shrunk best trace with capture on so
  // it ships with its explanation (certificate / quorum ledger /
  // timeline).  The replay is deterministic and runs in the fold.
  ExploreInstance fe = e;
  fe.forensics = true;
  const ReplayReport rep = replay_trace(fe, r.best_trace, r.fallback_seed);
  if (!rep.forensics.empty()) return rep.forensics;
  sweep::Record stub;
  stub.u64("forensics", 1)
      .str("key", key)
      .str("verdict", rep.verdict)
      .str("detail", "replay captured no forensics");
  return stub.json() + "\n";
}

bool ExploreMode::parse(std::string_view line, const std::string&,
                        ExploreOutcome& r) {
  std::string found;
  const bool ok = sweep::FieldReader(line)
                      .u64("runs", r.runs)
                      .u64("steps", r.total_steps)
                      .u64("best_score", r.best_score)
                      .str("found", found)
                      .hex("fingerprint", r.fingerprint)
                      .hex("trace_fnv", r.trace_fnv)
                      .boolean("shrunk", r.shrunk)
                      .boolean("locally_minimal", r.locally_minimal)
                      .u64("shrink_probes", r.shrink_probes)
                      .str("detail", r.detail)
                      .ok();
  r.found_rank = found == "violation" ? kRankViolation
                 : found == "blocked" ? kRankBlocked
                                      : 0;
  r.error = found == "error";
  return ok;
}

ExploreSummary run_explore(const ExploreOptions& o, const obs::Hooks* hooks,
                           sweep::RecordSink* sink) {
  return sweep::run_engine<ExploreMode>(o, hooks, sink);
}

// ---- persisted-record parsing (the --replay path) -----------------------

std::optional<PersistedTrace> parse_explore_record(const std::string& line,
                                                   std::string* error) {
  const auto fail = [&](const std::string& why) -> std::optional<PersistedTrace> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  if (sweep::field_str(line, "mode").value_or("") != "explore") {
    return fail("not an explore record (mode != \"explore\")");
  }
  PersistedTrace out;
  const auto objective = sweep::field_str(line, "objective");
  const auto strategy = sweep::field_str(line, "strategy");
  const auto target = sweep::field_str(line, "target");
  const auto trace = sweep::field_str(line, "trace");
  if (!objective || !strategy || !target || !trace) {
    return fail("record is missing objective/strategy/target/trace");
  }
  ExploreInstance& e = out.instance;
  if (*objective == "rounds") {
    e.objective = Objective::kRounds;
  } else if (*objective == "viol") {
    e.objective = Objective::kViolation;
  } else {
    return fail("unknown objective '" + *objective + "'");
  }
  if (*strategy == "greedy") e.strategy = Strategy::kGreedy;
  else if (*strategy == "hill") e.strategy = Strategy::kHillClimb;
  else if (*strategy == "random") e.strategy = Strategy::kRandom;
  else return fail("unknown strategy '" + *strategy + "'");
  if (e.objective == Objective::kRounds) {
    if (*target == "consensus") e.family = term::Family::kConsensus;
    else if (*target == "composed") e.family = term::Family::kComposed;
    else if (*target == "coin") e.family = term::Family::kSharedCoin;
    else if (*target == "game") e.family = term::Family::kGame;
    else return fail("unknown family '" + *target + "'");
  } else {
    if (*target == "modeled") e.algorithm = sweep::Algorithm::kModeled;
    else if (*target == "alg2") e.algorithm = sweep::Algorithm::kAlg2;
    else if (*target == "alg4") e.algorithm = sweep::Algorithm::kAlg4;
    else if (*target == "abd") e.algorithm = sweep::Algorithm::kAbd;
    else return fail("unknown algorithm '" + *target + "'");
    e.semantics = sim::Semantics::kLinearizable;
  }
  if (!sweep::FieldReader(line)
           .u64("processes", e.processes)
           .u64("rounds", e.max_rounds)
           .u64("writes", e.writes_per_process)
           .u64("max_actions", e.max_actions)
           .u64("seed", e.seed)
           .u64("budget", e.search_budget)
           .boolean("write_back", e.abd_read_write_back)
           .u64("fallback_seed", out.fallback_seed)
           .hex("fingerprint", out.fingerprint)
           .u64("best_score", out.best_score)
           .ok()) {
    return fail("record is missing config fields");
  }
  // Absent in pre-fault-fabric stores; those traces ran without the menu.
  e.fault_menu = sweep::field_bool(line, "fault_menu").value_or(false);
  const std::optional<ScheduleTrace> decoded = decode_trace(*trace);
  if (!decoded) return fail("malformed trace field");
  out.trace = *decoded;
  return out;
}

}  // namespace rlt::explore
