#include "sweep/sweep.hpp"

#include <sstream>

#include "sweep/engine.hpp"
#include "sweep/fnv.hpp"
#include "util/assert.hpp"

namespace rlt::sweep {
namespace {

/// Per shard, like the other engines' caps: one process runs at most
/// this many scenarios; sharding raises the sweepable ceiling N-fold.
constexpr std::uint64_t kMaxScenarios = 10'000'000;

/// Expands the fault axis for one family: kNone contributes one
/// fault-free plan, each applicable faulty kind one plan per fault seed,
/// inapplicable kinds nothing (fault_applies in scenario.hpp is the
/// single pairing authority).  A family with no applicable plan at all
/// (the list named only faults of other families) still runs once,
/// fault-free — a fault sweep never silently drops a family.
std::vector<FaultPlan> plans_for(const SweepOptions& o, Algorithm alg) {
  std::vector<FaultPlan> plans;
  for (const FaultKind f : o.faults) {
    if (!fault_applies(f, alg)) continue;
    if (f == FaultKind::kNone) {
      plans.push_back(FaultPlan{});
    } else {
      for (const std::uint64_t cs : o.crash_seeds) {
        FaultPlan plan{f, cs};
        if (f == FaultKind::kLossy) plan.param = o.drop_permille;
        plans.push_back(plan);
      }
    }
  }
  if (plans.empty()) plans.push_back(FaultPlan{});
  return plans;
}

}  // namespace

SafetyMode::SafetyMode(const SweepOptions& o)
    : shard_(o.shard), seed_begin_(o.seed_begin) {
  RLT_CHECK_MSG(o.seed_begin <= o.seed_end, "seed range is reversed");
  RLT_CHECK_MSG(!o.faults.empty(), "fault-kind list is empty");
  RLT_CHECK_MSG(!o.crash_seeds.empty(), "crash-seed list is empty");
  RLT_CHECK_MSG(o.shard.count > 0 && o.shard.index < o.shard.count,
                "shard index/count out of range");
  for (const Algorithm alg : o.algorithms) {
    const std::vector<FaultPlan> plans = plans_for(o, alg);
    // Non-modeled algorithms ignore the semantics axis; emit them once.
    const std::size_t sem_count =
        alg == Algorithm::kModeled ? o.semantics.size() : 1;
    for (std::size_t si = 0; si < sem_count; ++si) {
      for (const AdversaryKind adv : o.adversaries) {
        for (const int procs : o.process_counts) {
          for (const FaultPlan& plan : plans) {
            Scenario s;
            s.algorithm = alg;
            s.semantics = alg == Algorithm::kModeled ? o.semantics[si]
                                                     : sim::Semantics::kAtomic;
            s.adversary = adv;
            s.processes = procs;
            s.writes_per_process = o.writes_per_process;
            s.max_actions = o.max_actions_per_scenario;
            s.faults = plan;
            s.online_check = o.online;
            s.forensics = o.forensics;
            configs_.push_back(s);
          }
        }
      }
    }
  }
  const std::uint64_t configs = configs_.size();
  const std::uint64_t seeds = o.seed_end - o.seed_begin;
  RLT_CHECK_MSG(configs == 0 || seeds <= UINT64_MAX / configs,
                "sweep cross-product overflows");
  total_ = configs * seeds;
  RLT_CHECK_MSG(owned() <= kMaxScenarios,
                "sweep cross-product exceeds the per-shard scenario limit; "
                "narrow the seed range or axes, or use more shards");
}

Scenario SafetyMode::at(std::uint64_t gi) const {
  Scenario s = configs_[gi % configs_.size()];
  s.seed = seed_begin_ + gi / configs_.size();
  return s;
}

std::string config_key(const SweepOptions& o) {
  std::ostringstream os;
  os << "algs=" << join_axis(o.algorithms)
     << " sems=" << join_axis(o.semantics)
     << " advs=" << join_axis(o.adversaries)
     << " faults=" << join_axis(o.faults)
     << " fseeds=" << join_axis(o.crash_seeds)
     << " drop=" << o.drop_permille
     << " procs=" << join_axis(o.process_counts)
     << " seeds=" << o.seed_begin << ':' << o.seed_end
     << " writes=" << o.writes_per_process
     << " max-actions=" << o.max_actions_per_scenario;
  return os.str();
}

Enumeration enumerate_shard(const SweepOptions& o) {
  const SafetyMode mode(o);
  Enumeration en;
  en.total = mode.total();
  const std::uint64_t owned = mode.owned();
  en.global_indices.reserve(owned);
  en.scenarios.reserve(owned);
  for (std::uint64_t i = 0; i < owned; ++i) {
    const std::uint64_t gi = mode.gi(i);
    en.global_indices.push_back(gi);
    en.scenarios.push_back(mode.at(gi));
  }
  return en;
}

std::vector<Scenario> enumerate_scenarios(const SweepOptions& o) {
  return enumerate_shard(o).scenarios;
}

std::string SweepSummary::stable_text() const {
  std::ostringstream os;
  os << "scenarios " << scenarios << '\n'
     << "ok " << ok << '\n'
     << "violations " << violations << '\n'
     << "blocked " << blocked << '\n'
     << "errors " << errors << '\n'
     << "steps " << total_steps << '\n'
     << "ops " << total_ops << '\n'
     << "digest " << std::hex << digest << std::dec << '\n';
  for (const std::string& f : failures) os << "failure " << f << '\n';
  if (failures_truncated > 0) {
    // Deterministic truncation marker: the counters above are complete,
    // and this line says how many non-ok scenarios the list left out.
    os << "failure ... and " << failures_truncated << " more non-ok "
       << "scenario(s) not listed\n";
  }
  return os.str();
}

SweepFold::SweepFold() { sum_.digest = kFnvOffset; }

void SweepFold::add(const std::string& key, Verdict verdict,
                    std::uint64_t steps, std::uint64_t ops,
                    std::uint64_t history_hash, const std::string& detail) {
  ++sum_.scenarios;
  switch (verdict) {
    case Verdict::kOk: ++sum_.ok; break;
    case Verdict::kViolation: ++sum_.violations; break;
    case Verdict::kBlocked: ++sum_.blocked; break;
    case Verdict::kError: ++sum_.errors; break;
  }
  sum_.total_steps += steps;
  sum_.total_ops += ops;
  fnv_mix_str(sum_.digest, key);
  fnv_mix_u64(sum_.digest, static_cast<std::uint64_t>(verdict));
  fnv_mix_u64(sum_.digest, steps);
  fnv_mix_u64(sum_.digest, ops);
  fnv_mix_u64(sum_.digest, history_hash);
  if (verdict != Verdict::kOk) {
    if (sum_.failures.size() < kMaxReportedFailures) {
      sum_.failures.push_back(key + ": [" + to_string(verdict) + "] " +
                              detail);
    } else {
      ++sum_.failures_truncated;
    }
  }
}

SweepSummary SweepFold::finish(RecordSink*) { return std::move(sum_); }

int SafetyMode::run(std::uint64_t i, ScenarioResult& r) const {
  r = run_scenario(at(gi(i)));
  // The progress classes: ok / viol / blocked / err.
  switch (r.verdict) {
    case Verdict::kOk: return 0;
    case Verdict::kViolation: return 1;
    case Verdict::kBlocked: return 2;
    case Verdict::kError: return 3;
  }
  return 3;
}

void SafetyMode::record(Record& rec, std::uint64_t,
                        const ScenarioResult& r) const {
  // Exactly the digest material plus the failure detail and the
  // message accounting, in a fixed order.
  rec.str("verdict", to_string(r.verdict))
      .u64("steps", r.steps)
      .u64("ops", r.ops)
      .hex("history_hash", r.history_hash)
      .u64("delivered", r.net_delivered)
      .u64("dropped", r.net_dropped)
      .u64("duplicated", r.net_duplicated)
      .u64("msgs", r.net_msgs)
      .u64("bytes", r.net_bytes)
      .u64("rts", r.net_round_trips)
      .str("detail", r.detail);
}

void SafetyMode::span(Record& s, const ScenarioResult& r, bool times) {
  s.str("verdict", to_string(r.verdict))
      .u64("steps", r.steps)
      .u64("ops", r.ops);
  if (times) s.u64("wall_ns", r.wall_ns).u64("check_ns", r.check_ns);
}

std::string SafetyMode::artifact(std::uint64_t, const std::string& key,
                                 const ScenarioResult& r) const {
  if (r.verdict == Verdict::kOk) return {};
  if (!r.forensics.empty()) return r.forensics;
  // Runners that could not capture forensics (kError unwound before the
  // history existed) still get an honest stub.
  Record stub;
  stub.u64("forensics", 1)
      .str("key", key)
      .str("verdict", to_string(r.verdict))
      .str("detail", r.detail);
  return stub.json() + "\n";
}

bool SafetyMode::parse(std::string_view line, const std::string&,
                       ScenarioResult& r) {
  std::string verdict;
  const bool ok = FieldReader(line)
                      .str("verdict", verdict)
                      .u64("steps", r.steps)
                      .u64("ops", r.ops)
                      .hex("history_hash", r.history_hash)
                      .str("detail", r.detail)
                      .ok();
  const std::optional<Verdict> v = verdict_from_string(verdict);
  if (v) r.verdict = *v;
  return ok && v.has_value();
}

SweepSummary run_sweep(const SweepOptions& o, const obs::Hooks* hooks,
                       RecordSink* sink) {
  return run_engine<SafetyMode>(o, hooks, sink);
}

}  // namespace rlt::sweep
