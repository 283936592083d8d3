#include "sweep/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "obs/forensics.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "sweep/fnv.hpp"
#include "sweep/ordered.hpp"
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

/// The cross-product as a decoder, the one enumeration path of the
/// safety sweep.  Seeds are the outermost axis, so the configs one seed
/// expands to (algorithm, semantics, adversary, process count, fault
/// plan, in that nesting order) are built once, and the scenario at
/// global index gi is config gi % |configs| with seed
/// seed_begin + gi / |configs|.  run_sweep decodes each scenario when a
/// worker runs it and again when the fold keys it, so it holds no
/// per-scenario list; enumerate_shard materializes the same decode.
class Decoder {
 public:
  explicit Decoder(const SweepOptions& o)
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
              s.semantics = alg == Algorithm::kModeled
                                ? o.semantics[si]
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

  /// Full cross-product size (all shards).
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  /// Scenarios this shard owns.
  [[nodiscard]] std::uint64_t owned() const noexcept {
    return shard_.share(total_);
  }
  /// Global index of this shard's i-th scenario (round robin).
  [[nodiscard]] std::uint64_t global_index(std::uint64_t i) const noexcept {
    return shard_.index + i * shard_.count;
  }
  /// The scenario at global index `gi` (< total()).
  [[nodiscard]] Scenario at(std::uint64_t gi) const {
    Scenario s = configs_[gi % configs_.size()];
    s.seed = seed_begin_ + gi / configs_.size();
    return s;
  }

 private:
  ShardSpec shard_;
  std::uint64_t seed_begin_;
  std::vector<Scenario> configs_;
  std::uint64_t total_ = 0;
};

}  // namespace

std::string config_key(const SweepOptions& o) {
  std::ostringstream os;
  os << "algs=";
  for (std::size_t i = 0; i < o.algorithms.size(); ++i) {
    os << (i ? "," : "") << to_string(o.algorithms[i]);
  }
  os << " sems=";
  for (std::size_t i = 0; i < o.semantics.size(); ++i) {
    os << (i ? "," : "") << sim::to_string(o.semantics[i]);
  }
  os << " advs=";
  for (std::size_t i = 0; i < o.adversaries.size(); ++i) {
    os << (i ? "," : "") << to_string(o.adversaries[i]);
  }
  os << " faults=";
  for (std::size_t i = 0; i < o.faults.size(); ++i) {
    os << (i ? "," : "") << to_string(o.faults[i]);
  }
  os << " fseeds=";
  for (std::size_t i = 0; i < o.crash_seeds.size(); ++i) {
    os << (i ? "," : "") << o.crash_seeds[i];
  }
  os << " drop=" << o.drop_permille << " procs=";
  for (std::size_t i = 0; i < o.process_counts.size(); ++i) {
    os << (i ? "," : "") << o.process_counts[i];
  }
  os << " seeds=" << o.seed_begin << ':' << o.seed_end
     << " writes=" << o.writes_per_process
     << " max-actions=" << o.max_actions_per_scenario;
  return os.str();
}

Enumeration enumerate_shard(const SweepOptions& o) {
  const Decoder dec(o);
  Enumeration en;
  en.total = dec.total();
  const std::uint64_t owned = dec.owned();
  en.global_indices.reserve(owned);
  en.scenarios.reserve(owned);
  for (std::uint64_t i = 0; i < owned; ++i) {
    const std::uint64_t gi = dec.global_index(i);
    en.global_indices.push_back(gi);
    en.scenarios.push_back(dec.at(gi));
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

SweepSummary SweepFold::finish() { return std::move(sum_); }

namespace {

/// Progress outcome class of a safety verdict (the four class slots of
/// the progress protocol: ok / viol / blocked / err).
int progress_class(Verdict v) noexcept {
  switch (v) {
    case Verdict::kOk: return 0;
    case Verdict::kViolation: return 1;
    case Verdict::kBlocked: return 2;
    case Verdict::kError: return 3;
  }
  return 3;
}

}  // namespace

SweepSummary run_sweep(const SweepOptions& o, std::uint64_t progress_every,
                       RecordSink* sink, const obs::Hooks* hooks) {
  const auto t0 = std::chrono::steady_clock::now();
  const Decoder dec(o);
  const std::uint64_t owned = dec.owned();

  const bool tracing = hooks != nullptr && hooks->trace != nullptr;
  if (sink != nullptr && o.shard.active()) {
    sink->append(shard_header_record("safety", o.shard, config_key(o),
                                     dec.total(), owned));
  }
  StreamSpec spec;
  spec.threads = o.threads;
  spec.batch_size = o.batch_size;
  spec.hooks = hooks;
  spec.progress_every = progress_every;
  SweepFold fold;
  std::uint64_t wall_ns_total = 0;
  std::uint64_t wall_ns_max = 0;
  // Deterministic fold, streamed: enumeration order, no wall-clock
  // fields, run on this thread while the workers go on.  The fold inputs
  // are exactly the persisted record fields, so a merge that re-folds
  // shard-store records reproduces this summary bit for bit.
  stream_ordered<ScenarioResult>(
      owned, spec,
      [&dec](std::size_t i, ScenarioResult& r) {
        r = run_scenario(dec.at(dec.global_index(i)));
        return progress_class(r.verdict);
      },
      [&](std::size_t i, const ScenarioResult& r,
          const obs::CounterDelta* delta) {
        const std::uint64_t gi = dec.global_index(i);
        const std::string key = dec.at(gi).key();
        wall_ns_total += r.wall_ns;
        if (r.wall_ns > wall_ns_max) wall_ns_max = r.wall_ns;
        fold.add(key, r.verdict, r.steps, r.ops, r.history_hash, r.detail);
        if (sink != nullptr) {
          // Canonical per-scenario record: the global enumeration index,
          // then exactly the digest material (plus the failure detail),
          // in a fixed field order, so the store is byte-identical
          // whenever the digest is — and mergeable whatever the shard
          // count was.
          Record rec;
          rec.u64("gi", gi)
              .str("key", key)
              .str("mode", "safety")
              .str("verdict", to_string(r.verdict))
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
          sink->append(rec);
        }
        if (tracing) {
          // One span per scenario, in enumeration order — byte-stable
          // across threads/batch.  Wall-clock fields only under
          // trace_times (they break byte-identity).
          Record span;
          span.str("obs", "span")
              .u64("gi", gi)
              .str("key", key)
              .str("mode", "safety")
              .str("verdict", to_string(r.verdict))
              .u64("steps", r.steps)
              .u64("ops", r.ops);
          if (hooks->trace_times) {
            span.u64("wall_ns", r.wall_ns).u64("check_ns", r.check_ns);
          }
          obs::append_stable_deltas(*delta, span);
          hooks->trace->append(span);
        }
        if (hooks != nullptr && hooks->forensics_on() &&
            r.verdict != Verdict::kOk) {
          // One canonical-JSON artifact per non-ok scenario, written by
          // the fold and named by global index — so the directory is
          // byte-identical across --threads/--batch, and the gi-disjoint
          // shards of one sweep tile the unsharded directory.  Runners
          // that could not capture forensics (kError unwound before the
          // history existed) still get an honest stub.
          std::string body = r.forensics;
          if (body.empty()) {
            Record stub;
            stub.u64("forensics", 1)
                .str("key", key)
                .str("verdict", to_string(r.verdict))
                .str("detail", r.detail);
            body = stub.json() + "\n";
          }
          obs::write_artifact(hooks->forensics_dir,
                              "scenario-" + std::to_string(gi) + ".json",
                              body);
        }
      });
  if (tracing && hooks->trace_times) {
    // Closing span: end-to-end engine wall clock (opt-in, like every
    // wall-clock trace field).
    // "stable":false marks this record as wall-clock material, never
    // byte-stable across runs — sweep_diff.py-style tooling skips it
    // mechanically instead of special-casing the span name.
    Record close;
    close.str("obs", "span")
        .str("span", "sweep")
        .str("mode", "safety")
        .boolean("stable", false)
        .u64("scenarios", owned)
        .u64("elapsed_ns",
             static_cast<std::uint64_t>(
                 std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - t0)
                     .count()));
    hooks->trace->append(close);
  }
  SweepSummary sum = fold.finish();
  if (sink != nullptr && o.shard.active()) {
    sink->append(shard_trailer_record(o.shard, owned, sum.digest));
  }
  sum.wall_ns_total = wall_ns_total;
  sum.wall_ns_max = wall_ns_max;
  sum.elapsed_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return sum;
}

}  // namespace rlt::sweep
