#include "term/term_sweep.hpp"

#include <algorithm>
#include <iomanip>
#include <optional>
#include <sstream>

#include "obs/metrics.hpp"
#include "sweep/engine.hpp"
#include "sweep/fnv.hpp"
#include "util/assert.hpp"

namespace rlt::term {
namespace {

/// Per shard — sharding raises the sweepable ceiling N-fold.
constexpr std::uint64_t kMaxScenarios = 10'000'000;

/// Renders `num/den` as a fixed-point decimal with `digits` fractional
/// places using integer arithmetic only — the stable_text bytes must not
/// depend on a platform's floating-point formatting.
std::string fixed_ratio(std::uint64_t num, std::uint64_t den, int digits) {
  if (den == 0) return "n/a";
  std::uint64_t scale = 1;
  for (int i = 0; i < digits; ++i) scale *= 10;
  const std::uint64_t scaled = num * scale / den;
  std::ostringstream os;
  os << scaled / scale << '.' << std::setw(digits) << std::setfill('0')
     << scaled % scale;
  return os.str();
}

}  // namespace

std::string config_key(const TermSweepOptions& o) {
  std::ostringstream os;
  os << "families=" << sweep::join_axis(o.families)
     << " advs=" << sweep::join_axis(o.adversaries)
     << " procs=" << sweep::join_axis(o.process_counts)
     << " rounds=" << sweep::join_axis(o.round_budgets)
     << " seeds=" << o.seed_begin << ':' << o.seed_end
     << " max-actions=" << o.max_actions_per_scenario;
  return os.str();
}

TermEnumeration enumerate_term_shard(const TermSweepOptions& o) {
  RLT_CHECK_MSG(o.seed_begin <= o.seed_end, "seed range is reversed");
  RLT_CHECK_MSG(!o.families.empty(), "family list is empty");
  RLT_CHECK_MSG(!o.adversaries.empty(), "adversary list is empty");
  RLT_CHECK_MSG(!o.process_counts.empty(), "process-count list is empty");
  RLT_CHECK_MSG(!o.round_budgets.empty(), "round-budget list is empty");
  RLT_CHECK_MSG(o.shard.count > 0 && o.shard.index < o.shard.count,
                "shard index/count out of range");
  std::uint64_t pairs = 0;
  for (const Family f : o.families) {
    for (const TermAdversary a : o.adversaries) {
      if (combination_valid(f, a)) ++pairs;
    }
  }
  const std::uint64_t configs =
      pairs * o.process_counts.size() * o.round_budgets.size();
  const std::uint64_t seeds = o.seed_end - o.seed_begin;
  RLT_CHECK_MSG(configs == 0 || seeds <= UINT64_MAX / configs,
                "termination sweep cross-product overflows");
  TermEnumeration en;
  en.total = configs * seeds;
  RLT_CHECK_MSG(o.shard.share(en.total) <= kMaxScenarios,
                "termination sweep cross-product exceeds the per-shard "
                "scenario limit; narrow the seed range or axes, or use "
                "more shards");
  en.global_indices.reserve(o.shard.share(en.total));
  en.scenarios.reserve(o.shard.share(en.total));
  std::uint64_t gi = 0;
  for (std::uint64_t seed = o.seed_begin; seed < o.seed_end; ++seed) {
    for (const Family f : o.families) {
      for (const TermAdversary a : o.adversaries) {
        if (!combination_valid(f, a)) continue;
        for (const int procs : o.process_counts) {
          for (const int rounds : o.round_budgets) {
            if (o.shard.owns(gi)) {
              TermScenario s;
              s.family = f;
              s.adversary = a;
              s.processes = procs;
              s.seed = seed;
              s.max_rounds = rounds;
              s.max_actions = o.max_actions_per_scenario;
              en.global_indices.push_back(gi);
              en.scenarios.push_back(s);
            }
            ++gi;
          }
        }
      }
    }
  }
  RLT_CHECK_MSG(gi == en.total, "enumeration count disagrees with the "
                                "computed cross-product size");
  return en;
}

std::vector<TermScenario> enumerate_term_scenarios(const TermSweepOptions& o) {
  return enumerate_term_shard(o).scenarios;
}

std::string TermSummary::stable_text() const {
  std::ostringstream os;
  os << "scenarios " << scenarios << '\n'
     << "terminated " << terminated << '\n'
     << "capped " << capped << '\n'
     << "safety_violations " << safety_violations << '\n'
     << "errors " << errors << '\n'
     << "steps " << total_steps << '\n'
     << "coin_flips " << total_coin_flips << '\n'
     << "round_sum " << rounds_sum << '\n'
     << "round_max " << round_max << '\n'
     << "termination_rate " << fixed_ratio(terminated, scenarios, 4) << '\n'
     << "mean_round " << fixed_ratio(rounds_sum, terminated, 2) << '\n';
  for (const TailPoint& t : tail) {
    os << "tail round>" << t.k << ' ' << t.over << '\n';
  }
  for (const FamilyRoundHist& h : hists) {
    for (std::size_t r = 0; r < h.buckets.size(); ++r) {
      if (h.buckets[r] == 0) continue;
      os << "hist " << to_string(h.family) << " r" << r << ' '
         << h.buckets[r] << '\n';
    }
    if (h.capped > 0) {
      os << "hist " << to_string(h.family) << " capped " << h.capped << '\n';
    }
  }
  os << "digest " << std::hex << digest << std::dec << '\n';
  for (const std::string& f : failures) os << "failure " << f << '\n';
  if (failures_truncated > 0) {
    os << "failure ... and " << failures_truncated
       << " more failing scenario(s) not listed\n";
  }
  return os.str();
}

// Per-family histograms are keyed by the Family enum value (fixed small
// range) and materialized into sum.hists in enum order at finish().
namespace {
constexpr std::size_t kFamilies = 4;
static_assert(static_cast<std::size_t>(Family::kGame) == kFamilies - 1,
              "a Family enumerator was added: grow the histogram fold");
}  // namespace

TermFold::TermFold()
    : hist_by_family_(kFamilies), family_present_(kFamilies, false) {
  sum_.digest = sweep::kFnvOffset;
}

void TermFold::add(const std::string& key, Family family,
                   const TermRecord& r) {
  const std::size_t fam = static_cast<std::size_t>(family);
  FamilyRoundHist& hist = hist_by_family_[fam];
  family_present_[fam] = true;
  ++sum_.scenarios;
  if (r.terminated) {
    ++sum_.terminated;
    sum_.rounds_sum += static_cast<std::uint64_t>(r.rounds);
    sum_.round_max = std::max(sum_.round_max, r.rounds);
    const std::size_t bucket = static_cast<std::size_t>(r.rounds);
    if (hist.buckets.size() <= bucket) hist.buckets.resize(bucket + 1, 0);
    ++hist.buckets[bucket];
    ++hist.terminated;
  } else if (r.capped) {
    ++never_terminated_;
    ++hist.capped;
  }
  if (r.capped) ++sum_.capped;
  if (!r.safety_ok) ++sum_.safety_violations;
  if (r.error) ++sum_.errors;
  sum_.total_steps += r.steps;
  sum_.total_coin_flips += r.coin_flips;
  sweep::fnv_mix_str(sum_.digest, key);
  sweep::fnv_mix_u64(sum_.digest, r.terminated ? 1 : 0);
  sweep::fnv_mix_u64(sum_.digest, r.capped ? 1 : 0);
  sweep::fnv_mix_u64(sum_.digest, r.safety_ok ? 1 : 0);
  sweep::fnv_mix_u64(sum_.digest, r.error ? 1 : 0);
  sweep::fnv_mix_u64(sum_.digest, static_cast<std::uint64_t>(r.rounds));
  sweep::fnv_mix_u64(sum_.digest, static_cast<std::uint64_t>(r.stalled));
  sweep::fnv_mix_u64(sum_.digest, r.coin_flips);
  sweep::fnv_mix_u64(sum_.digest, r.steps);
  sweep::fnv_mix_u64(sum_.digest, r.outcome_hash);
  if (r.error || !r.safety_ok) {
    if (sum_.failures.size() < kMaxReportedFailures) {
      sum_.failures.push_back(key + ": " + r.detail);
    } else {
      ++sum_.failures_truncated;
    }
  }
}

TermSummary TermFold::finish(sweep::RecordSink* sink) {
  // Materialize the per-family histograms in Family enum order and, when
  // persisting, append one canonical record per family after the
  // scenario records (same enumeration-order stability contract).
  for (std::size_t fam = 0; fam < kFamilies; ++fam) {
    if (!family_present_[fam]) continue;
    FamilyRoundHist hist = std::move(hist_by_family_[fam]);
    hist.family = static_cast<Family>(fam);
    if (sink != nullptr) {
      std::ostringstream buckets;
      bool first = true;
      for (std::size_t r = 0; r < hist.buckets.size(); ++r) {
        if (hist.buckets[r] == 0) continue;
        if (!first) buckets << ' ';
        buckets << 'r' << r << ':' << hist.buckets[r];
        first = false;
      }
      sweep::Record rec;
      rec.str("key", std::string("term-hist/") + to_string(hist.family))
          .str("mode", "term-hist")
          .u64("terminated", hist.terminated)
          .u64("capped", hist.capped)
          .str("buckets", buckets.str());
      sink->append(rec);
    }
    sum_.hists.push_back(std::move(hist));
  }

  // Survival tail at powers of two, computed from the histograms (they
  // are a lossless summary of the decision rounds): runs that never
  // terminated but hit a budget outlast every k (the Theorem 6
  // signature); terminated runs outlast k while rounds > k.
  if (sum_.terminated > 0 || never_terminated_ > 0) {
    for (int k = 1; k <= std::max(sum_.round_max, 1); k *= 2) {
      TailPoint t;
      t.k = k;
      t.over = never_terminated_;
      for (const FamilyRoundHist& h : sum_.hists) {
        for (std::size_t r = static_cast<std::size_t>(k) + 1;
             r < h.buckets.size(); ++r) {
          t.over += h.buckets[r];
        }
      }
      sum_.tail.push_back(t);
    }
  }
  return std::move(sum_);
}

namespace {

/// "term/<family>/…" → the Family enumerator.
std::optional<Family> family_from_key(std::string_view key) {
  if (!key.starts_with("term/")) return std::nullopt;
  key.remove_prefix(5);
  for (std::size_t f = 0; f < kFamilies; ++f) {
    const std::string_view name = to_string(static_cast<Family>(f));
    if (key.starts_with(name) && key.substr(name.size()).starts_with('/')) {
      return static_cast<Family>(f);
    }
  }
  return std::nullopt;
}

}  // namespace

int TermMode::run(std::uint64_t i, TermRecord& r) const {
  r = run_term_scenario(en_.scenarios[i]);
  if (obs::enabled()) {
    obs::count(obs::Counter::kTermCoinFlips, r.coin_flips);
    if (r.capped) obs::count(obs::Counter::kTermCapped);
  }
  // The progress classes: term / capped / other / err.
  if (r.error || !r.safety_ok) return 3;
  if (r.terminated) return 0;
  return r.capped ? 1 : 2;
}

void TermMode::add(TermFold& f, const std::string& key, const TermRecord& r) {
  f.add(key, *family_from_key(key), r);
}

void TermMode::record(sweep::Record& rec, std::uint64_t,
                      const TermRecord& r) const {
  rec.boolean("terminated", r.terminated)
      .boolean("capped", r.capped)
      .boolean("safety_ok", r.safety_ok)
      .boolean("error", r.error)
      .u64("rounds", static_cast<std::uint64_t>(r.rounds))
      .u64("stalled", static_cast<std::uint64_t>(r.stalled))
      .u64("coin_flips", r.coin_flips)
      .u64("steps", r.steps)
      .hex("outcome_hash", r.outcome_hash)
      .str("detail", r.detail);
}

void TermMode::span(sweep::Record& s, const TermRecord& r, bool times) {
  s.boolean("terminated", r.terminated)
      .boolean("capped", r.capped)
      .u64("rounds", static_cast<std::uint64_t>(r.rounds))
      .u64("steps", r.steps);
  if (times) s.u64("wall_ns", r.wall_ns);
}

bool TermMode::parse(std::string_view line, const std::string& key,
                     TermRecord& r) {
  return family_from_key(key) && sweep::FieldReader(line)
                                     .boolean("terminated", r.terminated)
                                     .boolean("capped", r.capped)
                                     .boolean("safety_ok", r.safety_ok)
                                     .boolean("error", r.error)
                                     .u64("rounds", r.rounds)
                                     .u64("stalled", r.stalled)
                                     .u64("coin_flips", r.coin_flips)
                                     .u64("steps", r.steps)
                                     .hex("outcome_hash", r.outcome_hash)
                                     .str("detail", r.detail)
                                     .ok();
}

TermSummary run_term_sweep(const TermSweepOptions& o, const obs::Hooks* hooks,
                           sweep::RecordSink* sink) {
  return sweep::run_engine<TermMode>(o, hooks, sink);
}

}  // namespace rlt::term
