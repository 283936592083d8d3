// perfbench driver: runs one benchmark workload inside this process and
// prints one JSON object on stdout.  perfbench/run.py spawns it, one fresh
// process per measurement, and reads the peak RSS of each child.
//
//   perfbench_driver run   --workload W --offset K --threads T [--tenth]
//                          [--store PATH]
//   perfbench_driver trace --workload W --offset K --threads T
//                          --spans PATH [--store PATH]
//
// `run` is the untraced measurement: it calls the program's own sweep
// engines (run_sweep, run_term_sweep, run_explore) exactly as sweep_main
// does, times them, then times the workload's enumerate call several
// times (setup) and, for explore, replays every persisted witness.
//
// `trace` drives the same workload through the engines' public pieces
// (enumerate, WorkStealingPool, run_scenario / run_term_scenario /
// run_explore_instance, the folds, the store) with a span around each
// call, then re-drives every simulator-family history through the
// scheduler, the register implementations and each checker, and replays
// every explore witness.  Spans stay in memory until the end, when they
// are written to the --spans file, one JSON object per line.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "checker/lin_checker.hpp"
#include "checker/stream_checker.hpp"
#include "checker/wsl_checker.hpp"
#include "explore/explore.hpp"
#include "obs/metrics.hpp"
#include "registers/alg2_register.hpp"
#include "registers/alg4_register.hpp"
#include "sim/adversary.hpp"
#include "sim/scheduler.hpp"
#include "sweep/fnv.hpp"
#include "sweep/pool.hpp"
#include "sweep/store.hpp"
#include "sweep/sweep.hpp"
#include "term/term_sweep.hpp"

namespace {

using namespace rlt;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// prefix + n, appended rather than concatenated: GCC 12 warns falsely
/// (-Wrestrict) on `"literal" + std::string` once inlined.
std::string label(const char* prefix, int n) {
  std::string s = prefix;
  s += std::to_string(n);
  return s;
}

// ---- workloads -----------------------------------------------------------

enum class Kind { kSafety, kTerm, kExplore };

/// One engine invocation of a workload (long_histories has two).
struct Part {
  std::string name;
  Kind kind = Kind::kSafety;
  sweep::SweepOptions safety;
  term::TermSweepOptions term;
  explore::ExploreOptions explore;
  /// kBlocked is an expected verdict (the part sweeps fault kinds).
  bool blocked_expected = false;
};

struct Workload {
  std::vector<Part> parts;
  bool writes_store = false;
  std::string seeds;  ///< "begin:end", for the report.
};

/// The five workloads.  Offset K selects seeds [K*span/20, K*span/20 + span):
/// consecutive offsets share 95% of their seeds, so each offset runs
/// different inputs whose cost stays comparable.  `tenth` keeps the first
/// tenth of that range (the RSS-slope probe).
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t offset, bool tenth,
                                      int threads) {
  std::uint64_t span = 0;
  Workload w;
  if (name == "canonical") {
    span = 10000;
    Part p{"all", Kind::kSafety, {}, {}, {}, false};
    w.parts.push_back(p);
    w.writes_store = true;
  } else if (name == "long_histories") {
    span = 20;
    for (const int writes : {8, 12}) {
      Part p{label("w", writes), Kind::kSafety, {}, {}, {}, false};
      p.safety.process_counts = {5};
      p.safety.writes_per_process = writes;
      w.parts.push_back(p);
    }
  } else if (name == "abd_faults") {
    span = 200;
    Part p{"all", Kind::kSafety, {}, {}, {}, true};
    p.safety.algorithms = {sweep::Algorithm::kAbd};
    p.safety.faults = {sweep::FaultKind::kNone,      sweep::FaultKind::kLossy,
                       sweep::FaultKind::kDuplicate, sweep::FaultKind::kPartition,
                       sweep::FaultKind::kMinorityCrash,
                       sweep::FaultKind::kCrashRecovery};
    p.safety.process_counts = {5};
    w.parts.push_back(p);
  } else if (name == "term") {
    span = 200;
    w.parts.push_back(Part{"all", Kind::kTerm, {}, {}, {}, false});
  } else if (name == "explore_hunt") {
    span = 200;
    Part p{"all", Kind::kExplore, {}, {}, {}, false};
    p.explore.objective = explore::Objective::kViolation;
    p.explore.algorithms = {sweep::Algorithm::kAbd};
    p.explore.abd_read_write_back = false;
    p.explore.process_counts = {3};
    p.explore.batch_size = 1;
    w.parts.push_back(p);
  } else {
    return std::nullopt;
  }
  const std::uint64_t begin = offset * (span / 20);
  const std::uint64_t end = begin + (tenth ? span / 10 : span);
  for (Part& p : w.parts) {
    p.safety.seed_begin = p.term.seed_begin = p.explore.seed_begin = begin;
    p.safety.seed_end = p.term.seed_end = p.explore.seed_end = end;
    p.safety.threads = p.term.threads = p.explore.threads = threads;
  }
  w.seeds = std::to_string(begin) + ':' + std::to_string(end);
  return w;
}

std::uint64_t enumerate_count(const Part& p) {
  switch (p.kind) {
    case Kind::kSafety: return sweep::enumerate_shard(p.safety).scenarios.size();
    case Kind::kTerm: return term::enumerate_term_shard(p.term).scenarios.size();
    case Kind::kExplore:
      return explore::enumerate_explore_shard(p.explore).instances.size();
  }
  return 0;
}

// ---- JSON output ---------------------------------------------------------

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// A flat JSON object built field by field.
class Json {
 public:
  Json& raw(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += k;
    body_ += "\":";
    body_ += v;
    return *this;
  }
  Json& str(const std::string& k, const std::string& v) {
    return raw(k, sweep::json_escape(v));  // quotes included
  }
  Json& u64(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  Json& dbl(const std::string& k, double v) { return raw(k, num(v)); }
  [[nodiscard]] std::string text() const { return '{' + body_ + '}'; }

 private:
  std::string body_;
};

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += items[i];
  }
  return out + "]";
}

// ---- per-part outcome (digest, stable counts, failure accounting) -------

struct PartOutcome {
  std::string name;
  std::uint64_t digest = 0;
  Json counts;
  std::uint64_t stable_fnv = 0;  ///< FNV-1a of the summary's stable_text.
  std::uint64_t attempted = 0;
  std::uint64_t validated = 0;   ///< Outcome established (not an error).
  std::uint64_t failed = 0;      ///< Error or contradicts the expectation.
  std::vector<std::string> failures;  ///< The summary's failure lines.

  [[nodiscard]] std::string json() const {
    std::vector<std::string> f;
    for (const std::string& s : failures) {
      f.push_back(sweep::json_escape(s));
    }
    return Json()
        .str("name", name)
        .str("digest", hex(digest))
        .raw("counts", counts.text())
        .str("stable_fnv", hex(stable_fnv))
        .u64("attempted", attempted)
        .u64("validated", validated)
        .u64("failed", failed)
        .raw("failures", json_list(f))
        .text();
  }
};

std::uint64_t fnv_text(const std::string& s) {
  std::uint64_t h = sweep::kFnvOffset;
  sweep::fnv_mix_str(h, s);
  return h;
}

/// FNV-1a of a file's bytes (the store), or 0 when there is no file.
std::uint64_t file_fnv(const std::string& path) {
  std::FILE* f = path.empty() ? nullptr : std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::uint64_t h = sweep::kFnvOffset;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) sweep::fnv_mix_bytes(h, buf, n);
  std::fclose(f);
  return h;
}

PartOutcome outcome_of(const Part& p, const sweep::SweepSummary& s) {
  PartOutcome o;
  o.name = p.name;
  o.digest = s.digest;
  o.counts.u64("scenarios", s.scenarios).u64("ok", s.ok)
      .u64("violations", s.violations).u64("blocked", s.blocked)
      .u64("errors", s.errors).u64("steps", s.total_steps)
      .u64("ops", s.total_ops);
  o.stable_fnv = fnv_text(s.stable_text());
  o.attempted = s.scenarios;
  o.validated = s.scenarios - s.errors;
  o.failed = s.violations + s.errors + (p.blocked_expected ? 0 : s.blocked);
  o.failures = s.failures;
  return o;
}

PartOutcome outcome_of(const Part& p, const term::TermSummary& s) {
  PartOutcome o;
  o.name = p.name;
  o.digest = s.digest;
  o.counts.u64("scenarios", s.scenarios).u64("terminated", s.terminated)
      .u64("capped", s.capped).u64("safety_violations", s.safety_violations)
      .u64("errors", s.errors).u64("steps", s.total_steps)
      .u64("coin_flips", s.total_coin_flips).u64("rounds_sum", s.rounds_sum);
  o.stable_fnv = fnv_text(s.stable_text());
  o.attempted = s.scenarios;
  o.validated = s.scenarios - s.errors;
  // The fold lists exactly the records with an error or broken safety.
  o.failed = s.failures.size() + s.failures_truncated;
  o.failures = s.failures;
  return o;
}

/// `missed` counts instances whose best run is not a violation (the
/// planted bug went unfound) or that errored.
PartOutcome outcome_of(const Part& p, const explore::ExploreSummary& s,
                       std::uint64_t missed) {
  PartOutcome o;
  o.name = p.name;
  o.digest = s.digest;
  o.counts.u64("instances", s.instances).u64("search_runs", s.search_runs)
      .u64("violations_found", s.violations_found)
      .u64("blocked_found", s.blocked_found)
      .u64("shrunk_traces", s.shrunk_traces).u64("errors", s.errors)
      .u64("steps", s.total_steps);
  o.stable_fnv = fnv_text(s.stable_text());
  o.attempted = s.instances;
  o.validated = s.instances - s.errors;
  o.failed = missed;
  o.failures = s.failures;
  return o;
}

// ---- `run`: the untraced end-to-end measurement --------------------------

int cmd_run(const Workload& w, const std::string& store_path) {
  std::vector<PartOutcome> outs;
  std::uint64_t replayed = 0;
  std::uint64_t reproduced = 0;
  double elapsed_s = 0;
  for (const Part& p : w.parts) {
    switch (p.kind) {
      case Kind::kSafety: {
        std::unique_ptr<sweep::JsonlFileSink> sink;
        const auto t0 = Clock::now();
        if (w.writes_store && !store_path.empty()) {
          sink = std::make_unique<sweep::JsonlFileSink>(store_path);
        }
        const sweep::SweepSummary s = sweep::run_sweep(p.safety, 0, sink.get());
        if (sink) sink->close();
        elapsed_s += seconds_since(t0);
        outs.push_back(outcome_of(p, s));
        break;
      }
      case Kind::kTerm: {
        const auto t0 = Clock::now();
        const term::TermSummary s = term::run_term_sweep(p.term);
        elapsed_s += seconds_since(t0);
        outs.push_back(outcome_of(p, s));
        break;
      }
      case Kind::kExplore: {
        // The store is the only place run_explore hands out its witnesses;
        // keep it in memory and replay each one after the timed region.
        sweep::StringSink sink;
        const auto t0 = Clock::now();
        const explore::ExploreSummary s = explore::run_explore(p.explore, 0, &sink);
        elapsed_s += seconds_since(t0);
        std::uint64_t missed = 0;
        std::istringstream lines(sink.text());
        std::string line;
        while (std::getline(lines, line)) {
          if (line.find("\"found\":\"violation\"") == std::string::npos) {
            ++missed;
          }
          std::string error;
          const auto pt = explore::parse_explore_record(line, &error);
          if (!pt) continue;
          ++replayed;
          const explore::ReplayReport rep =
              explore::replay_trace(pt->instance, pt->trace, pt->fallback_seed);
          if (rep.fingerprint == pt->fingerprint && rep.score == pt->best_score) {
            ++reproduced;
          }
        }
        outs.push_back(outcome_of(p, s, missed));
        break;
      }
    }
  }

  // Setup: the enumerate calls that precede the first scenario, repeated
  // (at least 5 times and 50 ms) so the median is steady.
  std::vector<double> setups;
  const auto s0 = Clock::now();
  while (setups.size() < 5 || (seconds_since(s0) < 0.05 && setups.size() < 1000)) {
    const auto t0 = Clock::now();
    for (const Part& p : w.parts) (void)enumerate_count(p);
    setups.push_back(seconds_since(t0));
  }
  std::sort(setups.begin(), setups.end());

  std::vector<std::string> parts;
  for (const PartOutcome& o : outs) parts.push_back(o.json());
  std::cout << Json()
                   .str("mode", "run")
                   .str("seeds", w.seeds)
                   .dbl("elapsed_s", elapsed_s)
                   .dbl("setup_s", setups[setups.size() / 2])
                   .u64("setup_reps", setups.size())
                   .u64("replayed", replayed)
                   .u64("reproduced", reproduced)
                   .str("store_fnv", hex(w.writes_store ? file_fnv(store_path) : 0))
                   .raw("parts", json_list(parts))
                   .text()
            << "\n";
  return 0;
}

// ---- spans ---------------------------------------------------------------

struct Span {
  const char* name = "";
  std::uint64_t id = 0;      ///< (thread slot << 32) | index in that slot.
  std::uint64_t parent = 0;  ///< kNoSpan for roots.
  std::int64_t gi = -1;      ///< Scenario (global enumeration index), or -1.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

constexpr std::uint64_t kNoSpan = ~0ULL;
constexpr std::uint64_t kCurrent = ~0ULL - 1;

/// In-memory span recorder: one buffer per thread, registered once, so
/// recording takes no lock.  Read only after every worker has joined.
class Tracer {
 public:
  Tracer() : t0_(Clock::now()) {}

  std::uint64_t begin(const char* name, std::uint64_t parent, std::int64_t gi) {
    Buffer& b = local();
    if (parent == kCurrent) parent = b.open.empty() ? kNoSpan : b.open.back();
    const std::uint64_t id = (b.slot << 32) | b.spans.size();
    b.spans.push_back(Span{name, id, parent, gi, now_ns(), 0});
    b.open.push_back(id);
    return id;
  }

  void end(std::uint64_t id) {
    Buffer& b = local();
    b.spans[id & 0xffffffffULL].end_ns = now_ns();
    b.open.pop_back();
  }

  [[nodiscard]] std::vector<Span> collect() {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> all;
    for (const auto& b : buffers_) {
      all.insert(all.end(), b->spans.begin(), b->spans.end());
    }
    return all;
  }

 private:
  struct Buffer {
    std::uint64_t slot = 0;
    std::vector<Span> spans;
    std::vector<std::uint64_t> open;  ///< Stack of unfinished span ids.
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_)
        .count();
  }

  Buffer& local() {
    thread_local Buffer* buf = nullptr;
    if (buf == nullptr) {
      const std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      buffers_.back()->slot = buffers_.size() - 1;
      buf = buffers_.back().get();
    }
    return *buf;
  }

  Clock::time_point t0_;
  std::mutex mu_;  ///< Guards buffers_ (registration and collect).
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

Tracer g_tracer;

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t parent = kCurrent,
                      std::int64_t gi = -1)
      : id_(g_tracer.begin(name, parent, gi)) {}
  ~ScopedSpan() { g_tracer.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  std::uint64_t id_;
};

// ---- `trace`: the layer-by-layer run -------------------------------------

std::uint64_t counter(const obs::CounterDelta& d, obs::Counter c) {
  return d.v[static_cast<std::size_t>(c)];
}

/// Counts gathered in the traced run (times come from the spans).
struct Tally {
  std::uint64_t steals = 0;
  std::uint64_t threads = 1;
  // safety results
  std::uint64_t check_ns = 0;
  std::uint64_t abd_sim_ns = 0, abd_ops = 0, abd_msgs = 0, abd_bytes = 0;
  std::uint64_t abd_rts = 0, abd_delivered = 0;
  std::uint64_t store_bytes = 0;
  // re-drive
  std::uint64_t redriven = 0, hash_mismatches = 0, verdict_mismatches = 0;
  std::uint64_t sim_actions = 0, model_solver_calls = 0;
  std::uint64_t lin_calls = 0, wsl_calls = 0, unvalidated = 0;
  std::uint64_t solver_calls = 0, dfs_nodes = 0, memo_hits = 0;
  std::uint64_t wsl_hits = 0, wsl_misses = 0;
  // term
  std::uint64_t term_scenarios = 0, term_steps = 0, term_coin_flips = 0;
  std::uint64_t term_capped = 0;
  // explore
  std::uint64_t explore_runs = 0, shrink_probes = 0;
  std::uint64_t shrunk_len = 0, unshrunk_len = 0;
  std::uint64_t replayed = 0, reproduced = 0;
};

/// Runs `n` items on the pool in batches, the way the engines do, with
/// one span per pool task and one per item (named by `name(i)`).
template <class Name, class Fn>
void traced_pool(std::size_t n, int threads, int batch_size,
                 const std::vector<std::uint64_t>& gis, Tally& t, Name&& name,
                 Fn&& fn) {
  const ScopedSpan pool_span("sweep.pool");
  const std::uint64_t parent = pool_span.id();
  sweep::WorkStealingPool pool(threads);
  const std::size_t batch = static_cast<std::size_t>(std::max(1, batch_size));
  for (std::size_t begin = 0; begin < n; begin += batch) {
    const std::size_t end = std::min(begin + batch, n);
    pool.submit([&name, &fn, &gis, parent, begin, end] {
      const ScopedSpan task("sweep.task", parent);
      for (std::size_t i = begin; i < end; ++i) {
        const ScopedSpan item(name(i), kCurrent, static_cast<std::int64_t>(gis[i]));
        fn(i);
      }
    });
  }
  pool.wait_idle();
  t.steals += pool.steals();
  t.threads = static_cast<std::uint64_t>(std::max(1, threads));
}

// The sweep's process bodies and adversary choice (private to
// sweep/scenario.cpp), restated: the re-driven history must hash to the
// sweep's own, which the trace gate checks for every scenario.
sim::Task modeled_proc(sim::Proc& p, int role, int writes) {
  for (int i = 0; i < writes; ++i) co_await p.write(0, 100 * (role + 1) + i);
  (void)co_await p.read(0);
}

template <class Reg>
sim::Task implemented_proc(sim::Proc& p, Reg& r, int slot, int writes) {
  for (int i = 0; i < writes; ++i) co_await r.write(p, slot, 100 * (slot + 1) + i);
  (void)co_await r.read(p);
}

std::unique_ptr<sim::Adversary> adversary_for(const sweep::Scenario& s) {
  if (s.adversary == sweep::AdversaryKind::kRandom) {
    return std::make_unique<sim::RandomAdversary>(s.seed * sweep::kFnvPrime + 1);
  }
  return std::make_unique<sim::RoundRobinAdversary>();
}

/// Runs the scheduler under the scenario's adversary inside a sim span.
/// On the modeled linearizable and WSL registers it counts the solver
/// probes the register model makes meanwhile.
void drive(sim::Scheduler& sched, const sweep::Scenario& s, const char* span,
           Tally& t) {
  const auto adv = adversary_for(s);
  const obs::CounterDelta before = obs::thread_counters();
  {
    const ScopedSpan run(span);
    (void)sched.run(*adv, s.max_actions);
  }
  obs::CounterDelta after = obs::thread_counters();
  after -= before;
  if (s.algorithm == sweep::Algorithm::kModeled &&
      s.semantics != sim::Semantics::kAtomic) {
    t.model_solver_calls += counter(after, obs::Counter::kCheckerSolverCalls);
  }
  t.sim_actions += sched.actions_applied();
}

/// Rebuilds a fault-free simulator-family scenario's history the way the
/// sweep records it: Scheduler + register model or Algorithm 2/4.
history::History redrive_history(const sweep::Scenario& s, Tally& t) {
  sim::Scheduler sched(s.seed);
  const int writes = s.writes_per_process;
  switch (s.algorithm) {
    case sweep::Algorithm::kModeled: {
      sched.add_register(0, s.semantics, 0);
      for (int p = 0; p < s.processes; ++p) {
        sched.add_process(label("p", p), [p, writes](sim::Proc& pr) {
          return modeled_proc(pr, p, writes);
        });
      }
      drive(sched, s, "sim.run.modeled", t);
      return sched.global_history();
    }
    case sweep::Algorithm::kAlg2: {
      registers::SimAlg2Register reg(sched, s.processes, 100, 0);
      for (int p = 0; p < s.processes; ++p) {
        sched.add_process(label("p", p), [&reg, p, writes](sim::Proc& pr) {
          return implemented_proc(pr, reg, p, writes);
        });
      }
      drive(sched, s, "sim.run.alg2", t);
      return reg.hl_history();
    }
    case sweep::Algorithm::kAlg4: {
      registers::SimAlg4Register reg(sched, s.processes, 100, 0);
      for (int p = 0; p < s.processes; ++p) {
        sched.add_process(label("p", p), [&reg, p, writes](sim::Proc& pr) {
          return implemented_proc(pr, reg, p, writes);
        });
      }
      drive(sched, s, "sim.run.alg4", t);
      return reg.hl_history();
    }
    case sweep::Algorithm::kAbd: break;
  }
  return {};
}

/// The solver's per-register limit, as the sweep's classifier applies it.
bool checkable(const history::History& h) {
  for (const history::RegisterId reg : h.registers()) {
    std::size_t n = 0;
    for (const history::OpRecord& op : h.ops()) n += op.reg == reg ? 1 : 0;
    if (n > 64) return false;
  }
  return true;
}

/// Re-drives one scenario, proves the history is the sweep's own (hash),
/// then times each checker on it.
void redrive(const sweep::Scenario& s, std::uint64_t gi,
             const sweep::ScenarioResult& r, Tally& t) {
  const ScopedSpan root("bench.redrive", kCurrent, static_cast<std::int64_t>(gi));
  const history::History h = redrive_history(s, t);
  ++t.redriven;
  std::uint64_t hash = 0;
  {
    const ScopedSpan span("sweep.hash_history");
    hash = sweep::hash_history(h);
  }
  if (hash != r.history_hash) ++t.hash_mismatches;
  if (!checkable(h)) {
    ++t.unvalidated;
  } else {
    const bool expect_wsl = s.algorithm == sweep::Algorithm::kAlg2 ||
                            (s.algorithm == sweep::Algorithm::kModeled &&
                             s.semantics == sim::Semantics::kWriteStrong);
    const obs::CounterDelta before = obs::thread_counters();
    bool ok = false;
    {
      const ScopedSpan span("checker.lin");
      ok = checker::check_linearizable(h).ok;
    }
    ++t.lin_calls;
    if (ok && expect_wsl) {
      const ScopedSpan span("checker.wsl");
      const checker::WslCheckResult wsl = checker::check_write_strong_linearizable(h);
      ok = wsl.ok;
      t.wsl_hits += wsl.cache_hits;
      t.wsl_misses += wsl.cache_misses;
      ++t.wsl_calls;
    }
    obs::CounterDelta after = obs::thread_counters();
    after -= before;
    t.solver_calls += counter(after, obs::Counter::kCheckerSolverCalls);
    t.dfs_nodes += counter(after, obs::Counter::kCheckerDfsNodes);
    t.memo_hits += counter(after, obs::Counter::kCheckerMemoHits);
    if ((r.verdict == sweep::Verdict::kOk && !ok) ||
        (r.verdict == sweep::Verdict::kViolation && ok)) {
      ++t.verdict_mismatches;
    }
  }
  const ScopedSpan span("checker.stream");
  (void)checker::check_stream(h);
}

void write_store(const sweep::Enumeration& en,
                 const std::vector<sweep::ScenarioResult>& results,
                 const std::string& path, Tally& t) {
  const ScopedSpan span("sweep.store");
  sweep::JsonlFileSink sink(path);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const sweep::ScenarioResult& r = results[i];
    sweep::Record rec;
    rec.u64("gi", en.global_indices[i])
        .str("key", en.scenarios[i].key())
        .str("mode", "safety")
        .str("verdict", sweep::to_string(r.verdict))
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
    sink.append(rec);
  }
  sink.close();
  t.store_bytes += std::filesystem::file_size(path);
}

PartOutcome trace_safety(const Part& p, bool store, const std::string& store_path,
                         Tally& t) {
  sweep::Enumeration en;
  {
    const ScopedSpan span("sweep.enumerate");
    en = sweep::enumerate_shard(p.safety);
  }
  std::vector<sweep::ScenarioResult> results(en.scenarios.size());
  traced_pool(
      en.scenarios.size(), p.safety.threads, p.safety.batch_size,
      en.global_indices, t, [](std::size_t) { return "sweep.run_scenario"; },
      [&](std::size_t i) { results[i] = sweep::run_scenario(en.scenarios[i]); });
  sweep::SweepSummary sum;
  {
    const ScopedSpan span("sweep.fold");
    sweep::SweepFold fold;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const sweep::ScenarioResult& r = results[i];
      fold.add(en.scenarios[i].key(), r.verdict, r.steps, r.ops, r.history_hash,
               r.detail);
    }
    sum = fold.finish();
  }
  if (store && !store_path.empty()) write_store(en, results, store_path, t);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const sweep::ScenarioResult& r = results[i];
    t.check_ns += r.check_ns;
    if (en.scenarios[i].algorithm == sweep::Algorithm::kAbd) {
      t.abd_sim_ns += r.wall_ns - std::min(r.wall_ns, r.check_ns);
      t.abd_ops += r.ops;
      t.abd_msgs += r.net_msgs;
      t.abd_bytes += r.net_bytes;
      t.abd_rts += r.net_round_trips;
      t.abd_delivered += r.net_delivered;
    }
  }
  {
    const ScopedSpan phase("bench.redrive_all");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const sweep::Scenario& s = en.scenarios[i];
      if (s.algorithm == sweep::Algorithm::kAbd || s.faults.active()) continue;
      redrive(s, en.global_indices[i], results[i], t);
    }
  }
  return outcome_of(p, sum);
}

const char* term_span(term::Family f) {
  switch (f) {
    case term::Family::kConsensus: return "term.run.consensus";
    case term::Family::kComposed: return "term.run.composed";
    case term::Family::kSharedCoin: return "term.run.coin";
    case term::Family::kGame: return "term.run.game";
  }
  return "term.run.other";
}

PartOutcome trace_term(const Part& p, Tally& t) {
  term::TermEnumeration en;
  {
    const ScopedSpan span("sweep.enumerate");
    en = term::enumerate_term_shard(p.term);
  }
  std::vector<term::TermRecord> recs(en.scenarios.size());
  traced_pool(
      recs.size(), p.term.threads, p.term.batch_size, en.global_indices, t,
      [&](std::size_t i) { return term_span(en.scenarios[i].family); },
      [&](std::size_t i) { recs[i] = term::run_term_scenario(en.scenarios[i]); });
  term::TermSummary sum;
  {
    const ScopedSpan span("sweep.fold");
    term::TermFold fold;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      fold.add(en.scenarios[i].key(), en.scenarios[i].family, recs[i]);
    }
    sum = fold.finish(nullptr);
  }
  for (const term::TermRecord& r : recs) {
    ++t.term_scenarios;
    t.term_steps += r.steps;
    t.term_coin_flips += r.coin_flips;
    t.term_capped += r.capped ? 1 : 0;
  }
  return outcome_of(p, sum);
}

PartOutcome trace_explore(const Part& p, Tally& t) {
  explore::ExploreEnumeration en;
  {
    const ScopedSpan span("sweep.enumerate");
    en = explore::enumerate_explore_shard(p.explore);
  }
  std::vector<explore::ExploreOutcome> outs(en.instances.size());
  traced_pool(
      outs.size(), p.explore.threads, p.explore.batch_size, en.global_indices, t,
      [](std::size_t) { return "explore.instance"; },
      [&](std::size_t i) { outs[i] = explore::run_explore_instance(en.instances[i]); });
  explore::ExploreSummary sum;
  {
    const ScopedSpan span("sweep.fold");
    explore::ExploreFold fold;
    for (std::size_t i = 0; i < outs.size(); ++i) {
      const explore::ExploreOutcome& r = outs[i];
      explore::ExploreFold::Item it;
      it.best_score = r.best_score;
      it.found_rank = r.found_rank;
      it.fingerprint = r.fingerprint;
      it.trace_fnv = r.trace_fnv;
      it.runs = r.runs;
      it.total_steps = r.total_steps;
      it.shrunk = r.shrunk;
      it.locally_minimal = r.locally_minimal;
      it.shrink_probes = r.shrink_probes;
      it.error = r.error;
      it.detail = r.detail;
      fold.add(en.instances[i].key(), it);
    }
    sum = fold.finish();
  }
  std::uint64_t missed = 0;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const explore::ExploreOutcome& r = outs[i];
    if (r.error || r.found_rank < explore::kFoundRankViolation) ++missed;
    t.explore_runs += r.runs;
    t.shrink_probes += r.shrink_probes;
    t.shrunk_len += r.best_trace.size();
    t.unshrunk_len += r.unshrunk_len;
    const ScopedSpan span("explore.replay", kCurrent,
                          static_cast<std::int64_t>(en.global_indices[i]));
    const explore::ReplayReport rep =
        explore::replay_trace(en.instances[i], r.best_trace, r.fallback_seed);
    ++t.replayed;
    if (rep.fingerprint == r.fingerprint && rep.score == r.best_score) ++t.reproduced;
  }
  return outcome_of(p, sum, missed);
}

/// Median and tail of a sample: the tail is the highest percentile with
/// at least ten samples beyond it, i.e. the 11th-largest value.
struct Dist {
  double p50 = 0, tail = 0, max = 0;
  std::uint64_t n = 0;
};

Dist dist(std::vector<double> v) {
  Dist d;
  d.n = v.size();
  if (v.empty()) return d;
  std::sort(v.begin(), v.end());
  d.p50 = v[v.size() / 2];
  d.tail = v[v.size() > 10 ? v.size() - 11 : 0];
  d.max = v.back();
  return d;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children on other threads may overlap).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (it != index.end()) kids[it->second].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : k) {
      lo = std::max(lo, spans[i].start_ns);
      hi = std::min(hi, spans[i].end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

int cmd_trace(const Workload& w, const std::string& spans_path,
              const std::string& store_path) {
  obs::set_enabled(true);
  Tally t;
  std::vector<PartOutcome> outs;
  double traced_s = 0;  // the sweep phases alone, comparable to `run`
  {
    const ScopedSpan root("bench.workload");
    for (const Part& p : w.parts) {
      const auto t0 = Clock::now();
      switch (p.kind) {
        case Kind::kSafety:
          outs.push_back(trace_safety(p, w.writes_store, store_path, t));
          break;
        case Kind::kTerm: outs.push_back(trace_term(p, t)); break;
        case Kind::kExplore: outs.push_back(trace_explore(p, t)); break;
      }
      traced_s += seconds_since(t0);
    }
  }
  const std::vector<Span> spans = g_tracer.collect();
  const std::vector<std::int64_t> self = self_times(spans);

  // Sum durations by span name, self time by layer (the name's prefix).
  std::map<std::string, double> dur;
  std::map<std::string, double> layer_self;
  std::vector<double> scen_us, term_us, inst_ms;
  double redrive_s = 0, replay_s = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string name = s.name;
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    dur[name] += d;
    layer_self[name.substr(0, name.find('.'))] += static_cast<double>(self[i]) * 1e-9;
    if (name == "sweep.run_scenario") scen_us.push_back(d * 1e6);
    if (name.rfind("term.run.", 0) == 0) term_us.push_back(d * 1e6);
    if (name == "explore.instance") inst_ms.push_back(d * 1e3);
    if (name == "bench.redrive_all") redrive_s += d;
    if (name == "explore.replay") replay_s += d;
  }
  traced_s -= redrive_s + replay_s;
  const Dist scen = dist(scen_us), term_d = dist(term_us), inst = dist(inst_ms);
  const double busy = dur["sweep.run_scenario"] + dur["term.run.consensus"] +
                      dur["term.run.composed"] + dur["term.run.coin"] +
                      dur["term.run.game"] + dur["explore.instance"];
  const double sim_s = dur["sim.run.modeled"] + dur["sim.run.alg2"] + dur["sim.run.alg4"];
  const double lookups = static_cast<double>(t.wsl_hits + t.wsl_misses);

  Json m;
  m.dbl("sweep.enumerate_s", dur["sweep.enumerate"])
      .dbl("sweep.fold_s", dur["sweep.fold"])
      .dbl("store.write_s", dur["sweep.store"])
      .u64("store.bytes", t.store_bytes)
      .dbl("sweep.scenario_us.p50", scen.p50)
      .dbl("sweep.scenario_us.tail", scen.tail)
      .u64("sweep.scenario_us.n", scen.n)
      .dbl("sweep.scenario_max_ms", scen.max / 1e3)
      .dbl("sweep.check_s", static_cast<double>(t.check_ns) * 1e-9)
      .dbl("pool.idle_frac",
           1.0 - ratio(busy, static_cast<double>(t.threads) * dur["sweep.pool"]))
      .u64("pool.steals", t.steals)
      .dbl("sim.run_s.modeled", dur["sim.run.modeled"])
      .dbl("sim.run_s.alg2", dur["sim.run.alg2"])
      .dbl("sim.run_s.alg4", dur["sim.run.alg4"])
      .u64("sim.actions", t.sim_actions)
      .dbl("sim.actions_per_s", ratio(static_cast<double>(t.sim_actions), sim_s))
      .u64("sim.model_solver_calls", t.model_solver_calls)
      .u64("sim.redriven", t.redriven)
      .dbl("checker.lin_s", dur["checker.lin"])
      .u64("checker.lin_calls", t.lin_calls)
      .dbl("checker.wsl_s", dur["checker.wsl"])
      .u64("checker.wsl_calls", t.wsl_calls)
      .dbl("checker.stream_s", dur["checker.stream"])
      .u64("checker.solver_calls", t.solver_calls)
      .u64("checker.dfs_nodes", t.dfs_nodes)
      .u64("checker.memo_hits", t.memo_hits)
      .dbl("wsl.cache_hit_ratio", ratio(static_cast<double>(t.wsl_hits), lookups))
      .u64("wsl.cache_lookups", t.wsl_hits + t.wsl_misses)
      .u64("checker.unvalidated", t.unvalidated)
      .dbl("mp.simulate_s", static_cast<double>(t.abd_sim_ns) * 1e-9)
      .dbl("mp.msgs_per_op", ratio(static_cast<double>(t.abd_msgs),
                                   static_cast<double>(t.abd_ops)))
      .dbl("mp.bytes_per_op", ratio(static_cast<double>(t.abd_bytes),
                                    static_cast<double>(t.abd_ops)))
      .dbl("abd.round_trips_per_op", ratio(static_cast<double>(t.abd_rts),
                                           static_cast<double>(t.abd_ops)))
      .dbl("mp.delivered_ratio", ratio(static_cast<double>(t.abd_delivered),
                                       static_cast<double>(t.abd_msgs)))
      .u64("mp.msgs_sent", t.abd_msgs)
      .dbl("term.run_s.consensus", dur["term.run.consensus"])
      .dbl("term.run_s.composed", dur["term.run.composed"])
      .dbl("term.run_s.coin", dur["term.run.coin"])
      .dbl("term.run_s.game", dur["term.run.game"])
      .dbl("term.scenario_us.p50", term_d.p50)
      .dbl("term.scenario_us.tail", term_d.tail)
      .u64("term.scenario_us.n", term_d.n)
      .u64("term.steps", t.term_steps)
      .u64("term.coin_flips", t.term_coin_flips)
      .dbl("term.capped_frac", ratio(static_cast<double>(t.term_capped),
                                     static_cast<double>(t.term_scenarios)))
      .dbl("explore.instance_ms.p50", inst.p50)
      .dbl("explore.instance_ms.tail", inst.tail)
      .u64("explore.instance_ms.n", inst.n)
      .dbl("explore.replay_s", replay_s)
      .u64("explore.runs", t.explore_runs)
      .u64("explore.shrink_probes", t.shrink_probes)
      .dbl("explore.shrink_ratio", ratio(static_cast<double>(t.shrunk_len),
                                         static_cast<double>(t.unshrunk_len)));
  for (const char* layer : {"sweep", "sim", "checker", "term", "explore", "bench"}) {
    m.dbl(std::string("self_s.") + layer, layer_self[layer]);
  }

  {
    sweep::JsonlFileSink out(spans_path);
    for (const Span& s : spans) {
      sweep::Record rec;
      rec.u64("id", s.id)
          .str("name", s.name)
          .u64("start_ns", static_cast<std::uint64_t>(s.start_ns))
          .u64("end_ns", static_cast<std::uint64_t>(s.end_ns));
      if (s.parent != kNoSpan) rec.u64("parent", s.parent);
      if (s.gi >= 0) rec.u64("gi", static_cast<std::uint64_t>(s.gi));
      out.append(rec);
    }
    out.close();
  }

  std::vector<std::string> parts;
  for (const PartOutcome& o : outs) parts.push_back(o.json());
  std::cout << Json()
                   .str("mode", "trace")
                   .str("seeds", w.seeds)
                   .dbl("traced_s", traced_s)
                   .u64("spans", spans.size())
                   .u64("hash_mismatches", t.hash_mismatches)
                   .u64("verdict_mismatches", t.verdict_mismatches)
                   .u64("replayed", t.replayed)
                   .u64("reproduced", t.reproduced)
                   .str("store_fnv", hex(w.writes_store ? file_fnv(store_path) : 0))
                   .raw("metrics", m.text())
                   .raw("parts", json_list(parts))
                   .text()
            << "\n";
  return 0;
}

[[noreturn]] void usage() {
  std::cerr << "usage: perfbench_driver run|trace --workload W --offset K "
               "--threads T [--tenth] [--store PATH] [--spans PATH]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string mode = argv[1];
  std::string workload, store, spans;
  std::uint64_t offset = 0;
  int threads = 1;
  bool tenth = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "--workload") workload = next();
    else if (a == "--offset") offset = std::stoull(next());
    else if (a == "--threads") threads = std::stoi(next());
    else if (a == "--store") store = next();
    else if (a == "--spans") spans = next();
    else if (a == "--tenth") tenth = true;
    else usage();
  }
  if (threads < 1 || offset > 1'000'000) usage();
  const std::optional<Workload> w = make_workload(workload, offset, tenth, threads);
  if (!w) usage();
  try {
    if (mode == "run") return cmd_run(*w, store);
    if (mode == "trace" && !spans.empty()) return cmd_trace(*w, spans, store);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
  usage();
}
