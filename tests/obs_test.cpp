// The observability fabric's own contract tests:
//
//  * the registry folds thread-local shards commutatively (sum / max),
//    so stable metrics are thread- and batch-invariant;
//  * everything is inert while the gate is off;
//  * trace spans are byte-identical across --threads/--batch;
//  * attaching the fabric never changes a digest, a store byte, or the
//    pinned PR 1 baseline digest (observability, not digest material);
//  * the progress fd speaks the documented one-JSON-line protocol;
//  * ABD per-op accounting (msgs / bytes / round trips) is exact.
#include <unistd.h>

#include <array>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "sweep/store.hpp"
#include "sweep/sweep.hpp"

namespace rlt::obs {
namespace {

// Every test leaves the process-global registry the way it found it:
// disabled and zeroed.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reset();
    set_enabled(false);
  }
  void TearDown() override {
    set_enabled(false);
    reset();
  }
};

TEST_F(ObsTest, CompiledInByDefault) { EXPECT_TRUE(kCompiledIn); }

TEST_F(ObsTest, DisabledGateMakesEverySiteInert) {
  ASSERT_FALSE(enabled());
  count(Counter::kCheckerSolverCalls, 7);
  gauge_max(Gauge::kStreamPeakLiveOps, 42);
  hist(Hist::kScenarioOps, 9);
  const Snapshot s = snapshot_all();
  for (std::uint64_t c : s.data.counters) EXPECT_EQ(c, 0u);
  for (std::uint64_t g : s.data.gauges) EXPECT_EQ(g, 0u);
  for (const auto& h : s.data.hists) {
    for (std::uint64_t b : h) EXPECT_EQ(b, 0u);
  }
}

TEST_F(ObsTest, SnapshotFoldsShardsAcrossThreads) {
  set_enabled(true);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 1000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        count(Counter::kCheckerDfsNodes);
      }
      // Gauges fold with max; only the largest thread value survives.
      gauge_max(Gauge::kStreamPeakLiveOps,
                static_cast<std::uint64_t>(t + 1));
      hist(Hist::kScenarioOps, 8);  // bucket bit_width(8) = 4
    });
  }
  for (std::thread& w : workers) w.join();
  const Snapshot s = snapshot_all();
  EXPECT_EQ(
      s.data.counters[static_cast<std::size_t>(Counter::kCheckerDfsNodes)],
      kThreads * kPerThread);
  EXPECT_EQ(
      s.data.gauges[static_cast<std::size_t>(Gauge::kStreamPeakLiveOps)],
      static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(s.data.hists[static_cast<std::size_t>(Hist::kScenarioOps)][4],
            static_cast<std::uint64_t>(kThreads));
}

TEST_F(ObsTest, CounterDeltaSubtractsPerScenarioWork) {
  set_enabled(true);
  count(Counter::kWslSolverCalls, 5);
  const CounterDelta before = thread_counters();
  count(Counter::kWslSolverCalls, 3);
  CounterDelta after = thread_counters();
  after -= before;
  EXPECT_EQ(after.v[static_cast<std::size_t>(Counter::kWslSolverCalls)], 3u);
  EXPECT_EQ(after.v[static_cast<std::size_t>(Counter::kCheckerDfsNodes)], 0u);
}

TEST_F(ObsTest, AppendStableDeltasSkipsZerosAndRuntimeCounters) {
  CounterDelta d;
  d.v[static_cast<std::size_t>(Counter::kCheckerSolverCalls)] = 2;
  d.v[static_cast<std::size_t>(Counter::kPoolTasks)] = 99;  // runtime
  sweep::Record r;
  append_stable_deltas(d, r);
  const std::string json = r.json();
  EXPECT_NE(json.find("\"checker.solver_calls\":2"), std::string::npos);
  EXPECT_EQ(json.find("pool.tasks"), std::string::npos);
  EXPECT_EQ(json.find("checker.dfs_nodes"), std::string::npos);
}

// -------------------------------------------------- sweep integration ---

sweep::SweepOptions small_sweep(int threads, int batch) {
  sweep::SweepOptions o;
  o.process_counts = {3};
  o.seed_begin = 0;
  o.seed_end = 6;
  o.threads = threads;
  o.batch_size = batch;
  return o;
}

/// The stable slice of a snapshot, as comparable vectors.
struct StableView {
  std::vector<std::uint64_t> counters;
  std::vector<std::uint64_t> gauges;
  std::vector<std::array<std::uint64_t, kHistBuckets>> hists;

  bool operator==(const StableView&) const = default;
};

StableView stable_view(const Snapshot& s) {
  StableView v;
  for (int i = 0; i < kNumCounters; ++i) {
    if (counter_stable(static_cast<Counter>(i))) {
      v.counters.push_back(s.data.counters[static_cast<std::size_t>(i)]);
    }
  }
  for (int i = 0; i < kNumGauges; ++i) {
    if (gauge_stable(static_cast<Gauge>(i))) {
      v.gauges.push_back(s.data.gauges[static_cast<std::size_t>(i)]);
    }
  }
  for (int i = 0; i < kNumHists; ++i) {
    if (hist_stable(static_cast<Hist>(i))) {
      v.hists.push_back(s.data.hists[static_cast<std::size_t>(i)]);
    }
  }
  return v;
}

TEST_F(ObsTest, StableMetricsAreThreadAndBatchInvariant) {
  set_enabled(true);
  (void)sweep::run_sweep(small_sweep(1, 16));
  const StableView serial = stable_view(snapshot_all());
  reset();
  (void)sweep::run_sweep(small_sweep(4, 3));
  const StableView pooled = stable_view(snapshot_all());
  EXPECT_FALSE(serial.counters.empty());
  EXPECT_GT(serial.counters[0], 0u);  // checker.solver_calls did work
  EXPECT_TRUE(serial == pooled);
}

TEST_F(ObsTest, TraceSpansAreByteIdenticalAcrossThreadsAndBatch) {
  sweep::StringSink serial_trace;
  Hooks h1;
  h1.trace = &serial_trace;
  (void)sweep::run_sweep(small_sweep(1, 16), &h1);
  set_enabled(false);
  reset();

  sweep::StringSink pooled_trace;
  Hooks h2;
  h2.trace = &pooled_trace;
  (void)sweep::run_sweep(small_sweep(4, 3), &h2);

  EXPECT_FALSE(serial_trace.text().empty());
  EXPECT_EQ(serial_trace.text(), pooled_trace.text());
  // One span per scenario, in enumeration order.
  EXPECT_NE(serial_trace.text().find("\"gi\":0,"), std::string::npos);
  EXPECT_NE(serial_trace.text().find("\"obs\":\"span\""), std::string::npos);
}

TEST_F(ObsTest, HooksNeverChangeDigestOrStoreBytes) {
  const sweep::SweepSummary plain = sweep::run_sweep(small_sweep(2, 4));
  sweep::StringSink plain_store;
  (void)sweep::run_sweep(small_sweep(2, 4), nullptr, &plain_store);

  sweep::StringSink trace;
  sweep::StringSink traced_store;
  Hooks h;
  h.trace = &trace;
  const sweep::SweepSummary traced =
      sweep::run_sweep(small_sweep(2, 4), &h, &traced_store);

  EXPECT_EQ(plain.digest, traced.digest);
  EXPECT_EQ(plain.stable_text(), traced.stable_text());
  EXPECT_EQ(plain_store.text(), traced_store.text());
}

TEST_F(ObsTest, PinnedBaselineDigestSurvivesInstrumentation) {
  // The PR 1 pinned digest (sweep_test.cpp BaselineDigestIsPinned) with
  // the full fabric attached: tracing + metrics must not perturb one
  // bit of scenario behaviour.
  sweep::SweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 50;
  o.process_counts = {3};
  o.threads = 4;
  sweep::StringSink trace;
  Hooks h;
  h.trace = &trace;
  const sweep::SweepSummary sum = sweep::run_sweep(o, &h);
  EXPECT_EQ(sum.scenarios, 600u);
  EXPECT_EQ(sum.ok, 600u);
  EXPECT_EQ(sum.digest, 0x74043e05615bfe8fULL);
  EXPECT_TRUE(enabled());  // the trace hook switched the registry on
}

TEST_F(ObsTest, StoreRecordsCarryAbdMessageAccounting) {
  sweep::SweepOptions o;
  o.algorithms = {sweep::Algorithm::kAbd};
  o.process_counts = {3};
  o.seed_begin = 0;
  o.seed_end = 3;
  sweep::StringSink a;
  (void)sweep::run_sweep(o, nullptr, &a);
  // Fault-free ABD: every op broadcasts, so counts are positive; a
  // write is 1 round trip, a read 2 (query + write-back).
  EXPECT_NE(a.text().find("\"msgs\":"), std::string::npos);
  EXPECT_NE(a.text().find("\"bytes\":"), std::string::npos);
  EXPECT_NE(a.text().find("\"rts\":"), std::string::npos);
  EXPECT_EQ(a.text().find("\"msgs\":0,"), std::string::npos);
  EXPECT_EQ(a.text().find("\"rts\":0,"), std::string::npos);
  // And deterministically so.
  sweep::StringSink b;
  (void)sweep::run_sweep(o, nullptr, &b);
  EXPECT_EQ(a.text(), b.text());
}

TEST_F(ObsTest, DumpEmitsEveryScalarInEnumOrder) {
  set_enabled(true);
  count(Counter::kNetMsgsSent, 12);
  sweep::StringSink sink;
  dump(snapshot_all(), sink, "safety", "test-config");
  const std::string& t = sink.text();
  EXPECT_NE(t.find("\"obs\":\"meta\""), std::string::npos);
  EXPECT_NE(t.find("\"config\":\"test-config\""), std::string::npos);
  EXPECT_NE(t.find("\"name\":\"net.msgs_sent\",\"value\":12"),
            std::string::npos);
  // Exhaustive: zero-valued counters still appear…
  EXPECT_NE(t.find("\"name\":\"term.coin_flips\",\"value\":0"),
            std::string::npos);
  // …and the runtime section is flagged.
  EXPECT_NE(t.find("\"name\":\"pool.tasks\",\"value\":0,\"stable\":false"),
            std::string::npos);
}

// ------------------------------------------------------------ progress ---

TEST_F(ObsTest, ProgressFdSpeaksTheDocumentedProtocol) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  {
    ProgressOptions po;
    po.total = 5;
    po.mode = "safety";
    po.fd = fds[1];
    ProgressMeter meter(po);
    for (int i = 0; i < 4; ++i) meter.tick(0);
    meter.tick(2);  // one blocked
    meter.finish();
  }
  close(fds[1]);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof buf)) > 0) out.append(buf, n);
  close(fds[0]);
  // The final line is the "done" state with full class counts.
  const std::size_t last = out.rfind("{\"obs\":\"progress\"");
  ASSERT_NE(last, std::string::npos);
  const std::string line = out.substr(last);
  EXPECT_NE(line.find("\"state\":\"done\""), std::string::npos);
  EXPECT_NE(line.find("\"done\":5"), std::string::npos);
  EXPECT_NE(line.find("\"total\":5"), std::string::npos);
  EXPECT_NE(line.find("\"ok\":4"), std::string::npos);
  EXPECT_NE(line.find("\"blocked\":1"), std::string::npos);
}

TEST_F(ObsTest, ProgressMeterFinishIsIdempotent) {
  ProgressOptions po;
  po.total = 1;
  po.fd = -1;
  po.heartbeat_ms = 0;
  ProgressMeter meter(po);
  meter.tick(0);
  meter.finish();
  meter.finish();  // second finish must be a no-op (dtor adds a third)
}

}  // namespace
}  // namespace rlt::obs
