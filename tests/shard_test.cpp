// The distributed-sweep shard fabric (src/sweep/shard.*): the round-robin
// partition of the scenario cross-product, the shard-store bracket, and
// the merge identity
//
//     run(shard 0/N) + … + run(N-1/N) + merge  ≡  run(1/1)
//
// byte-for-byte — store, digest, and stable summary — for all three
// sweep kinds (safety, term, explore).  Also the loud-failure contract:
// a merge over an incomplete, duplicated, mismatched, or corrupted shard
// set must throw with the offending shard named, never produce a
// plausible-looking partial aggregate.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "explore/explore.hpp"
#include "sweep/shard.hpp"
#include "sweep/sweep.hpp"
#include "term/term_sweep.hpp"
#include "util/append.hpp"

namespace rlt::sweep {
namespace {

// --------------------------------------------------------- field reader ---

TEST(RecordFields, ReadBackWhatRecordWrites) {
  Record r;
  r.str("s", "a\"b\\c\n\x01/").u64("max", UINT64_MAX).u64("zero", 0)
      .hex("h", 0xdeadbeefULL).boolean("t", true).boolean("f", false);
  const std::string line = r.json();
  EXPECT_EQ(field_str(line, "s"), std::optional<std::string>("a\"b\\c\n\x01/"));
  EXPECT_EQ(field_u64(line, "max"), std::optional<std::uint64_t>(UINT64_MAX));
  EXPECT_EQ(field_u64(line, "zero"), std::optional<std::uint64_t>(0));
  EXPECT_EQ(field_hex(line, "h"), std::optional<std::uint64_t>(0xdeadbeef));
  EXPECT_EQ(field_bool(line, "t"), std::optional<bool>(true));
  EXPECT_EQ(field_bool(line, "f"), std::optional<bool>(false));
  EXPECT_FALSE(field_u64(line, "absent").has_value());
  EXPECT_FALSE(field_u64(line, "s").has_value());  // wrong type
  EXPECT_FALSE(field_str(line, "max").has_value());
}

TEST(RecordFields, RejectOverflowInsteadOfWrapping) {
  EXPECT_FALSE(field_u64("{\"n\":18446744073709551616}", "n").has_value());
  EXPECT_FALSE(field_u64("{\"n\":99999999999999999999}", "n").has_value());
  EXPECT_FALSE(field_u64("{\"n\":-1}", "n").has_value());
  EXPECT_FALSE(
      field_hex("{\"h\":\"0x10000000000000000\"}", "h").has_value());
  EXPECT_FALSE(field_hex("{\"h\":\"0xfg\"}", "h").has_value());
  // FieldReader also holds each value to its variable's range.
  int narrow = 7;
  EXPECT_FALSE(FieldReader("{\"n\":2147483648}").u64("n", narrow).ok());
  EXPECT_EQ(narrow, 7);
  EXPECT_TRUE(FieldReader("{\"n\":2147483647}").u64("n", narrow).ok());
  EXPECT_EQ(narrow, 2147483647);
}

// ------------------------------------------------------------ ShardSpec ---

TEST(ShardSpec, ParseAcceptsCliSpellings) {
  auto s = parse_shard("0/1");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->index, 0u);
  EXPECT_EQ(s->count, 1u);
  EXPECT_FALSE(s->active());

  s = parse_shard("2/4");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->index, 2u);
  EXPECT_EQ(s->count, 4u);
  EXPECT_TRUE(s->active());
  EXPECT_EQ(s->to_string(), "2/4");
}

TEST(ShardSpec, ParseRejectsMalformedSpellings) {
  for (const char* bad :
       {"", "1", "/", "1/", "/2", "4/4", "5/4", "0/0", "banana", "1/2/3",
        "-1/2", "1/-2", " 1/2", "1/2 ", "1/ 2", "0x1/2", "1.0/2",
        "9999999999/2", "1/9999999999"}) {
    EXPECT_FALSE(parse_shard(bad).has_value()) << "accepted: " << bad;
  }
}

TEST(ShardSpec, RoundRobinPartitionIsExact) {
  for (std::uint32_t count : {2u, 3u, 4u, 7u}) {
    const std::uint64_t total = 23;
    std::uint64_t owned = 0;
    std::vector<int> owners(total, 0);
    for (std::uint32_t i = 0; i < count; ++i) {
      ShardSpec s{i, count};
      owned += s.share(total);
      for (std::uint64_t g = 0; g < total; ++g) owners[g] += s.owns(g);
    }
    EXPECT_EQ(owned, total) << "count=" << count;
    for (std::uint64_t g = 0; g < total; ++g)
      EXPECT_EQ(owners[g], 1) << "count=" << count << " g=" << g;
  }
}

// ---------------------------------------------------------- enumeration ---

// Every sweep kind's sharded enumeration must tile the unsharded one:
// each global index appears in exactly one shard, and the scenario at
// that slot is the same scenario (same key) the unsharded enumeration
// puts there.

TEST(ShardEnumeration, SafetyShardsTileTheCrossProduct) {
  SweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 5;
  const auto full = enumerate_shard(o);
  ASSERT_EQ(full.total, full.scenarios.size());

  const std::uint32_t kShards = 3;
  std::vector<int> seen(full.total, 0);
  for (std::uint32_t i = 0; i < kShards; ++i) {
    SweepOptions so = o;
    so.shard = ShardSpec{i, kShards};
    const auto part = enumerate_shard(so);
    EXPECT_EQ(part.total, full.total);
    EXPECT_EQ(part.scenarios.size(), so.shard.share(full.total));
    for (std::size_t j = 0; j < part.scenarios.size(); ++j) {
      const std::uint64_t gi = part.global_indices[j];
      ASSERT_LT(gi, full.total);
      EXPECT_EQ(gi % kShards, i);
      EXPECT_EQ(part.scenarios[j].key(), full.scenarios[gi].key());
      ++seen[gi];
    }
  }
  for (std::uint64_t g = 0; g < full.total; ++g) EXPECT_EQ(seen[g], 1);
}

TEST(ShardEnumeration, TermShardsTileTheCrossProduct) {
  term::TermSweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 4;
  const auto full = term::enumerate_term_shard(o);
  ASSERT_EQ(full.total, full.scenarios.size());

  const std::uint32_t kShards = 4;
  std::vector<int> seen(full.total, 0);
  for (std::uint32_t i = 0; i < kShards; ++i) {
    term::TermSweepOptions so = o;
    so.shard = ShardSpec{i, kShards};
    const auto part = term::enumerate_term_shard(so);
    EXPECT_EQ(part.total, full.total);
    for (std::size_t j = 0; j < part.scenarios.size(); ++j) {
      const std::uint64_t gi = part.global_indices[j];
      ASSERT_LT(gi, full.total);
      EXPECT_EQ(part.scenarios[j].key(), full.scenarios[gi].key());
      ++seen[gi];
    }
  }
  for (std::uint64_t g = 0; g < full.total; ++g) EXPECT_EQ(seen[g], 1);
}

TEST(ShardEnumeration, ExploreShardsTileTheInstanceList) {
  explore::ExploreOptions o;
  o.seed_begin = 0;
  o.seed_end = 6;
  const auto full = explore::enumerate_explore_shard(o);
  ASSERT_EQ(full.total, full.instances.size());

  const std::uint32_t kShards = 4;
  std::vector<int> seen(full.total, 0);
  for (std::uint32_t i = 0; i < kShards; ++i) {
    explore::ExploreOptions so = o;
    so.shard = ShardSpec{i, kShards};
    const auto part = explore::enumerate_explore_shard(so);
    EXPECT_EQ(part.total, full.total);
    for (std::size_t j = 0; j < part.instances.size(); ++j) {
      const std::uint64_t gi = part.global_indices[j];
      ASSERT_LT(gi, full.total);
      EXPECT_EQ(part.instances[j].key(), full.instances[gi].key());
      ++seen[gi];
    }
  }
  for (std::uint64_t g = 0; g < full.total; ++g) EXPECT_EQ(seen[g], 1);
}

// ---------------------------------------------------------- shard store ---

TEST(ShardStoreBytes, IndependentOfThreadsAndBatch) {
  SweepOptions a;
  a.seed_begin = 0;
  a.seed_end = 4;
  a.shard = ShardSpec{1, 3};
  a.threads = 1;
  a.batch_size = 1;
  SweepOptions b = a;
  b.threads = 4;
  b.batch_size = 2;

  StringSink sa, sb;
  (void)run_sweep(a, nullptr, &sa);
  (void)run_sweep(b, nullptr, &sb);
  EXPECT_EQ(sa.text(), sb.text());
}

TEST(ShardStoreBytes, DefaultShardWritesNoBracket) {
  SweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 2;
  StringSink s;
  (void)run_sweep(o, nullptr, &s);
  // Unsharded stores keep their historical shape: scenario records only,
  // each leading with its global index.
  EXPECT_EQ(s.text().rfind("{\"gi\":0,", 0), 0u);
  EXPECT_EQ(s.text().find("\"mode\":\"shard\""), std::string::npos);
}

// ---------------------------------------------------- the merge identity ---

// Shared harness: run the unsharded sweep and N sharded runs of the same
// options, merge the shard stores, and require store bytes, digest, and
// stable summary to be identical to the unsharded run's.

template <typename Options, typename RunFn>
void expect_merge_identity(const Options& base, std::uint32_t shards,
                           const std::string& kind, RunFn run) {
  StringSink full_sink;
  const auto full = run(base, &full_sink);

  std::vector<ShardStore> stores;
  for (std::uint32_t i = 0; i < shards; ++i) {
    Options o = base;
    o.shard = ShardSpec{i, shards};
    StringSink s;
    (void)run(o, &s);
    stores.push_back({"shard_" + std::to_string(i), s.text()});
  }

  const MergeResult m = merge_shard_stores(stores);
  EXPECT_EQ(m.kind, kind);
  EXPECT_EQ(m.shards, shards);
  EXPECT_EQ(m.store, full_sink.text());
  EXPECT_EQ(m.digest, full.digest);
  EXPECT_EQ(m.stable_text, full.stable_text());
  EXPECT_EQ(m.failed, full.failed());
}

TEST(ShardMerge, ReconstructsUnshardedSafetyStore) {
  SweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 4;
  o.threads = 2;
  expect_merge_identity(o, 3, "safety",
                        [](const SweepOptions& opts, RecordSink* sink) {
                          return run_sweep(opts, nullptr, sink);
                        });
}

TEST(ShardMerge, ReconstructsUnshardedTermStore) {
  // Includes the per-family "term-hist" records: shards persist partial
  // histograms, the merge recomputes the global ones.
  term::TermSweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 4;
  o.threads = 2;
  expect_merge_identity(o, 4, "term",
                        [](const term::TermSweepOptions& opts,
                           RecordSink* sink) {
                          return run_term_sweep(opts, nullptr, sink);
                        });
}

TEST(ShardMerge, ReconstructsFailingTermStore) {
  // Seeds 32:36 hold the known consensus defect
  // term/consensus/rand/p4/r64/seed34, so the unsharded sweep fails and
  // the merge must report the same exit.
  term::TermSweepOptions o;
  o.seed_begin = 32;
  o.seed_end = 36;
  o.threads = 2;
  StringSink sink;
  ASSERT_TRUE(run_term_sweep(o, nullptr, &sink).failed());
  expect_merge_identity(o, 3, "term",
                        [](const term::TermSweepOptions& opts,
                           RecordSink* sink) {
                          return run_term_sweep(opts, nullptr, sink);
                        });
}

TEST(ShardMerge, ReconstructsUnshardedExploreStore) {
  explore::ExploreOptions o;
  o.seed_begin = 0;
  o.seed_end = 4;
  o.search_budget = 4;
  o.shrink_budget = 64;
  o.round_budgets = {6};
  o.threads = 2;
  expect_merge_identity(o, 3, "explore",
                        [](const explore::ExploreOptions& opts,
                           RecordSink* sink) {
                          return run_explore(opts, nullptr, sink);
                        });
}

TEST(ShardMerge, ComposesTruncatedFailureMarker) {
  // ABD under a majority crash blocks every scenario: 2 adversaries x
  // 20 seeds = 40 failures, well past SweepFold::kMaxReportedFailures.
  // Each shard reports its own partial list; the merged summary must
  // re-truncate in GLOBAL order and land on the unsharded "... and N
  // more" marker exactly.
  SweepOptions o;
  o.algorithms = {Algorithm::kAbd};
  o.faults = {FaultKind::kMajorityCrash};
  o.seed_begin = 0;
  o.seed_end = 20;
  o.threads = 2;

  StringSink full_sink;
  const auto full = run_sweep(o, nullptr, &full_sink);
  ASSERT_GT(full.failures_truncated, 0u);
  ASSERT_NE(full.stable_text().find("more"), std::string::npos);

  expect_merge_identity(o, 3, "safety",
                        [](const SweepOptions& opts, RecordSink* sink) {
                          return run_sweep(opts, nullptr, sink);
                        });
}

// ------------------------------------------------------- loud rejection ---

class ShardMergeRejection : public ::testing::Test {
 protected:
  // Three shard stores of one small safety sweep, built once.
  static std::vector<ShardStore> make_stores() {
    std::vector<ShardStore> stores;
    for (std::uint32_t i = 0; i < 3; ++i) {
      SweepOptions o;
      o.seed_begin = 0;
      o.seed_end = 3;
      o.shard = ShardSpec{i, 3};
      StringSink s;
      (void)run_sweep(o, nullptr, &s);
      std::string name = util::numbered("s", i);
      name += ".jsonl";
      stores.push_back({std::move(name), s.text()});
    }
    return stores;
  }

  static std::string merge_error(const std::vector<ShardStore>& stores) {
    try {
      (void)merge_shard_stores(stores);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  }
};

TEST_F(ShardMergeRejection, MissingShardNamesTheHole) {
  auto stores = make_stores();
  stores.erase(stores.begin() + 2);
  const std::string err = merge_error(stores);
  EXPECT_NE(err.find("missing shard 2/3"), std::string::npos) << err;
}

TEST_F(ShardMergeRejection, DuplicateShardNamesBothFiles) {
  auto stores = make_stores();
  stores[2] = stores[1];
  const std::string err = merge_error(stores);
  EXPECT_NE(err.find("duplicate shard 1/3"), std::string::npos) << err;
  EXPECT_NE(err.find("s1.jsonl"), std::string::npos) << err;
}

TEST_F(ShardMergeRejection, ConfigMismatchIsRejected) {
  auto stores = make_stores();
  SweepOptions other;
  other.seed_begin = 0;
  other.seed_end = 7;  // Different cross-product: different config key.
  other.shard = ShardSpec{2, 3};
  StringSink s;
  (void)run_sweep(other, nullptr, &s);
  stores[2] = {"s2.jsonl", s.text()};
  const std::string err = merge_error(stores);
  EXPECT_FALSE(err.empty());
}

TEST_F(ShardMergeRejection, TamperedRecordFailsTheTrailerDigest) {
  auto stores = make_stores();
  // Flip a digit inside the first scenario record's steps count.
  std::string& text = stores[1].content;
  const auto pos = text.find("\"steps\":");
  ASSERT_NE(pos, std::string::npos);
  char& digit = text[pos + 8];
  digit = digit == '9' ? '8' : static_cast<char>(digit + 1);
  const std::string err = merge_error(stores);
  EXPECT_NE(err.find("digest"), std::string::npos) << err;
}

TEST_F(ShardMergeRejection, HeaderIndexAboveUint64MaxIsRejected) {
  // 2^64 must not wrap to shard 0 and merge as if it were that shard.
  auto stores = make_stores();
  std::string& text = stores[0].content;
  const auto pos = text.find("\"index\":0,");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 10, "\"index\":18446744073709551616,");
  const std::string err = merge_error(stores);
  EXPECT_NE(err.find("malformed shard header"), std::string::npos) << err;
}

TEST_F(ShardMergeRejection, UnshardedStoreIsNotAShardStore) {
  SweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 2;
  StringSink s;
  (void)run_sweep(o, nullptr, &s);
  const std::string err = merge_error({{"plain.jsonl", s.text()}});
  EXPECT_NE(err.find("not a shard store"), std::string::npos) << err;
}

TEST_F(ShardMergeRejection, EmptyShardSetIsRejected) {
  const std::string err = merge_error({});
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace rlt::sweep
