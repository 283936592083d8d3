// Tests for the message-passing substrate, the ABD register, and the
// executable Theorem 14 (f* construction).
#include <gtest/gtest.h>

#include "checker/lin_checker.hpp"
#include "checker/wsl_checker.hpp"
#include "mp/abd.hpp"
#include "mp/f_star.hpp"
#include "util/rng.hpp"

namespace rlt::mp {
namespace {

class EchoNode final : public Node {
 public:
  void on_message(const Message& m) override { received.push_back(m); }
  std::vector<Message> received;
};

TEST(Network, DeliversInChosenOrder) {
  Network net;
  EchoNode a;
  EchoNode b;
  const NodeId ia = net.add_node(a);
  const NodeId ib = net.add_node(b);
  net.send(ia, ib, 1, {10});
  net.send(ia, ib, 2, {20});
  ASSERT_EQ(net.in_flight(), 2u);
  net.deliver_at(1);  // out of order
  net.deliver_at(0);
  ASSERT_EQ(b.received.size(), 2u);
  EXPECT_EQ(b.received[0].type, 2);
  EXPECT_EQ(b.received[1].type, 1);
  EXPECT_EQ(net.messages_delivered(), 2u);
}

TEST(Network, CrashedNodesDropTraffic) {
  Network net;
  EchoNode a;
  EchoNode b;
  const NodeId ia = net.add_node(a);
  const NodeId ib = net.add_node(b);
  net.crash(ib);
  net.send(ia, ib, 1, {});
  net.deliver_at(0);
  EXPECT_TRUE(b.received.empty());  // dropped at delivery
  net.send(ib, ia, 1, {});          // dropped at send
  EXPECT_EQ(net.in_flight(), 0u);
  EXPECT_EQ(net.crashed_count(), 1);
}

TEST(Network, BroadcastReachesEveryNodeIncludingSender) {
  Network net;
  EchoNode nodes[3];
  for (EchoNode& n : nodes) net.add_node(n);
  net.broadcast(0, 9, {1, 2});
  EXPECT_EQ(net.in_flight(), 3u);
  while (net.in_flight() > 0) net.deliver_at(0);
  for (EchoNode& n : nodes) {
    ASSERT_EQ(n.received.size(), 1u);
    EXPECT_EQ(n.received[0].payload, (std::vector<std::int64_t>{1, 2}));
  }
}

/// Drives the network until the given op completes (FIFO-ish random).
void drive_until_done(Network& net, AbdRegister& reg, int token,
                      util::Rng& rng, int max_steps = 100000) {
  for (int i = 0; i < max_steps && !reg.done(token); ++i) {
    if (!net.deliver_random(rng)) break;
  }
}

TEST(Abd, SequentialWriteThenRead) {
  Network net;
  AbdRegister reg(net, 3, /*writer=*/0, /*initial=*/7);
  util::Rng rng(1);
  const int w = reg.begin_write(42);
  drive_until_done(net, reg, w, rng);
  ASSERT_TRUE(reg.done(w));
  const int r = reg.begin_read(1);
  drive_until_done(net, reg, r, rng);
  ASSERT_TRUE(reg.done(r));
  EXPECT_EQ(reg.result(r), 42);
}

TEST(Abd, ReadOfInitialValue) {
  Network net;
  AbdRegister reg(net, 5, 0, 7);
  util::Rng rng(2);
  const int r = reg.begin_read(3);
  drive_until_done(net, reg, r, rng);
  ASSERT_TRUE(reg.done(r));
  EXPECT_EQ(reg.result(r), 7);
}

TEST(Abd, ToleratesMinorityCrashes) {
  Network net;
  AbdRegister reg(net, 5, 0, 0);
  util::Rng rng(3);
  net.crash(3);
  net.crash(4);  // 2 < majority of 5
  const int w = reg.begin_write(9);
  drive_until_done(net, reg, w, rng);
  ASSERT_TRUE(reg.done(w));
  const int r = reg.begin_read(1);
  drive_until_done(net, reg, r, rng);
  ASSERT_TRUE(reg.done(r));
  EXPECT_EQ(reg.result(r), 9);
}

TEST(Abd, MajorityCrashStallsOperationsForever) {
  Network net;
  AbdRegister reg(net, 5, 0, 0);
  util::Rng rng(4);
  net.crash(1);
  net.crash(2);
  net.crash(3);  // majority gone
  EXPECT_EQ(net.live_count(), 2);
  const int w = reg.begin_write(9);
  drive_until_done(net, reg, w, rng);
  EXPECT_FALSE(reg.done(w));  // pending forever — liveness needs a quorum
  EXPECT_EQ(reg.pending_ops(), 1);
  // The op's home (the writer) is alive, but 2 live servers < quorum 3:
  // no delivery schedule can ever complete it.
  EXPECT_EQ(reg.op_node(w), 0);
  EXPECT_FALSE(reg.op_can_complete(w));
}

TEST(Abd, OpCanCompleteTracksTheCrashSet) {
  Network net;
  AbdRegister reg(net, 5, 0, 0);
  util::Rng rng(5);
  const int w = reg.begin_write(1);
  EXPECT_TRUE(reg.op_can_complete(w));  // everyone alive
  net.crash(3);
  net.crash(4);  // minority: 3 live >= quorum 3
  EXPECT_TRUE(reg.op_can_complete(w));
  drive_until_done(net, reg, w, rng);
  ASSERT_TRUE(reg.done(w));
  const int r = reg.begin_read(2);
  net.crash(2);  // the reader itself dies: its op is stranded
  EXPECT_FALSE(reg.op_can_complete(r));
  EXPECT_TRUE(reg.op_can_complete(w));  // completed ops stay completable
}

TEST(Abd, RejectsConcurrentWrites) {
  Network net;
  AbdRegister reg(net, 3, 0, 0);
  (void)reg.begin_write(1);
  EXPECT_THROW((void)reg.begin_write(2), util::InvariantViolation);
}

/// A randomized ABD workload: interleaves write/read starts with message
/// deliveries; returns the recorded history.
history::History random_abd_run(std::uint64_t seed, int n, int crashes) {
  Network net;
  AbdRegister reg(net, n, 0, 0);
  util::Rng rng(seed);
  int writes_left = 3;
  int reads_left = 4;
  Value next_value = 1;
  std::vector<int> write_tokens;
  std::vector<int> read_tokens;
  std::vector<NodeId> free_readers;
  for (int i = 1; i < n; ++i) free_readers.push_back(i);
  int crashed = 0;

  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t pick = rng.uniform(10);
    if (pick == 0 && writes_left > 0) {
      // The single writer starts a new write only when idle.
      const bool writer_busy =
          !write_tokens.empty() && !reg.done(write_tokens.back());
      if (!writer_busy) {
        write_tokens.push_back(reg.begin_write(next_value++));
        --writes_left;
        continue;
      }
    }
    if (pick == 1 && reads_left > 0 && !free_readers.empty()) {
      const NodeId reader = free_readers.back();
      free_readers.pop_back();
      read_tokens.push_back(reg.begin_read(reader));
      --reads_left;
      continue;
    }
    if (pick == 2 && crashed < crashes) {
      // Crash a non-writer node (keeps the workload flowing).
      const NodeId victim = 1 + static_cast<NodeId>(rng.uniform(
                                    static_cast<std::uint64_t>(n - 1)));
      if (!net.crashed(victim)) {
        net.crash(victim);
        ++crashed;
      }
      continue;
    }
    if (!net.deliver_random(rng)) {
      if (writes_left == 0 && reads_left == 0) break;
    }
  }
  return reg.hl_history();
}

class AbdSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AbdSweep, HistoriesAreLinearizable) {
  const history::History h = random_abd_run(GetParam(), 5, 0);
  h.validate();
  const auto lin = checker::check_linearizable(h);
  ASSERT_TRUE(lin.ok) << lin.error << '\n' << h.to_string();
}

TEST_P(AbdSweep, HistoriesAreWriteStronglyLinearizable) {
  // Theorem 14: ABD (a linearizable SWMR implementation) is WSL.
  const history::History h = random_abd_run(GetParam(), 5, 0);
  const auto wsl = checker::check_write_strong_linearizable(h);
  ASSERT_TRUE(wsl.ok) << wsl.explanation << '\n' << h.to_string();
}

TEST_P(AbdSweep, FStarConstructionVerifies) {
  const history::History h = random_abd_run(GetParam(), 5, 0);
  const SwmrWslCheck chk = check_swmr_write_strong(h);
  ASSERT_TRUE(chk.ok) << chk.error << '\n' << h.to_string();
  EXPECT_GT(chk.prefixes_checked, 0u);
}

TEST_P(AbdSweep, CrashyHistoriesStayCorrect) {
  const history::History h = random_abd_run(GetParam() + 1000, 5, 2);
  h.validate();
  ASSERT_TRUE(checker::check_linearizable(h).ok) << h.to_string();
  ASSERT_TRUE(checker::check_write_strong_linearizable(h).ok);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AbdSweep,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(FStar, DropsTrailingPendingWrite) {
  history::History h;
  history::OpRecord w;
  w.process = 0;
  w.reg = 0;
  w.kind = history::OpKind::kWrite;
  w.value = 1;
  w.invoke = 1;
  w.response = history::kNoTime;
  h.add(w);
  EXPECT_EQ(f_star(h, {0}), std::vector<int>{});
  // A completed write stays.
  history::History h2;
  w.response = 5;
  h2.add(w);
  EXPECT_EQ(f_star(h2, {0}), std::vector<int>{0});
}

TEST(FStar, RejectsConcurrentWriters) {
  history::History h;
  history::OpRecord w;
  w.reg = 0;
  w.kind = history::OpKind::kWrite;
  w.process = 0;
  w.value = 1;
  w.invoke = 1;
  w.response = 10;
  h.add(w);
  w.process = 1;
  w.value = 2;
  w.invoke = 5;
  w.response = 15;
  h.add(w);
  EXPECT_THROW((void)check_swmr_write_strong(h), util::InvariantViolation);
}

TEST(Network, AccountingSplitsDropsFromDeliveries) {
  // A consumed envelope is either delivered or dropped, never both;
  // messages_consumed() (the drivers' step currency) counts both.
  Network net;
  EchoNode a;
  EchoNode b;
  const NodeId ia = net.add_node(a);
  const NodeId ib = net.add_node(b);
  net.send(ia, ib, 1, {});
  net.send(ib, ia, 2, {});
  net.deliver_at(0);  // live receiver: delivered
  net.crash(ia);
  net.deliver_at(0);  // crashed receiver: consumed as a drop
  EXPECT_EQ(net.messages_delivered(), 1u);
  EXPECT_EQ(net.messages_dropped(), 1u);
  EXPECT_EQ(net.messages_duplicated(), 0u);
  EXPECT_EQ(net.messages_consumed(), 2u);
}

TEST(Network, LossyFabricIsSeededAndDeterministic) {
  const auto run = [](std::uint64_t seed) {
    Network net;
    EchoNode a;
    EchoNode b;
    const NodeId ia = net.add_node(a);
    const NodeId ib = net.add_node(b);
    net.make_unreliable(/*drop_permille=*/400, /*dup_permille=*/0, seed);
    for (int i = 0; i < 200; ++i) net.send(ia, ib, i, {});
    while (net.in_flight() > 0) net.deliver_at(0);
    return std::make_pair(net.messages_delivered(), net.messages_dropped());
  };
  const auto [d1, l1] = run(7);
  const auto [d2, l2] = run(7);
  EXPECT_EQ(d1, d2);  // same seed, same coin flips
  EXPECT_EQ(l1, l2);
  EXPECT_EQ(d1 + l1, 200u);
  EXPECT_GT(l1, 0u);   // 400‰ over 200 sends loses something...
  EXPECT_GT(d1, 0u);   // ...but not everything
  const auto [d3, l3] = run(8);
  EXPECT_TRUE(d3 != d1 || l3 != l1);  // different seed, different fabric
}

TEST(Network, DuplicatedCopiesKeepTheSameSeq) {
  Network net;
  EchoNode a;
  EchoNode b;
  const NodeId ia = net.add_node(a);
  const NodeId ib = net.add_node(b);
  // dup_permille 999: the single delivery re-enqueues a copy (the copy
  // itself may duplicate again, so drain and count).
  net.make_unreliable(0, 999, /*seed=*/3);
  net.send(ia, ib, 1, {5});
  while (net.in_flight() > 0) net.deliver_at(0);
  ASSERT_GE(b.received.size(), 2u);
  EXPECT_EQ(net.messages_duplicated(), b.received.size() - 1);
  for (const Message& m : b.received) {
    EXPECT_EQ(m.seq, b.received[0].seq);  // dedup-able by the receiver
    EXPECT_EQ(m.payload, (std::vector<std::int64_t>{5}));
  }
}

TEST(Network, PartitionCutsCrossSideTrafficUntilHealed) {
  Network net;
  EchoNode nodes[3];
  for (EchoNode& n : nodes) net.add_node(n);
  net.set_partition({0, 0, 1});  // node 2 alone on side 1
  net.send(0, 1, 1, {});         // same side: flows
  net.send(0, 2, 2, {});         // cross side: dropped at delivery
  net.deliver_at(0);
  net.deliver_at(0);
  EXPECT_EQ(nodes[1].received.size(), 1u);
  EXPECT_TRUE(nodes[2].received.empty());
  EXPECT_EQ(net.messages_dropped(), 1u);
  EXPECT_TRUE(net.partitioned());
  net.heal_partition();
  net.send(0, 2, 3, {});
  net.deliver_at(0);
  ASSERT_EQ(nodes[2].received.size(), 1u);  // healed: flows again
  EXPECT_EQ(nodes[2].received[0].type, 3);
}

TEST(Network, MidBroadcastCrashLetsOnlyThePrefixThrough) {
  Network net;
  EchoNode nodes[4];
  for (EchoNode& n : nodes) net.add_node(n);
  // The crash fires when the attempt counter reaches 3 — before the
  // broadcast's third send enqueues — so exactly sends 1 and 2 get out.
  net.schedule_crash_at_send(0, 3);
  net.broadcast(0, 7, {});
  EXPECT_TRUE(net.crashed(0));
  EXPECT_EQ(net.in_flight(), 2u);
}

TEST(Network, RecoverRestoresLivenessAndRejectsLiveNodes) {
  Network net;
  EchoNode a;
  EchoNode b;
  const NodeId ia = net.add_node(a);
  const NodeId ib = net.add_node(b);
  EXPECT_THROW(net.recover(ib), util::InvariantViolation);  // not crashed
  net.crash(ib);
  net.send(ia, ib, 1, {});
  net.deliver_at(0);  // dropped: receiver down
  net.recover(ib);
  EXPECT_EQ(net.live_count(), 2);
  net.send(ia, ib, 2, {});
  net.deliver_at(0);
  ASSERT_EQ(b.received.size(), 1u);  // recovered: hears traffic again
  EXPECT_EQ(b.received[0].type, 2);
}

TEST(Network, AdversarialDropAndDuplicateTargetChosenEnvelopes) {
  Network net;
  EchoNode a;
  EchoNode b;
  const NodeId ia = net.add_node(a);
  const NodeId ib = net.add_node(b);
  net.send(ia, ib, 1, {});
  net.send(ia, ib, 2, {});
  net.drop_at(0);  // kill the first envelope specifically
  EXPECT_EQ(net.messages_dropped(), 1u);
  ASSERT_EQ(net.in_flight(), 1u);
  net.duplicate_at(0);
  EXPECT_EQ(net.messages_duplicated(), 1u);
  ASSERT_EQ(net.in_flight(), 2u);
  EXPECT_EQ(net.in_flight_messages()[0].seq, net.in_flight_messages()[1].seq);
  net.deliver_at(0);
  net.deliver_at(0);
  ASSERT_EQ(b.received.size(), 2u);
  EXPECT_EQ(b.received[0].type, 2);
  EXPECT_EQ(b.received[1].type, 2);
}

TEST(Network, PayloadsLongerThanTheInlineCapacityAreRejected) {
  Network net;
  EchoNode a;
  const NodeId ia = net.add_node(a);
  net.send(ia, ia, 1, {1, 2, 3});  // ABD's longest message fits
  EXPECT_THROW(net.send(ia, ia, 1, {1, 2, 3, 4}), util::InvariantViolation);
  EXPECT_EQ(net.in_flight(), 1u);
  EXPECT_EQ(net.messages_sent(), 1u);
}

TEST(Network, CrashingACrashedNodeCountsOnce) {
  Network net;
  EchoNode nodes[3];
  for (EchoNode& n : nodes) net.add_node(n);
  net.crash(1);
  net.crash(1);  // e.g. a scheduled send-crash landing on a dead node
  EXPECT_EQ(net.crashed_count(), 1);
  EXPECT_EQ(net.live_count(), 2);
  net.recover(1);
  EXPECT_EQ(net.crashed_count(), 0);
  EXPECT_EQ(net.live_count(), 3);
  EXPECT_THROW(net.recover(1), util::InvariantViolation);
  EXPECT_EQ(net.live_count(), 3);
}

TEST(Network, DeliveringFromTheMiddleKeepsTheRestInSendOrder) {
  Network net;
  EchoNode a;
  EchoNode b;
  const NodeId ia = net.add_node(a);
  const NodeId ib = net.add_node(b);
  for (std::int64_t t = 1; t <= 5; ++t) net.send(ia, ib, t, {t, 10 * t});
  net.deliver_at(2);
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].type, 3);
  EXPECT_EQ(b.received[0].payload, (std::vector<std::int64_t>{3, 30}));
  const std::vector<Message>& rest = net.in_flight_messages();
  ASSERT_EQ(rest.size(), 4u);
  const std::int64_t expected[] = {1, 2, 4, 5};
  for (std::size_t i = 0; i < rest.size(); ++i) {
    EXPECT_EQ(rest[i].type, expected[i]);
    EXPECT_EQ(rest[i].seq, static_cast<std::uint64_t>(expected[i]));
    EXPECT_EQ(rest[i].payload,
              (std::vector<std::int64_t>{expected[i], 10 * expected[i]}));
  }
}

/// Drives a fault-tolerant register until the op completes, advancing a
/// logical clock so retransmission timers fire; mirrors the sweep
/// driver's loop (deliver when possible, otherwise fast-forward to the
/// next retransmission deadline).
void drive_fault_tolerant(Network& net, AbdRegister& reg, int token,
                          util::Rng& rng, int max_steps = 200000) {
  std::uint64_t now = 0;
  for (int i = 0; i < max_steps && !reg.done(token); ++i) {
    reg.tick_retransmit(now);
    if (!net.deliver_random(rng)) {
      const auto due = reg.next_retransmit_due();
      if (!due) break;                    // nothing will ever fire again
      now = std::max(now + 1, *due);
      continue;
    }
    ++now;
  }
}

TEST(Abd, RetransmissionCompletesOpsOnALossyNetwork) {
  Network net;
  AbdRegister reg(net, 3, 0, 0);
  net.make_unreliable(/*drop_permille=*/400, 0, /*seed=*/11);
  reg.enable_fault_tolerance(/*seed=*/12, /*retry_base=*/4);
  util::Rng rng(13);
  const int w = reg.begin_write(42);
  drive_fault_tolerant(net, reg, w, rng);
  ASSERT_TRUE(reg.done(w));
  const int r = reg.begin_read(1);
  drive_fault_tolerant(net, reg, r, rng);
  ASSERT_TRUE(reg.done(r));
  EXPECT_EQ(reg.result(r), 42);
  // 40% loss with quorum 2-of-3 virtually guarantees a lost ack forced
  // at least one rebroadcast; if not, the fabric seed is miscalibrated.
  EXPECT_GT(reg.retransmits(), 0u);
  const auto lin = checker::check_linearizable(reg.hl_history());
  EXPECT_TRUE(lin.ok) << lin.error;
}

TEST(Abd, ServerDedupConsumesFabricDuplicatesOnce) {
  Network net;
  AbdRegister reg(net, 3, 0, 0);
  net.make_unreliable(0, /*dup_permille=*/500, /*seed=*/21);
  reg.enable_fault_tolerance(/*seed=*/22);
  util::Rng rng(23);
  const int w = reg.begin_write(5);
  drive_fault_tolerant(net, reg, w, rng);
  ASSERT_TRUE(reg.done(w));
  const int r = reg.begin_read(2);
  drive_fault_tolerant(net, reg, r, rng);
  ASSERT_TRUE(reg.done(r));
  EXPECT_EQ(reg.result(r), 5);
  EXPECT_GT(net.messages_duplicated(), 0u);
  const auto lin = checker::check_linearizable(reg.hl_history());
  EXPECT_TRUE(lin.ok) << lin.error << '\n' << reg.hl_history().to_string();
}

TEST(Abd, ServerDedupDropsARepeatedSeqUntilRecovery) {
  Network net;
  AbdRegister reg(net, 3, 0, 0);
  reg.enable_fault_tolerance(/*seed=*/24);
  // Twelve reliable writes (6 messages each) push the seqs past one
  // 64-bit word of the servers' dedup bitmaps.
  util::Rng rng(25);
  for (int i = 0; i < 12; ++i) {
    const int w = reg.begin_write(i);
    while (net.deliver_random(rng)) {
    }
    ASSERT_TRUE(reg.done(w));
  }
  reg.begin_read(1);  // READ to servers 0, 1, 2
  ASSERT_EQ(net.in_flight(), 3u);
  const std::uint64_t read_seq = net.in_flight_messages()[0].seq;
  EXPECT_GT(read_seq, 64u);
  net.duplicate_at(0);  // two copies of server 0's READ, same seq
  net.duplicate_at(0);
  net.deliver_at(0);    // the original: server 0 replies
  const std::uint64_t sent = net.messages_sent();
  // In flight: READs to servers 1 and 2, the two copies, the reply.
  ASSERT_EQ(net.in_flight_messages()[2].seq, read_seq);
  net.deliver_at(2);  // a copy: consumed without a reply
  EXPECT_EQ(net.messages_sent(), sent);
  net.crash(0);
  net.recover(0);
  reg.on_recover(0);  // the dedup cache is volatile
  ASSERT_EQ(net.in_flight_messages()[2].seq, read_seq);
  net.deliver_at(2);  // the same seq is answered again
  EXPECT_EQ(net.messages_sent(), sent + 1);
}

TEST(Abd, AbandonedOpsNeverCompleteOrRetransmit) {
  Network net;
  AbdRegister reg(net, 3, 0, 0);
  reg.enable_fault_tolerance(/*seed=*/31);
  const int w = reg.begin_write(9);
  net.crash(0);
  reg.abandon_ops_on(0);
  EXPECT_EQ(reg.abandoned_ops(), 1);
  EXPECT_FALSE(reg.op_can_complete(w));
  EXPECT_EQ(reg.next_retransmit_due(), std::nullopt);
  reg.tick_retransmit(1000);  // would arm/fire a live op's timer
  EXPECT_EQ(reg.retransmits(), 0u);
  util::Rng rng(32);
  while (net.deliver_random(rng)) {
  }
  EXPECT_FALSE(reg.done(w));      // pending forever
  EXPECT_EQ(reg.pending_ops(), 1);
  // The abandoned write released the single-writer slot: after recovery
  // the writer may start a fresh write (its durable timestamp counter
  // supersedes the abandoned one).
  net.recover(0);
  reg.on_recover(0);
  const int w2 = reg.begin_write(10);
  drive_fault_tolerant(net, reg, w2, rng);
  EXPECT_TRUE(reg.done(w2));
}

TEST(Abd, RecoveryRestoresDurableServerState) {
  // Complete a write whose value only servers 1 and 2 saw, crash-recover
  // node 2, then force a read quorum through it: the read returns the
  // written value only because (ts, value) survived on stable storage.
  Network net;
  AbdRegister reg(net, 3, 0, 0);
  reg.enable_fault_tolerance(/*seed=*/41);
  const int w = reg.begin_write(42);
  // in_flight: write requests to servers 0, 1, 2.
  net.deliver_at(1);  // server 1 stores (1, 42), acks
  net.deliver_at(1);  // server 2 stores (1, 42), acks
  net.deliver_at(1);  // ack from 1
  net.deliver_at(1);  // ack from 2: quorum, write done
  ASSERT_TRUE(reg.done(w));
  net.drop_at(0);  // server 0 NEVER hears this write
  ASSERT_EQ(net.in_flight(), 0u);
  net.crash(2);
  reg.abandon_ops_on(2);  // no-op (no op in flight there)
  net.recover(2);
  reg.on_recover(2);      // volatile dedup cache reset, (ts, value) kept
  net.crash(1);           // permanently: quorum must now include node 2
  const int r = reg.begin_read(0);
  util::Rng rng(42);
  drive_fault_tolerant(net, reg, r, rng);
  ASSERT_TRUE(reg.done(r));
  // Server 0 replies (0, initial); server 2 must reply (1, 42) from its
  // durable state or the read would linearize to the stale initial 0.
  EXPECT_EQ(reg.result(r), 42);
}

TEST(Abd, RetransmissionBacksOffWhileNoQuorumIsLive) {
  Network net;
  AbdRegister reg(net, 3, 0, 0);
  reg.enable_fault_tolerance(/*seed=*/51);
  const int w = reg.begin_write(1);
  net.crash(1);
  net.crash(2);  // live count 1 < quorum 2: permanent majority loss
  util::Rng rng(52);
  while (net.deliver_random(rng)) {
  }
  EXPECT_FALSE(reg.done(w));
  // Ineligible ops never arm a timer: the driver sees no future event
  // and classifies the quiescent run as blocked instead of spinning.
  EXPECT_EQ(reg.next_retransmit_due(), std::nullopt);
  reg.tick_retransmit(10'000);
  EXPECT_EQ(reg.retransmits(), 0u);
  EXPECT_FALSE(reg.op_can_complete(w));
}

TEST(Abd, FaultToleranceIsInertOnAReliableNetwork) {
  // With no ticks and no fabric, the armed layer must not change the
  // message flow: same sends, same history as the classic algorithm.
  const auto run = [](bool armed) {
    Network net;
    AbdRegister reg(net, 3, 0, 0);
    if (armed) reg.enable_fault_tolerance(/*seed=*/61);
    util::Rng rng(62);
    const int w = reg.begin_write(7);
    drive_until_done(net, reg, w, rng);
    const int r = reg.begin_read(1);
    drive_until_done(net, reg, r, rng);
    return std::make_pair(net.messages_sent(), reg.hl_history().to_string());
  };
  const auto [sent_plain, hist_plain] = run(false);
  const auto [sent_armed, hist_armed] = run(true);
  EXPECT_EQ(sent_plain, sent_armed);
  EXPECT_EQ(hist_plain, hist_armed);
}

TEST(Abd, MessageComplexityPerOperation) {
  // Writes cost 2n messages (n requests + n acks); reads cost 4n
  // (query round trip + write-back round trip).
  Network net;
  AbdRegister reg(net, 5, 0, 0);
  util::Rng rng(8);
  const std::uint64_t before_w = net.messages_sent();
  const int w = reg.begin_write(1);
  drive_until_done(net, reg, w, rng);
  while (net.in_flight() > 0) net.deliver_at(0);  // flush stragglers
  EXPECT_EQ(net.messages_sent() - before_w, 10u);
  const std::uint64_t before_r = net.messages_sent();
  const int r = reg.begin_read(2);
  drive_until_done(net, reg, r, rng);
  while (net.in_flight() > 0) net.deliver_at(0);
  EXPECT_EQ(net.messages_sent() - before_r, 20u);
}

}  // namespace
}  // namespace rlt::mp
