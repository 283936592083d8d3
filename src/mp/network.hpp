// Simulated asynchronous message-passing substrate for the ABD register.
//
// Asynchronous and — when a fault fabric is armed — unreliable: the
// delivery order is chosen by the driver (adversarially or at random),
// nodes may crash (a crashed node silently drops incoming messages and
// sends nothing) and later recover, and the fabric can drop messages
// (seeded per-message loss or a transient partition cut), duplicate
// them, or land a crash *between* the sends of one broadcast so only a
// prefix of replicas hears it.  With no fabric armed the network is the
// classic reliable-but-asynchronous model under which ABD implements
// linearizable SWMR registers when fewer than half the nodes crash
// [Attiya, Bar-Noy, Dolev 1995]; every fault decision flows through a
// seeded Rng, so runs stay byte-deterministic.
//
// The network allocates nothing per message: a payload is at most
// Payload::kCapacity words stored inline, so a Message is trivially
// copyable and the in-flight vector erases by memmove.  Liveness is a
// counter kept by crash/recover, so live_count() is O(1).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace rlt::mp {

using NodeId = int;

/// A message payload: up to kCapacity words stored inline (ABD's whole
/// grammar fits; a longer payload fails an invariant check).
class Payload {
 public:
  static constexpr std::size_t kCapacity = 3;

  Payload() = default;
  Payload(std::initializer_list<std::int64_t> words) : size_(words.size()) {
    RLT_CHECK_MSG(words.size() <= kCapacity,
                  "payload of " << words.size() << " words exceeds the "
                                << kCapacity << "-word inline capacity");
    std::copy(words.begin(), words.end(), words_.begin());
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::int64_t operator[](std::size_t i) const noexcept {
    return words_[i];
  }
  [[nodiscard]] std::span<const std::int64_t> words() const noexcept {
    return {words_.data(), size_};
  }
  friend bool operator==(const Payload& a,
                         std::span<const std::int64_t> b) noexcept {
    return std::ranges::equal(a.words(), b);
  }

 private:
  std::array<std::int64_t, kCapacity> words_{};
  std::size_t size_ = 0;
};

/// A protocol message.  `type` and `payload` semantics belong to the
/// protocol (see abd.cpp for ABD's message grammar).
struct Message {
  NodeId from = -1;
  NodeId to = -1;
  std::int64_t type = 0;
  Payload payload;
  std::uint64_t seq = 0;  ///< Global send sequence number (determinism).
};
static_assert(std::is_trivially_copyable_v<Message>);

/// Message handler interface implemented by protocol nodes.
class Node {
 public:
  virtual ~Node() = default;
  virtual void on_message(const Message& m) = 0;
};

/// Passive observer of network events, for forensics timelines.  Hooked
/// in with Network::set_observer; every callback fires synchronously at
/// the event site, in deterministic driver order.  Observers must not
/// mutate the network (observability is never behavior, and never
/// digest material).
class NetObserver {
 public:
  virtual ~NetObserver() = default;
  /// A message was enqueued (after any scheduled mid-broadcast crash
  /// fired; suppressed sends from crashed nodes are not reported).
  virtual void on_send(const Message& m) = 0;
  /// A message reached a live receiver's on_message.
  virtual void on_deliver(const Message& m) = 0;
  /// A message was consumed without effect.  `reason` is one of
  /// "crashed-receiver", "partition-cut", "lossy", "adversary".
  virtual void on_drop(const Message& m, const char* reason) = 0;
  /// A fabric or adversarial duplicate (same seq) joined the multiset.
  virtual void on_duplicate(const Message& m) = 0;
  virtual void on_crash(NodeId n) = 0;
  virtual void on_recover(NodeId n) = 0;
};

/// The network: in-flight message multiset plus the fault fabric
/// (crashes, recovery, seeded loss/duplication, transient partitions).
class Network {
 public:
  /// Registers a node; returns its id (dense, starting at 0).
  NodeId add_node(Node& node) {
    nodes_.push_back(&node);
    crashed_.push_back(false);
    side_.push_back(0);
    return static_cast<NodeId>(nodes_.size()) - 1;
  }

  [[nodiscard]] int node_count() const noexcept {
    return static_cast<int>(nodes_.size());
  }

  /// Attaches (or, with nullptr, detaches) a forensics observer.  The
  /// observer is notified of sends, deliveries, drops, duplicates,
  /// crashes, and recoveries; it never alters behavior.
  void set_observer(NetObserver* obs) noexcept { observer_ = obs; }

  /// Queues a message.  Sends from crashed nodes are dropped.  Each call
  /// is one send *attempt*: scheduled mid-broadcast crashes fire by
  /// attempt number, BEFORE the attempt enqueues, so a crash scheduled
  /// inside a broadcast lets exactly the earlier sends through.
  void send(NodeId from, NodeId to, std::int64_t type, Payload payload) {
    RLT_CHECK(valid(from) && valid(to));
    ++send_attempts_;
    while (next_send_crash_ < send_crashes_.size() &&
           send_crashes_[next_send_crash_].first <= send_attempts_) {
      crash(send_crashes_[next_send_crash_].second);
      ++next_send_crash_;
    }
    if (crashed_[static_cast<std::size_t>(from)]) return;
    Message m;
    m.from = from;
    m.to = to;
    m.type = type;
    m.payload = payload;
    m.seq = ++sent_;
    bytes_sent_ += wire_bytes(m);
    if (observer_ != nullptr) observer_->on_send(m);
    in_flight_.push_back(m);
  }

  /// Queues a message to every node (including the sender).
  void broadcast(NodeId from, std::int64_t type, const Payload& payload) {
    for (NodeId to = 0; to < node_count(); ++to) {
      send(from, to, type, payload);
    }
  }

  [[nodiscard]] std::size_t in_flight() const noexcept {
    return in_flight_.size();
  }
  /// The in-flight multiset, send order (adversarial schedule policies
  /// inspect envelopes to steer quorums; index into it with deliver_at).
  [[nodiscard]] const std::vector<Message>& in_flight_messages()
      const noexcept {
    return in_flight_;
  }
  [[nodiscard]] std::uint64_t messages_sent() const noexcept { return sent_; }
  /// Wire bytes enqueued (message-complexity accounting): every sent
  /// envelope, fabric duplicates included, at 8 bytes per header word
  /// (from, to, type, seq) and per payload word.  A pure function of
  /// the messages sent — deterministic, observability-only.
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept {
    return bytes_sent_;
  }
  /// Messages handed to a live, reachable receiver's on_message.
  [[nodiscard]] std::uint64_t messages_delivered() const noexcept {
    return delivered_;
  }
  /// Messages consumed without effect: crashed receiver, partition cut,
  /// lossy coin, or an adversarial drop_at.
  [[nodiscard]] std::uint64_t messages_dropped() const noexcept {
    return dropped_;
  }
  /// Extra copies enqueued by the duplication fabric or duplicate_at.
  [[nodiscard]] std::uint64_t messages_duplicated() const noexcept {
    return duplicated_;
  }
  /// Total envelopes consumed off the in-flight multiset (the driver's
  /// step/budget currency; delivered + dropped).
  [[nodiscard]] std::uint64_t messages_consumed() const noexcept {
    return delivered_ + dropped_;
  }

  /// Arms seeded per-message unreliability: each would-be delivery is
  /// dropped with probability drop_permille/1000, and each actual
  /// delivery is duplicated (a copy re-enqueued with the SAME seq, so
  /// receiver-side dedup can spot it) with dup_permille/1000.
  void make_unreliable(std::uint32_t drop_permille,
                       std::uint32_t dup_permille, std::uint64_t seed) {
    RLT_CHECK(drop_permille < 1000 && dup_permille < 1000);
    drop_permille_ = drop_permille;
    dup_permille_ = dup_permille;
    fabric_rng_ = util::Rng(seed);
    unreliable_ = drop_permille > 0 || dup_permille > 0;
  }

  /// Cuts the network into two sides; cross-side messages are dropped
  /// at delivery time for as long as the cut holds.  side[n] is 0 or 1.
  void set_partition(const std::vector<std::uint8_t>& side) {
    RLT_CHECK(side.size() == nodes_.size());
    side_ = side;
    partitioned_ = true;
  }
  void heal_partition() { partitioned_ = false; }
  [[nodiscard]] bool partitioned() const noexcept { return partitioned_; }

  /// Delivers the in-flight message at `index` (adversarial delivery).
  /// Messages to crashed or cut-off receivers, and messages claimed by
  /// the lossy coin, are consumed as drops.
  void deliver_at(std::size_t index) {
    const Message m = take_at(index);
    // Checks stay sequenced exactly as the original short-circuit: the
    // lossy coin is only consumed when the first two gates pass, so the
    // fabric Rng stream (and hence every seeded run) is unchanged.
    const char* drop_reason = nullptr;
    if (crashed_[static_cast<std::size_t>(m.to)]) {
      drop_reason = "crashed-receiver";
    } else if (cut(m.from, m.to)) {
      drop_reason = "partition-cut";
    } else if (unreliable_ && drop_permille_ > 0 &&
               fabric_rng_.chance(drop_permille_, 1000)) {
      drop_reason = "lossy";
    }
    if (drop_reason != nullptr) {
      ++dropped_;
      if (observer_ != nullptr) observer_->on_drop(m, drop_reason);
      return;
    }
    ++delivered_;
    if (unreliable_ && dup_permille_ > 0 &&
        fabric_rng_.chance(dup_permille_, 1000)) {
      ++duplicated_;
      bytes_sent_ += wire_bytes(m);
      if (observer_ != nullptr) observer_->on_duplicate(m);
      in_flight_.push_back(m);  // same seq: dedup-able by the receiver
    }
    if (observer_ != nullptr) observer_->on_deliver(m);
    nodes_[static_cast<std::size_t>(m.to)]->on_message(m);
  }

  /// Adversarially drops the in-flight message at `index` (explore-lab
  /// fault menus pick the victim envelope).
  void drop_at(std::size_t index) {
    const Message m = take_at(index);
    ++dropped_;
    if (observer_ != nullptr) observer_->on_drop(m, "adversary");
  }

  /// Adversarially duplicates the in-flight message at `index`: a copy
  /// with the SAME seq joins the multiset.
  void duplicate_at(std::size_t index) {
    RLT_CHECK(index < in_flight_.size());
    ++duplicated_;
    bytes_sent_ += wire_bytes(in_flight_[index]);
    if (observer_ != nullptr) observer_->on_duplicate(in_flight_[index]);
    in_flight_.push_back(in_flight_[index]);
  }

  /// Delivers one uniformly random in-flight message; false if none.
  bool deliver_random(util::Rng& rng) {
    if (in_flight_.empty()) return false;
    deliver_at(static_cast<std::size_t>(rng.uniform(in_flight_.size())));
    return true;
  }

  /// Crashes a node (permanently, unless recover() is called).  Crashing
  /// a crashed node (a scheduled send-crash can hit one) changes nothing
  /// but still notifies the observer.
  void crash(NodeId n) {
    RLT_CHECK(valid(n));
    if (!crashed_[static_cast<std::size_t>(n)]) {
      crashed_[static_cast<std::size_t>(n)] = true;
      ++crashed_count_;
    }
    if (observer_ != nullptr) observer_->on_crash(n);
  }

  /// Schedules a crash to fire when the send-attempt counter reaches
  /// `at_attempt` (1-based), i.e. immediately BEFORE that send enqueues
  /// — this is how a crash lands mid-broadcast.  Call before the run
  /// starts; attempts must be scheduled in nondecreasing order.
  void schedule_crash_at_send(NodeId n, std::uint64_t at_attempt) {
    RLT_CHECK(valid(n) && at_attempt > 0);
    RLT_CHECK(send_crashes_.empty() ||
              send_crashes_.back().first <= at_attempt);
    send_crashes_.emplace_back(at_attempt, n);
  }

  /// Recovers a crashed node: it hears future deliveries and its sends
  /// flow again.  Volatile protocol state is the node's business (see
  /// AbdRegister::on_recover); the network only flips liveness.
  void recover(NodeId n) {
    RLT_CHECK(valid(n));
    RLT_CHECK(crashed_[static_cast<std::size_t>(n)]);
    crashed_[static_cast<std::size_t>(n)] = false;
    --crashed_count_;
    if (observer_ != nullptr) observer_->on_recover(n);
  }

  [[nodiscard]] bool crashed(NodeId n) const {
    RLT_CHECK(valid(n));
    return crashed_[static_cast<std::size_t>(n)];
  }
  [[nodiscard]] int crashed_count() const noexcept { return crashed_count_; }
  /// Nodes still alive — the population quorum-based protocols can draw
  /// replies from (crashed nodes consume requests without answering).
  [[nodiscard]] int live_count() const noexcept {
    return node_count() - crashed_count();
  }

 private:
  [[nodiscard]] bool valid(NodeId n) const noexcept {
    return n >= 0 && n < node_count();
  }

  [[nodiscard]] static std::uint64_t wire_bytes(const Message& m) noexcept {
    return 8 * (4 + m.payload.size());  // from, to, type, seq + payload
  }

  [[nodiscard]] bool cut(NodeId from, NodeId to) const {
    return partitioned_ && side_[static_cast<std::size_t>(from)] !=
                               side_[static_cast<std::size_t>(to)];
  }

  /// Removes the message at `index`, keeping the rest in send order (a
  /// memmove: Message is trivially copyable).
  Message take_at(std::size_t index) {
    RLT_CHECK(index < in_flight_.size());
    const Message m = in_flight_[index];
    in_flight_.erase(in_flight_.begin() +
                     static_cast<std::ptrdiff_t>(index));
    return m;
  }

  std::vector<Node*> nodes_;
  NetObserver* observer_ = nullptr;
  std::vector<bool> crashed_;
  int crashed_count_ = 0;
  std::vector<std::uint8_t> side_;
  std::vector<Message> in_flight_;
  std::vector<std::pair<std::uint64_t, NodeId>> send_crashes_;
  std::size_t next_send_crash_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t send_attempts_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint32_t drop_permille_ = 0;
  std::uint32_t dup_permille_ = 0;
  bool unreliable_ = false;
  bool partitioned_ = false;
  util::Rng fabric_rng_{0};
};

}  // namespace rlt::mp
