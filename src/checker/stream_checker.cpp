#include "checker/stream_checker.hpp"

#include <sstream>
#include <utility>

#include "util/assert.hpp"

namespace rlt::checker {

using history::Event;
using history::OpRecord;
using history::ProcessId;
using history::RegisterId;

StreamingChecker::StreamingChecker(StreamCheckerOptions options)
    : options_(options) {
  if (options_.max_live_ops > 64) options_.max_live_ops = 64;
  if (options_.max_live_ops == 0) options_.max_live_ops = 1;
}

void StreamingChecker::set_initial(RegisterId reg, Value v) {
  RLT_CHECK_MSG(lanes_.find(reg) == lanes_.end(),
                "set_initial after events on register " << reg);
  initial_config_[reg] = v;
}

StreamingChecker::Lane& StreamingChecker::lane_for(RegisterId reg) {
  const auto it = lanes_.find(reg);
  if (it != lanes_.end()) return it->second;
  Lane& lane = lanes_.emplace(reg, Lane{LinWindow(options_.prune)})
                   .first->second;
  const auto cfg = initial_config_.find(reg);
  const Value initial = cfg != initial_config_.end() ? cfg->second : Value{0};
  lane.window.reset({&initial, 1});
  return lane;
}

void StreamingChecker::collapse(Lane& lane) {
  const std::set<Value> finals =
      lane.window.final_values(WriteOrderMode::kFree, {});
  // The per-event invariant (reads checked at response, invocations and
  // write responses cannot flip feasibility) makes an empty set
  // impossible here; treat it as the violation it would denote anyway
  // rather than poisoning the next window with an empty initial set.
  if (finals.empty()) {
    violation_event_ = static_cast<std::int64_t>(events_) - 1;
    return;
  }
  ++collapses_;
  const auto retired = static_cast<std::size_t>(lane.window.size());
  retired_ops_ += retired;
  live_ops_ -= retired;
  const std::vector<Value> initials(finals.begin(), finals.end());
  lane.window.reset(initials);
}

void StreamingChecker::fail_limit(const std::string& what) {
  if (error_.empty()) error_ = what;
}

int StreamingChecker::on_invoke(ProcessId /*process*/, RegisterId reg,
                                OpKind kind, Value value, Time now) {
  const int id = next_id_++;
  ++events_;
  if (frozen()) return id;
  if (saw_event_ && now <= last_time_) {
    std::ostringstream os;
    os << "event times not strictly increasing (t=" << now << " after t="
       << last_time_ << ")";
    fail_limit(os.str());
    return id;
  }
  last_time_ = now;
  saw_event_ = true;

  Lane& lane = lane_for(reg);
  if (static_cast<std::size_t>(lane.window.size()) >= options_.max_live_ops) {
    std::ostringstream os;
    os << "register " << reg << " live window would exceed "
       << options_.max_live_ops << " ops (no quiescent point to retire at)";
    fail_limit(os.str());
    return id;
  }
  const int window_id =
      lane.window.invoke(kind == OpKind::kWrite, value, now);
  open_ops_[id] = OpenRef{reg, window_id};
  ++lane.open;
  ++live_ops_;
  if (live_ops_ > peak_live_ops_) peak_live_ops_ = live_ops_;
  // Invocations never flip feasibility: a pending read is never placed,
  // a pending write merely becomes an optional candidate.  No solve.
  return id;
}

void StreamingChecker::on_response(int id, Value result, Time now) {
  ++events_;
  if (frozen()) return;
  const auto ref_it = open_ops_.find(id);
  if (ref_it == open_ops_.end()) {
    std::ostringstream os;
    os << "response for unknown or already-responded op id " << id;
    fail_limit(os.str());
    return;
  }
  if (saw_event_ && now <= last_time_) {
    std::ostringstream os;
    os << "event times not strictly increasing (t=" << now << " after t="
       << last_time_ << ")";
    fail_limit(os.str());
    return;
  }
  last_time_ = now;

  const OpenRef ref = ref_it->second;
  open_ops_.erase(ref_it);
  Lane& lane = lanes_.at(ref.reg);
  lane.window.respond(ref.window_id, result, now);
  --lane.open;

  // Only a read response can make a feasible window infeasible: the
  // response is the latest event in the window, so a newly completed
  // write appends to any existing witness unchanged.
  if (!lane.window.is_write(ref.window_id)) {
    ++solver_calls_;
    if (!lane.window.feasible(WriteOrderMode::kFree, {})) {
      violation_event_ = static_cast<std::int64_t>(events_) - 1;
      return;
    }
  }
  // Quiescent point: every window op precedes every future op on this
  // register — retire the window behind the frontier.
  if (lane.open == 0) collapse(lane);
}

StreamingChecker check_stream(const History& h, StreamCheckerOptions options) {
  StreamingChecker checker(options);
  for (const RegisterId reg : h.registers()) {
    checker.set_initial(reg, h.initial(reg));
  }
  // Stream ids are handed out in invocation order; history op ids are
  // dense but not time-ordered, so map between the two.
  std::vector<int> stream_id(h.size(), -1);
  for (const Event& ev : h.events()) {
    const OpRecord& op = h.op(ev.op_id);
    if (ev.kind == Event::Kind::kInvoke) {
      stream_id[static_cast<std::size_t>(ev.op_id)] =
          checker.on_invoke(op.process, op.reg, op.kind, op.value, ev.time);
    } else {
      checker.on_response(stream_id[static_cast<std::size_t>(ev.op_id)],
                          op.value, ev.time);
    }
  }
  return checker;
}

}  // namespace rlt::checker
