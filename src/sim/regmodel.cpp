#include "sim/regmodel.hpp"

#include <algorithm>
#include <sstream>

#include "util/assert.hpp"

namespace rlt::sim {

void WindowedModel::set_initial(Value v) {
  RLT_CHECK_MSG(window_.empty(), "set_initial after operations began");
  window_.reset({&v, 1});
}

std::optional<Value> WindowedModel::on_invoke(int op_id, ProcessId p,
                                              OpKind kind, Value value,
                                              Time now) {
  const int wid = window_.invoke(kind == OpKind::kWrite, value, now);
  RLT_CHECK_MSG(wid == static_cast<int>(window_to_global_.size()),
                "window id bookkeeping out of sync");
  window_to_global_.push_back(op_id);

  PendingOpInfo info;
  info.op_id = op_id;
  info.process = p;
  info.kind = kind;
  info.value = value;
  info.invoked = now;
  pending_.push_back(info);
  return std::nullopt;
}

Value WindowedModel::on_respond(int op_id, const ResponseChoice& choice,
                                Time now) {
  const int wid = window_id_of(op_id);
  apply_choice(wid, choice);
  window_.respond(wid, choice.value, now);
  const auto it =
      std::find_if(pending_.begin(), pending_.end(),
                   [op_id](const PendingOpInfo& p) { return p.op_id == op_id; });
  RLT_CHECK_MSG(it != pending_.end(), "responding to unknown op " << op_id);
  pending_.erase(it);
  return window_.value(wid);
}

const std::vector<PendingOpInfo>& WindowedModel::pending() const {
  return pending_;
}

void WindowedModel::maybe_collapse() {
  if (!pending_.empty() || window_.empty()) return;
  window_.reset(collapse_hook());
  window_to_global_.clear();
}

int WindowedModel::window_id_of(int global_op_id) const {
  for (std::size_t i = 0; i < window_to_global_.size(); ++i) {
    if (window_to_global_[i] == global_op_id) return static_cast<int>(i);
  }
  RLT_CHECK_MSG(false, "op " << global_op_id << " not in window");
  return -1;
}

int WindowedModel::global_id_of(int window_id) const {
  RLT_CHECK(window_id >= 0 &&
            window_id < static_cast<int>(window_to_global_.size()));
  return window_to_global_[static_cast<std::size_t>(window_id)];
}

std::set<Value> WindowedModel::read_candidates() const {
  std::set<Value> out(initial_values().begin(), initial_values().end());
  for (int id = 0; id < window_.size(); ++id) {
    if (window_.is_write(id)) out.insert(window_.value(id));
  }
  return out;
}

bool WindowedModel::feasible_with_completion(
    int window_id, Value read_value, Time now, checker::WriteOrderMode mode,
    std::span<const int> exact_window_order) const {
  // What-if probe via the solver's completion overlay: no window copy.
  const checker::LinWindow::Completion completion{window_id, read_value, now};
  return window_.feasible(mode, exact_window_order, &completion);
}

std::optional<Value> AtomicModel::on_invoke(int /*op_id*/, ProcessId /*p*/,
                                            OpKind kind, Value value,
                                            Time /*now*/) {
  if (kind == OpKind::kWrite) {
    value_ = value;
    return value;
  }
  return value_;
}

Value AtomicModel::on_respond(int, const ResponseChoice&, Time) {
  RLT_CHECK_MSG(false, "atomic registers have no pending operations");
  return 0;
}

std::string AtomicModel::describe() const {
  std::ostringstream os;
  os << "atomic{value=" << value_ << '}';
  return os.str();
}

const char* to_string(Semantics s) noexcept {
  switch (s) {
    case Semantics::kAtomic:
      return "atomic";
    case Semantics::kLinearizable:
      return "linearizable";
    case Semantics::kWriteStrong:
      return "write-strongly-linearizable";
  }
  return "?";
}

std::unique_ptr<RegisterModel> make_atomic_model(Value initial) {
  auto model = std::make_unique<AtomicModel>();
  model->set_initial(initial);
  return model;
}

std::unique_ptr<RegisterModel> make_model(Semantics s, Value initial) {
  switch (s) {
    case Semantics::kAtomic:
      return make_atomic_model(initial);
    case Semantics::kLinearizable:
      return make_linearizable_model(initial);
    case Semantics::kWriteStrong:
      return make_wsl_model(initial);
  }
  RLT_CHECK_MSG(false, "unknown semantics");
  return nullptr;
}

}  // namespace rlt::sim
