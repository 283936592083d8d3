// "Only linearizable" register semantics (see regmodel.hpp).
//
// The adversary's freedom: a pending operation responds when the
// adversary says so, and a read may return ANY value for which a legal
// linearization of the register's (windowed) history still exists.  In
// particular the relative order of concurrent writes stays undecided
// until some read forces it — the "off-line" linearization freedom that
// Theorem 6's adversary exploits after seeing the coin flip.
#include <algorithm>
#include <set>
#include <sstream>

#include "sim/regmodel.hpp"
#include "util/assert.hpp"

namespace rlt::sim {

namespace {

class LinearizableModel final : public WindowedModel {
 public:
  std::vector<ResponseChoice> response_choices(int op_id, Time now) override {
    const int wid = window_id_of(op_id);
    std::vector<ResponseChoice> choices;
    if (window().is_write(wid)) {
      // Completing a write never constrains the past: every linearization
      // of the current window remains legal when the write's interval
      // closes now (the new response time only affects operations invoked
      // later).  One choice, no decision content.
      choices.push_back(ResponseChoice{window().value(wid), {}});
      return choices;
    }
    // Reads: any value with a feasible linearization.
    for (const Value v : read_candidates()) {
      if (feasible_with_completion(wid, v, now,
                                   checker::WriteOrderMode::kFree, {})) {
        choices.push_back(ResponseChoice{v, {}});
      }
    }
    RLT_CHECK_MSG(!choices.empty(),
                  "linearizable model: read has no feasible value — bug");
    return choices;
  }

  [[nodiscard]] std::string describe() const override {
    std::ostringstream os;
    os << "linearizable{window=" << window().size() << " ops, pre-window in {";
    for (std::size_t i = 0; i < initial_values().size(); ++i) {
      os << (i == 0 ? "" : ",") << initial_values()[i];
    }
    os << "}}";
    return os.str();
  }

 protected:
  void apply_choice(int /*window_id*/,
                    const ResponseChoice& choice) override {
    RLT_CHECK_MSG(choice.commit_extension.empty(),
                  "linearizable registers have no committed write order");
  }

  std::vector<Value> collapse_hook() override {
    const std::set<Value> finals =
        window_final_values(checker::WriteOrderMode::kFree, {});
    RLT_CHECK_MSG(!finals.empty(),
                  "quiescent window has no feasible final value — bug");
    return {finals.begin(), finals.end()};
  }
};

}  // namespace

std::unique_ptr<RegisterModel> make_linearizable_model(Value initial) {
  auto model = std::make_unique<LinearizableModel>();
  model->set_initial(initial);
  return model;
}

}  // namespace rlt::sim
