// Write strongly-linearizable register semantics (see regmodel.hpp).
//
// Operational form of Definition 4: the register maintains an append-only
// *committed write sequence*.  Whenever a write responds it must already
// be committed — so the response choices for a write enumerate the
// ordered selections of uncommitted writes (containing the responding
// one) that can be appended while a legal linearization with EXACTLY that
// write order still exists.  A read may return the value of an
// uncommitted pending write, but doing so forces that write (and any
// predecessors the adversary chooses) to be committed at the read's
// response.
//
// The crux of Lemma 19 becomes mechanical here: when p0's write of [0,j]
// responds BEFORE the coin flip, the adversary must choose the relative
// order of the concurrent write [1,j] now; it cannot retroactively pick
// the order after seeing the coin.
#include <algorithm>
#include <functional>
#include <set>
#include <sstream>

#include "sim/regmodel.hpp"
#include "util/assert.hpp"

namespace rlt::sim {

namespace {

class WslModel final : public WindowedModel {
 public:
  std::vector<ResponseChoice> response_choices(int op_id, Time now) override {
    const int wid = window_id_of(op_id);
    std::vector<ResponseChoice> choices;

    if (window().is_write(wid)) {
      const Value written = window().value(wid);
      if (is_committed(wid)) {
        // Already committed (a read returned this write's value earlier
        // and forced the commitment).  Responding decides nothing more.
        RLT_CHECK_MSG(
            feasible_with_completion(wid, written, now,
                                     checker::WriteOrderMode::kExact,
                                     committed_),
            "WSL model: committed write response infeasible — bug");
        choices.push_back(ResponseChoice{written, {}});
        return choices;
      }
      // Enumerate ordered selections of uncommitted writes containing the
      // responding write; each selection is a candidate commitment batch.
      std::vector<int> exact;
      for_each_selection(uncommitted_writes(), [&](const std::vector<int>& s) {
        if (std::find(s.begin(), s.end(), wid) == s.end()) return;
        extend_committed(s, exact);
        if (!feasible_with_completion(wid, written, now,
                                      checker::WriteOrderMode::kExact,
                                      exact)) {
          return;
        }
        choices.push_back(ResponseChoice{written, to_global(s)});
      });
      RLT_CHECK_MSG(!choices.empty(),
                    "WSL model: write has no feasible commitment — bug");
      return choices;
    }

    // Reads: (value, commitment extension) pairs.  The empty extension is
    // considered too (value determined by already-committed writes).
    const std::set<Value> candidates = read_candidates();
    std::vector<int> exact;
    const auto try_selection = [&](const std::vector<int>& s) {
      extend_committed(s, exact);
      for (const Value v : candidates) {
        if (feasible_with_completion(wid, v, now,
                                     checker::WriteOrderMode::kExact,
                                     exact)) {
          choices.push_back(ResponseChoice{v, to_global(s)});
        }
      }
    };
    try_selection({});
    for_each_selection(uncommitted_writes(), try_selection);
    RLT_CHECK_MSG(!choices.empty(),
                  "WSL model: read has no feasible response — bug");
    return choices;
  }

  [[nodiscard]] std::string describe() const override {
    std::ostringstream os;
    os << "wsl{window=" << window().size() << " ops, committed=[";
    for (std::size_t i = 0; i < committed_.size(); ++i) {
      os << (i == 0 ? "" : ",") << 'w' << global_id_of(committed_[i]);
    }
    os << "], pre-window in {";
    for (std::size_t i = 0; i < initial_values().size(); ++i) {
      os << (i == 0 ? "" : ",") << initial_values()[i];
    }
    os << "}}";
    return os.str();
  }

 protected:
  void apply_choice(int /*window_id*/, const ResponseChoice& choice) override {
    for (const int global : choice.commit_extension) {
      const int wid = window_id_of(global);
      RLT_CHECK_MSG(window().is_write(wid), "cannot commit a read");
      RLT_CHECK_MSG(!is_committed(wid), "write committed twice");
      committed_.push_back(wid);
    }
  }

  std::vector<Value> collapse_hook() override {
    // At quiescence every write has responded, hence is committed.
    std::size_t write_count = 0;
    for (int id = 0; id < window().size(); ++id) {
      if (window().is_write(id)) ++write_count;
    }
    RLT_CHECK_MSG(write_count == committed_.size(),
                  "quiescent WSL register with uncommitted writes — bug");
    RLT_CHECK_MSG(initial_values().size() == 1,
                  "WSL pre-window value must be determined");
    const Value final_value = committed_.empty()
                                  ? initial_values().front()
                                  : window().value(committed_.back());
    committed_.clear();
    return {final_value};
  }

 private:
  [[nodiscard]] bool is_committed(int wid) const {
    return std::find(committed_.begin(), committed_.end(), wid) !=
           committed_.end();
  }

  [[nodiscard]] std::vector<int> uncommitted_writes() const {
    std::vector<int> out;
    for (int id = 0; id < window().size(); ++id) {
      if (window().is_write(id) && !is_committed(id)) out.push_back(id);
    }
    return out;
  }

  /// exact := the committed order followed by `selection` (reuses
  /// `exact`'s buffer across the menu's probes).
  void extend_committed(const std::vector<int>& selection,
                        std::vector<int>& exact) const {
    exact.assign(committed_.begin(), committed_.end());
    exact.insert(exact.end(), selection.begin(), selection.end());
  }

  [[nodiscard]] std::vector<int> to_global(const std::vector<int>& wids) const {
    std::vector<int> out;
    out.reserve(wids.size());
    for (const int wid : wids) out.push_back(global_id_of(wid));
    return out;
  }

  /// Enumerates every non-empty ordered selection of `candidates`.
  /// Statically dispatched: this is the factorial part of the menu build.
  template <typename Fn>
  static void for_each_selection(const std::vector<int>& candidates,
                                 const Fn& fn) {
    std::vector<int> current;
    current.reserve(candidates.size());
    std::uint64_t used = 0;
    const auto rec = [&](const auto& self) -> void {
      if (!current.empty()) fn(current);
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        if ((used & (1ULL << i)) != 0) continue;
        used |= 1ULL << i;
        current.push_back(candidates[i]);
        self(self);
        current.pop_back();
        used &= ~(1ULL << i);
      }
    };
    rec(rec);
  }

  std::vector<int> committed_;  ///< window ids, committed order
};

}  // namespace

std::unique_ptr<RegisterModel> make_wsl_model(Value initial) {
  auto model = std::make_unique<WslModel>();
  model->set_initial(initial);
  return model;
}

}  // namespace rlt::sim
