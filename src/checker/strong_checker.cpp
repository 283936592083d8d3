#include "checker/strong_checker.hpp"

#include <sstream>
#include <string_view>
#include <utility>

#include "checker/tree_common.hpp"
#include "history/view.hpp"

namespace rlt::checker {

namespace {

using detail::OpKey;
using detail::PreparedRun;
using history::HistoryView;

/// Is `committed` a legal value of f(G) for the prefix of `run` up to
/// time `t`?  f(G) must contain all completed ops of G, only invoked ops,
/// respect real time, and satisfy register semantics with completed reads
/// returning their actual values.  Validates against a zero-copy prefix
/// view; ids below are base-history ids.  On failure the reason goes to
/// `why` when it is non-null.
bool valid(const PreparedRun& run, Time t, Value initial,
           const std::vector<OpKey>& committed, std::string* why) {
  const auto fail = [why](const std::string& reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  const HistoryView view(*run.h, t);

  std::vector<int> order;
  order.reserve(committed.size());
  for (const OpKey& key : committed) {
    const int id = run.id_of(key);
    if (id < 0 || !view.included(id)) {
      std::ostringstream os;
      os << "committed op " << key << " not invoked in prefix";
      return fail(os.str());
    }
    order.push_back(id);
  }
  // All completed ops present?
  {
    std::vector<bool> present(view.base_size(), false);
    for (const int id : order) present[static_cast<std::size_t>(id)] = true;
    for (int id = 0; id < static_cast<int>(view.base_size()); ++id) {
      if (view.completed(id) && !present[static_cast<std::size_t>(id)]) {
        std::ostringstream os;
        os << "completed op" << id << " missing from committed order";
        return fail(os.str());
      }
    }
  }
  // Real-time precedence.
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (std::size_t j = i + 1; j < order.size(); ++j) {
      if (view.precedes(order[j], order[i])) {
        std::ostringstream os;
        os << "real-time violation between op" << order[j] << " and op"
           << order[i];
        return fail(os.str());
      }
    }
  }
  // Register semantics; completed reads must match, pending reads take
  // their invented (position-determined) value.
  Value value = initial;
  for (const int id : order) {
    if (view.is_write(id)) {
      value = view.value(id);
    } else if (view.completed(id) && view.value(id) != value) {
      std::ostringstream os;
      os << "read op" << id << " returned " << view.value(id)
         << " but committed position implies " << value;
      return fail(os.str());
    }
  }
  return true;
}

/// Definition 3's probe for detail::TreeSearch: every invoked op may be
/// committed, and the committed sequence itself must be a valid f(G).
struct StrongProbe {
  static constexpr std::string_view kFunction = "strong linearization";
  static constexpr std::string_view kCandidates = "ops";
  static constexpr std::string_view kHolds = "valid";
  static constexpr std::string_view kFails = "invalid";

  static bool candidate(const OpRecord& /*op*/) { return true; }

  static bool holds(const PreparedRun& run, Time t, Value initial,
                    const std::vector<OpKey>& committed) {
    return valid(run, t, initial, committed, nullptr);
  }

  static std::string why_not(const PreparedRun& run, std::size_t /*nevents*/,
                             Time t, Value initial,
                             const std::vector<OpKey>& committed) {
    std::string why;
    (void)valid(run, t, initial, committed, &why);
    return why;
  }
};

}  // namespace

StrongCheckResult check_strong_linearizable(const std::vector<History>& runs) {
  detail::TreeOutcome tree =
      detail::check_tree<StrongProbe>(runs, /*memoize=*/true);
  StrongCheckResult result;
  result.ok = tree.ok;
  result.orders = std::move(tree.orders);
  result.explanation = std::move(tree.explanation);
  return result;
}

StrongCheckResult check_strong_linearizable(const History& run) {
  return check_strong_linearizable(std::vector<History>{run});
}

}  // namespace rlt::checker
