#include "fi/edm_selection.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace propane::fi {

SelectionResult select_edms_greedy(
    const std::vector<CandidateEdm>& candidates, std::size_t error_count) {
  for (const CandidateEdm& candidate : candidates) {
    PROPANE_REQUIRE_MSG(candidate.detects.size() == error_count,
                        "detection vector size must equal error_count");
    PROPANE_REQUIRE_MSG(candidate.cost > 0.0,
                        "candidate cost must be positive");
  }

  SelectionResult result;
  result.total_errors = error_count;
  std::vector<bool> covered(error_count, false);
  std::vector<bool> used(candidates.size(), false);
  double spent = 0.0;

  for (;;) {
    // Best marginal gain per cost.
    std::size_t best = candidates.size();
    std::size_t best_gain = 0;
    double best_ratio = 0.0;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (used[c]) continue;
      std::size_t gain = 0;
      for (std::size_t e = 0; e < error_count; ++e) {
        if (!covered[e] && candidates[c].detects[e]) ++gain;
      }
      const double ratio = static_cast<double>(gain) / candidates[c].cost;
      if (gain > 0 && (best == candidates.size() || ratio > best_ratio)) {
        best = c;
        best_gain = gain;
        best_ratio = ratio;
      }
    }
    if (best == candidates.size()) break;  // no candidate adds coverage

    used[best] = true;
    spent += candidates[best].cost;
    for (std::size_t e = 0; e < error_count; ++e) {
      if (candidates[best].detects[e]) covered[e] = true;
    }
    result.covered = static_cast<std::size_t>(
        std::count(covered.begin(), covered.end(), true));
    result.steps.push_back(SelectionStep{best, best_gain, spent,
                                         result.coverage()});
  }
  return result;
}

}  // namespace propane::fi
