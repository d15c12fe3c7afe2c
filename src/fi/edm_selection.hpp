// EDM subset selection (the [18] idea the paper's related work describes:
// "coverage and latency estimates for a given set of EDM's to form subsets
// which minimised overlapping between different EDM's, thereby giving the
// best cost-performance ratio").
//
// Given candidate detectors and, for each, the set of campaign errors it
// detects, pick a subset that maximises covered errors per unit cost.
// Weighted set cover is NP-hard; the standard greedy algorithm (pick the
// candidate with the best newly-covered-per-cost ratio) carries the
// classic ln(n) approximation guarantee and is what [18]-style tooling
// uses in practice.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace propane::fi {

/// One candidate detector with its detection set over a campaign.
struct CandidateEdm {
  std::string name;
  /// Relative deployment cost (code size, runtime, review effort...).
  double cost = 1.0;
  /// detects[e] == true when this candidate detected campaign error e.
  std::vector<bool> detects;
};

struct SelectionStep {
  std::size_t candidate = 0;  ///< index into the candidate list
  std::size_t newly_covered = 0;
  double cumulative_cost = 0.0;
  double cumulative_coverage = 0.0;  ///< fraction of all errors covered
};

struct SelectionResult {
  /// Greedy pick order with the running coverage/cost after each pick.
  std::vector<SelectionStep> steps;
  std::size_t covered = 0;
  std::size_t total_errors = 0;

  double coverage() const {
    return total_errors == 0 ? 0.0
                             : static_cast<double>(covered) /
                                   static_cast<double>(total_errors);
  }
};

/// Greedy weighted set cover. `error_count` is the universe size; every
/// candidate's detection vector must have exactly that many entries.
/// Candidates with no marginal gain are never picked, so selection stops
/// once no candidate covers a new error.
SelectionResult select_edms_greedy(const std::vector<CandidateEdm>& candidates,
                                   std::size_t error_count);

}  // namespace propane::fi
