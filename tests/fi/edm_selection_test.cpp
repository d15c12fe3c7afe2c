#include "fi/edm_selection.hpp"

#include <gtest/gtest.h>

#include "common/contracts.hpp"

namespace propane::fi {
namespace {

CandidateEdm candidate(std::string name, std::vector<bool> detects,
                       double cost = 1.0) {
  CandidateEdm c;
  c.name = std::move(name);
  c.cost = cost;
  c.detects = std::move(detects);
  return c;
}

TEST(EdmSelection, PicksTheSingleCoveringCandidate) {
  const std::vector<CandidateEdm> candidates = {
      candidate("a", {true, true, true}),
      candidate("b", {true, false, false}),
  };
  const auto result = select_edms_greedy(candidates, 3);
  ASSERT_EQ(result.steps.size(), 1u);
  EXPECT_EQ(result.steps[0].candidate, 0u);
  EXPECT_EQ(result.covered, 3u);
  EXPECT_DOUBLE_EQ(result.coverage(), 1.0);
}

TEST(EdmSelection, ComplementarySetsBothPicked) {
  const std::vector<CandidateEdm> candidates = {
      candidate("left", {true, true, false, false}),
      candidate("right", {false, false, true, true}),
      candidate("overlap", {false, true, true, false}),
  };
  const auto result = select_edms_greedy(candidates, 4);
  ASSERT_EQ(result.steps.size(), 2u);
  EXPECT_EQ(result.steps[0].candidate, 0u);  // ties break by order
  EXPECT_EQ(result.steps[1].candidate, 1u);  // overlap adds nothing new
  EXPECT_DOUBLE_EQ(result.coverage(), 1.0);
}

TEST(EdmSelection, CostChangesTheGreedyOrder) {
  // "wide" covers 3 errors at cost 6 (ratio 0.5); "narrow" covers 2 at
  // cost 1 (ratio 2.0): narrow goes first despite lower raw coverage.
  const std::vector<CandidateEdm> candidates = {
      candidate("wide", {true, true, true, false}, 6.0),
      candidate("narrow", {true, true, false, false}, 1.0),
  };
  const auto result = select_edms_greedy(candidates, 4);
  ASSERT_GE(result.steps.size(), 1u);
  EXPECT_EQ(result.steps[0].candidate, 1u);
}

TEST(EdmSelection, TargetCoverageStopsEarly) {
  // Full coverage is the target: once "a" covers every error, the
  // overlapping candidates add nothing and are never picked.
  const std::vector<CandidateEdm> candidates = {
      candidate("a", {true, true, true, true}),
      candidate("b", {false, false, true, false}),
      candidate("c", {true, false, false, true}),
  };
  const auto result = select_edms_greedy(candidates, 4);
  ASSERT_EQ(result.steps.size(), 1u);
  EXPECT_EQ(result.steps[0].candidate, 0u);
  EXPECT_DOUBLE_EQ(result.coverage(), 1.0);
}

TEST(EdmSelection, UselessCandidatesNeverPicked) {
  const std::vector<CandidateEdm> candidates = {
      candidate("useless", {false, false}),
      candidate("good", {true, false}),
  };
  const auto result = select_edms_greedy(candidates, 2);
  ASSERT_EQ(result.steps.size(), 1u);
  EXPECT_EQ(result.steps[0].candidate, 1u);
  EXPECT_EQ(result.covered, 1u);
  EXPECT_LT(result.coverage(), 1.0);
}

TEST(EdmSelection, EmptyUniverseAndCandidates) {
  const auto none = select_edms_greedy({}, 0);
  EXPECT_TRUE(none.steps.empty());
  EXPECT_DOUBLE_EQ(none.coverage(), 0.0);
}

TEST(EdmSelection, StepsTrackCumulativeState) {
  const std::vector<CandidateEdm> candidates = {
      candidate("a", {true, true, false, false}, 2.0),
      candidate("b", {false, false, true, false}, 1.0),
  };
  const auto result = select_edms_greedy(candidates, 4);
  ASSERT_EQ(result.steps.size(), 2u);
  EXPECT_EQ(result.steps[0].newly_covered, 2u);
  EXPECT_DOUBLE_EQ(result.steps[0].cumulative_coverage, 0.5);
  EXPECT_DOUBLE_EQ(result.steps[1].cumulative_cost, 3.0);
  EXPECT_DOUBLE_EQ(result.steps[1].cumulative_coverage, 0.75);
}

TEST(EdmSelection, ContractsOnBadInput) {
  EXPECT_THROW(select_edms_greedy({candidate("short", {true})}, 2),
               ContractViolation);
  EXPECT_THROW(
      select_edms_greedy({candidate("free", {true}, 0.0)}, 1),
      ContractViolation);
}

}  // namespace
}  // namespace propane::fi
