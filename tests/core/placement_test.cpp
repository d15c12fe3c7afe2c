#include "core/placement.hpp"

#include <gtest/gtest.h>

#include "core/backtrack_tree.hpp"
#include "core/example_system.hpp"
#include "core/trace_tree.hpp"

namespace propane::core {
namespace {

class PlacementTest : public ::testing::Test {
 protected:
  PlacementTest()
      : graph_(model_, perm_),
        backtrack_(build_all_backtrack_trees(model_, perm_)),
        trace_(build_all_trace_trees(model_, perm_)) {}

  PlacementAdvice advise() {
    return advise_placement(model_, perm_, graph_, backtrack_, trace_);
  }

  SystemModel model_ = make_example_system();
  SystemPermeability perm_ = make_example_permeability(model_);
  PermeabilityGraph graph_;
  std::vector<PropagationTree> backtrack_;
  std::vector<PropagationTree> trace_;
};

TEST_F(PlacementTest, EdmModulesRankedByNonweightedExposure) {
  const auto advice = advise();
  // Exposure sums: B=2.0, E=1.25, D=0.8; A and C have none (external only).
  ASSERT_EQ(advice.edm_modules.size(), 3u);
  EXPECT_EQ(advice.edm_modules[0].target_name, "B");
  EXPECT_EQ(advice.edm_modules[1].target_name, "E");
  EXPECT_EQ(advice.edm_modules[2].target_name, "D");
  EXPECT_DOUBLE_EQ(advice.edm_modules[0].score, 2.0);
  EXPECT_EQ(advice.edm_modules[0].mechanism, MechanismKind::kErrorDetection);
  EXPECT_EQ(advice.edm_modules[0].rationale,
            Rationale::kHighModuleExposure);
}

TEST_F(PlacementTest, ExternallyFedModulesNeverEdmCandidates) {
  const auto advice = advise();
  for (const Recommendation& rec : advice.edm_modules) {
    EXPECT_NE(rec.target_name, "A");
    EXPECT_NE(rec.target_name, "C");
  }
}

TEST_F(PlacementTest, EdmSignalsRankedBySignalExposure) {
  const auto advice = advise();
  ASSERT_FALSE(advice.edm_signals.empty());
  EXPECT_EQ(advice.edm_signals[0].target_name, "oe1");  // X^S = 1.5
  EXPECT_DOUBLE_EQ(advice.edm_signals[0].score, 1.5);
  // System inputs are not signal EDM candidates.
  for (const Recommendation& rec : advice.edm_signals) {
    EXPECT_EQ(rec.signal.kind, SourceKind::kModuleOutput);
  }
}

TEST_F(PlacementTest, ErmModulesRankedByNonweightedPermeability) {
  const auto advice = advise();
  ASSERT_EQ(advice.erm_modules.size(), model_.module_count());
  // Sums: B=2.0, E=1.5, A=0.9, D=0.8, C=0.7.
  EXPECT_EQ(advice.erm_modules[0].target_name, "B");
  EXPECT_EQ(advice.erm_modules[1].target_name, "E");
  EXPECT_EQ(advice.erm_modules[2].target_name, "A");
  EXPECT_EQ(advice.erm_modules[3].target_name, "D");
  EXPECT_EQ(advice.erm_modules[4].target_name, "C");
  EXPECT_EQ(advice.erm_modules[0].mechanism, MechanismKind::kErrorRecovery);
}

TEST_F(PlacementTest, CutSignalsAreOnEveryNonzeroPath) {
  const auto advice = advise();
  // In the example, oe1 is excluded (system output register); no other
  // signal lies on all 7 non-zero paths (e3's path bypasses everything).
  EXPECT_TRUE(advice.cut_signals.empty());
}

TEST_F(PlacementTest, CutSignalFoundInChainSystem) {
  // in -> A -> B -> C -> out: B's signal lies on every path.
  SystemModelBuilder builder;
  builder.add_module("A", {"i"}, {"o"});
  builder.add_module("B", {"i"}, {"o"});
  builder.add_module("C", {"i"}, {"o"});
  builder.add_system_input("in");
  builder.connect_system_input("in", "A", "i");
  builder.connect("A", "o", "B", "i");
  builder.connect("B", "o", "C", "i");
  builder.add_system_output("out", "C", "o");
  const SystemModel model = std::move(builder).build();
  SystemPermeability p(model);
  p.set(model, "A", "i", "o", 0.5);
  p.set(model, "B", "i", "o", 0.5);
  p.set(model, "C", "i", "o", 0.5);
  const PermeabilityGraph graph(model, p);
  const auto backtrack = build_all_backtrack_trees(model, p);
  const auto trace = build_all_trace_trees(model, p);
  const auto advice = advise_placement(model, p, graph, backtrack, trace);
  ASSERT_EQ(advice.cut_signals.size(), 2u);  // A.o and B.o
  EXPECT_EQ(advice.cut_signals[0].rationale, Rationale::kOnAllNonzeroPaths);
}

TEST_F(PlacementTest, BarrierModulesAreExternallyFedOnly) {
  const auto advice = advise();
  ASSERT_EQ(advice.barrier_modules.size(), 2u);  // A and C
  EXPECT_EQ(advice.barrier_modules[0].target_name, "A");
  EXPECT_EQ(advice.barrier_modules[1].target_name, "C");
  EXPECT_EQ(advice.barrier_modules[0].rationale, Rationale::kInputBarrier);
}

TEST_F(PlacementTest, InputReachRanksSignalsByTracePrefixWeight) {
  const auto advice = advise();
  ASSERT_FALSE(advice.input_reach_signals.empty());
  // oa1 is reached from IA1 with probability 0.9 -- the strongest reach.
  EXPECT_EQ(advice.input_reach_signals[0].target_name, "oa1");
  EXPECT_DOUBLE_EQ(advice.input_reach_signals[0].score, 0.9);
  // The system output oe1 is excluded from this list.
  for (const Recommendation& rec : advice.input_reach_signals) {
    EXPECT_NE(rec.target_name, "oe1");
  }
}

TEST_F(PlacementTest, ExclusionsFlagSystemOutputRegisters) {
  const auto advice = advise();
  bool oe1_excluded = false;
  for (const Exclusion& ex : advice.exclusions) {
    if (ex.name == "oe1") {
      oe1_excluded = true;
      EXPECT_NE(ex.reason.find("hardware register"), std::string::npos);
    }
  }
  EXPECT_TRUE(oe1_excluded);
}

TEST_F(PlacementTest, ExclusionsFlagIndependentSignals) {
  // Make oc1 independent: C passes nothing through.
  SystemPermeability perm = make_example_permeability(model_);
  perm.set(model_, "C", "c1", "oc1", 0.0);
  const PermeabilityGraph graph(model_, perm);
  const auto backtrack = build_all_backtrack_trees(model_, perm);
  const auto trace = build_all_trace_trees(model_, perm);
  const auto advice =
      advise_placement(model_, perm, graph, backtrack, trace);
  bool oc1_excluded = false;
  for (const Exclusion& ex : advice.exclusions) {
    if (ex.name == "oc1") {
      oc1_excluded = true;
      EXPECT_NE(ex.reason.find("independent"), std::string::npos);
    }
  }
  EXPECT_TRUE(oc1_excluded);
}

TEST_F(PlacementTest, ToStringCoversAllEnumerators) {
  EXPECT_STREQ(to_string(MechanismKind::kErrorDetection), "EDM");
  EXPECT_STREQ(to_string(MechanismKind::kErrorRecovery), "ERM");
  EXPECT_STRNE(to_string(Rationale::kHighModuleExposure), "?");
  EXPECT_STRNE(to_string(Rationale::kHighSignalExposure), "?");
  EXPECT_STRNE(to_string(Rationale::kOnAllNonzeroPaths), "?");
  EXPECT_STRNE(to_string(Rationale::kHighPermeability), "?");
  EXPECT_STRNE(to_string(Rationale::kInputBarrier), "?");
  EXPECT_STRNE(to_string(Rationale::kMostReachedFromInputs), "?");
}

}  // namespace
}  // namespace propane::core
