#include "core/exposure.hpp"

#include <gtest/gtest.h>

#include "core/backtrack_tree.hpp"
#include "core/example_system.hpp"

namespace propane::core {
namespace {

class ExposureTest : public ::testing::Test {
 protected:
  double exposure_of(const std::vector<SignalExposure>& exposures,
                     const std::string& name) {
    for (const SignalExposure& e : exposures) {
      if (e.name == name) return e.exposure;
    }
    ADD_FAILURE() << "signal not found: " << name;
    return -1.0;
  }

  SystemModel model_ = make_example_system();
  SystemPermeability perm_ = make_example_permeability(model_);
  std::vector<PropagationTree> trees_ =
      build_all_backtrack_trees(model_, perm_);
};

TEST_F(ExposureTest, HandComputedSignalExposures) {
  const auto exposures = signal_error_exposures(model_, trees_);
  EXPECT_DOUBLE_EQ(exposure_of(exposures, "oe1"), 1.5);   // 0.75+0.5+0.25
  EXPECT_DOUBLE_EQ(exposure_of(exposures, "ob2"), 1.2);   // 0.8+0.4
  EXPECT_DOUBLE_EQ(exposure_of(exposures, "ob1"), 0.8);   // 0.5+0.3 deduped
  EXPECT_DOUBLE_EQ(exposure_of(exposures, "oa1"), 0.9);   // deduped x3
  EXPECT_DOUBLE_EQ(exposure_of(exposures, "od1"), 0.8);   // 0.6+0.2
  EXPECT_DOUBLE_EQ(exposure_of(exposures, "oc1"), 0.7);
}

TEST_F(ExposureTest, SystemInputsHaveZeroExposure) {
  const auto exposures = signal_error_exposures(model_, trees_);
  EXPECT_DOUBLE_EQ(exposure_of(exposures, "IA1"), 0.0);
  EXPECT_DOUBLE_EQ(exposure_of(exposures, "IC1"), 0.0);
  EXPECT_DOUBLE_EQ(exposure_of(exposures, "IE3"), 0.0);
}

TEST_F(ExposureTest, ArcSetSizesMatchUniqueArcs) {
  const auto exposures = signal_error_exposures(model_, trees_);
  for (const SignalExposure& e : exposures) {
    if (e.name == "ob1") {
      // ob1 appears at two places in the tree; its arc set still has
      // exactly the two pairs (b1->ob1) and (b2->ob1).
      EXPECT_EQ(e.arc_count, 2u);
      EXPECT_TRUE(e.in_trees);
    }
    if (e.name == "oa1") {
      EXPECT_EQ(e.arc_count, 1u);
    }
  }
}

TEST_F(ExposureTest, SignalAbsentFromTreesIsMarked) {
  // A's output "spare" feeds no module and no system output, so no
  // backtrack tree ever reaches it, however permeable A is.
  SystemModelBuilder builder;
  builder.add_module("A", {"a"}, {"oa", "spare"});
  builder.add_module("B", {"b"}, {"ob"});
  builder.add_system_input("x");
  builder.connect_system_input("x", "A", "a");
  builder.connect("A", "oa", "B", "b");
  builder.add_system_output("out", "B", "ob");
  const SystemModel model = std::move(builder).build();
  SystemPermeability perm(model);
  perm.set(model, "A", "a", "oa", 0.5);
  perm.set(model, "A", "a", "spare", 0.9);
  perm.set(model, "B", "b", "ob", 0.5);
  const auto trees = build_all_backtrack_trees(model, perm);
  const auto exposures = signal_error_exposures(model, trees);
  bool saw_spare = false;
  for (const SignalExposure& e : exposures) {
    if (e.name == "spare") {
      saw_spare = true;
      EXPECT_FALSE(e.in_trees);
      EXPECT_DOUBLE_EQ(e.exposure, 0.0);
    }
    if (e.name == "oa" || e.name == "ob") {
      EXPECT_TRUE(e.in_trees) << e.name;
    }
  }
  EXPECT_TRUE(saw_spare);
}

TEST_F(ExposureTest, SortExposuresIsDescending) {
  auto exposures = signal_error_exposures(model_, trees_);
  sort_exposures(exposures);
  for (std::size_t i = 1; i < exposures.size(); ++i) {
    EXPECT_GE(exposures[i - 1].exposure, exposures[i].exposure);
  }
  EXPECT_EQ(exposures.front().name, "oe1");
}

TEST_F(ExposureTest, ExposureCountsEachArcOnceAcrossMultipleTrees) {
  // Add a second system output fed by B.ob2 so two backtrack trees both
  // contain B's arcs; dedup must still count each pair once.
  SystemModelBuilder builder;
  builder.add_module("A", {"a1"}, {"oa1"});
  builder.add_module("B", {"b1"}, {"ob1"});
  builder.add_system_input("in");
  builder.connect_system_input("in", "A", "a1");
  builder.connect("A", "oa1", "B", "b1");
  builder.add_system_output("out1", "B", "ob1");
  builder.add_system_output("out2", "B", "ob1");
  const SystemModel model = std::move(builder).build();
  SystemPermeability p(model);
  p.set(model, "A", "a1", "oa1", 0.9);
  p.set(model, "B", "b1", "ob1", 0.5);
  const auto trees = build_all_backtrack_trees(model, p);
  ASSERT_EQ(trees.size(), 2u);
  const auto exposures = signal_error_exposures(model, trees);
  EXPECT_DOUBLE_EQ(exposure_of(exposures, "ob1"), 0.5);
  EXPECT_DOUBLE_EQ(exposure_of(exposures, "oa1"), 0.9);
}

}  // namespace
}  // namespace propane::core
