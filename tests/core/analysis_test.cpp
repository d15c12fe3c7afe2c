#include "core/analysis.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/example_system.hpp"

namespace propane::core {
namespace {

class AnalysisTest : public ::testing::Test {
 protected:
  SystemModel model_ = make_example_system();
  SystemPermeability perm_ = make_example_permeability(model_);
  AnalysisReport report_ = analyze(model_, perm_);
};

TEST_F(AnalysisTest, ModuleMeasuresMatchDirectComputation) {
  ASSERT_EQ(report_.modules.size(), model_.module_count());
  for (const ModuleMeasures& m : report_.modules) {
    EXPECT_DOUBLE_EQ(m.relative_permeability,
                     perm_.relative_permeability(m.module));
    EXPECT_DOUBLE_EQ(m.nonweighted_permeability,
                     perm_.nonweighted_relative_permeability(m.module));
  }
  const ModuleMeasures& b = report_.modules[*model_.find_module("B")];
  EXPECT_DOUBLE_EQ(b.nonweighted_exposure, 2.0);
  EXPECT_DOUBLE_EQ(b.exposure, 0.5);
  EXPECT_EQ(b.incoming_arcs, 4u);
  const ModuleMeasures& a = report_.modules[*model_.find_module("A")];
  EXPECT_TRUE(std::isnan(a.exposure));
  EXPECT_EQ(a.incoming_arcs, 0u);
}

TEST_F(AnalysisTest, SignalExposuresSortedDescending) {
  ASSERT_FALSE(report_.signal_exposures.empty());
  for (std::size_t i = 1; i < report_.signal_exposures.size(); ++i) {
    EXPECT_GE(report_.signal_exposures[i - 1].exposure,
              report_.signal_exposures[i].exposure);
  }
}

TEST_F(AnalysisTest, PathsSortedDescendingWithAllTreePaths) {
  EXPECT_EQ(report_.paths.size(), 7u);
  for (std::size_t i = 1; i < report_.paths.size(); ++i) {
    EXPECT_GE(report_.paths[i - 1].weight, report_.paths[i].weight);
  }
  EXPECT_NEAR(report_.paths.front().weight, 0.54, 1e-12);
}

TEST_F(AnalysisTest, TreesBuiltForEveryBoundarySignal) {
  EXPECT_EQ(report_.backtrack_trees.size(), model_.system_output_count());
  EXPECT_EQ(report_.trace_trees.size(), model_.system_input_count());
}

TEST_F(AnalysisTest, ModuleMeasuresTableHasOneRowPerModule) {
  const TextTable table = module_measures_table(report_);
  EXPECT_EQ(table.row_count(), model_.module_count());
  const std::string out = table.render();
  EXPECT_NE(out.find("Module"), std::string::npos);
  // NaN exposure renders as '-' (the paper's empty cells).
  EXPECT_NE(out.find("-"), std::string::npos);
}

TEST_F(AnalysisTest, SignalExposureTableSkipsSystemInputs) {
  const TextTable table = signal_exposure_table(report_);
  // 6 module outputs; 3 system inputs skipped.
  EXPECT_EQ(table.row_count(), 6u);
}

TEST_F(AnalysisTest, PathTableFiltersZeroWeights) {
  SystemPermeability sparse(model_);
  sparse.set(model_, "E", "e3", "oe1", 0.25);
  const AnalysisReport report = analyze(model_, sparse);
  const TextTable all = path_table(report, /*nonzero_only=*/false);
  const TextTable nonzero = path_table(report, /*nonzero_only=*/true);
  EXPECT_EQ(all.row_count(), 7u);
  EXPECT_EQ(nonzero.row_count(), 1u);
}

TEST_F(AnalysisTest, PlacementTableContainsAllSections) {
  const TextTable table = placement_table(report_.placement);
  EXPECT_GT(table.row_count(), 0u);
  const std::string out = table.render();
  EXPECT_NE(out.find("EDM"), std::string::npos);
  EXPECT_NE(out.find("ERM"), std::string::npos);
}

}  // namespace
}  // namespace propane::core
