#include <gtest/gtest.h>

#include "core/ascii_tree.hpp"
#include "core/backtrack_tree.hpp"
#include "core/dot.hpp"
#include "core/example_system.hpp"
#include "core/trace_tree.hpp"

namespace propane::core {
namespace {

class RenderTest : public ::testing::Test {
 protected:
  SystemModel model_ = make_example_system();
  SystemPermeability perm_ = make_example_permeability(model_);
};

TEST_F(RenderTest, AsciiBacktrackTreeShowsRootAndWeights) {
  const PropagationTree tree = build_backtrack_tree(model_, perm_, 0);
  const std::string out = render_ascii_tree(model_, tree);
  EXPECT_EQ(out.substr(0, 3), "oe1");
  EXPECT_NE(out.find("=0.750"), std::string::npos);
  EXPECT_NE(out.find("[feedback ==]"), std::string::npos);
  EXPECT_NE(out.find("[system input]"), std::string::npos);
  EXPECT_NE(out.find("`--"), std::string::npos);
  EXPECT_NE(out.find("|--"), std::string::npos);
}

TEST_F(RenderTest, AsciiTreeArcAnnotations) {
  const PropagationTree tree = build_backtrack_tree(model_, perm_, 0);
  const std::string out =
      render_ascii_tree(model_, tree, {.show_arcs = true});
  EXPECT_NE(out.find("P(E: e1->oe1)=0.750"), std::string::npos);
}

TEST_F(RenderTest, AsciiTraceTreeShowsSystemBoundaries) {
  const PropagationTree tree = build_trace_tree(model_, perm_, 0);
  const std::string out = render_ascii_tree(model_, tree);
  EXPECT_NE(out.find("IA1  [system input]"), std::string::npos);
  EXPECT_NE(out.find("[system output]"), std::string::npos);
}

TEST_F(RenderTest, DotModelListsModulesAndTerminals) {
  const std::string dot = to_dot(model_);
  EXPECT_EQ(dot.substr(0, 7), "digraph");
  for (ModuleId m = 0; m < model_.module_count(); ++m) {
    EXPECT_NE(dot.find(model_.module_name(m)), std::string::npos);
  }
  EXPECT_NE(dot.find("IA1"), std::string::npos);
  EXPECT_NE(dot.find("OE1"), std::string::npos);
  // Balanced braces.
  EXPECT_EQ(dot.back(), '\n');
  EXPECT_NE(dot.find("}\n"), std::string::npos);
}

TEST_F(RenderTest, DotPermeabilityGraphLabelsArcs) {
  const PermeabilityGraph graph(model_, perm_);
  const std::string dot = to_dot(model_, graph);
  EXPECT_NE(dot.find("b1->ob2 = 0.800"), std::string::npos);
  // External arcs come from plaintext terminal nodes.
  EXPECT_NE(dot.find("ext0"), std::string::npos);
}

TEST_F(RenderTest, DotPermeabilityGraphDashesZeroArcs) {
  SystemPermeability sparse(model_);
  sparse.set(model_, "A", "a1", "oa1", 0.9);
  const PermeabilityGraph graph(model_, sparse);
  const std::string dot = to_dot(model_, graph);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

TEST_F(RenderTest, DotTreeMarksFeedbackEdgesBold) {
  const PropagationTree tree = build_backtrack_tree(model_, perm_, 0);
  const std::string dot = to_dot(model_, tree, "backtrack OE1");
  EXPECT_NE(dot.find("backtrack OE1"), std::string::npos);
  EXPECT_NE(dot.find("style=bold"), std::string::npos);
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos);
}

TEST_F(RenderTest, DotEscapesQuotes) {
  SystemModelBuilder builder;
  builder.add_module("M\"q", {"i"}, {"o"});
  builder.add_system_input("in");
  builder.connect_system_input("in", "M\"q", "i");
  builder.add_system_output("out", "M\"q", "o");
  const SystemModel model = std::move(builder).build();
  const std::string dot = to_dot(model);
  EXPECT_NE(dot.find("M\\\"q"), std::string::npos);
}

}  // namespace
}  // namespace propane::core
