#include "core/trace_tree.hpp"

#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "core/example_system.hpp"
#include "core/propagation_path.hpp"

namespace propane::core {
namespace {

class TraceTreeTest : public ::testing::Test {
 protected:
  SystemModel model_ = make_example_system();
  SystemPermeability perm_ = make_example_permeability(model_);
  // System input 0 is IA1 (feeds A.a1).
  PropagationTree tree_ = build_trace_tree(model_, perm_, 0);
};

TEST_F(TraceTreeTest, RootIsTheSystemInputSignal) {
  const TreeNode& root = tree_.root();
  EXPECT_EQ(root.kind, TreeNode::Kind::kSignalRoot);
  EXPECT_EQ(root.system_input, 0u);
}

TEST_F(TraceTreeTest, RootChildIsTheConsumingInput) {
  ASSERT_EQ(tree_.root().children.size(), 1u);
  const TreeNode& child = tree_.node(tree_.root().children[0]);
  EXPECT_EQ(child.kind, TreeNode::Kind::kInput);
  EXPECT_EQ(model_.input_name(child.input), "A.a1");
  EXPECT_DOUBLE_EQ(child.edge_weight, 1.0);
}

TEST_F(TraceTreeTest, ThreePathsReachTheSystemOutput) {
  auto paths = trace_paths(tree_);
  sort_paths_by_weight(paths);
  ASSERT_EQ(paths.size(), 3u);
  // IA1 -> oa1 -> ob2 -> oe1 : 0.9 * 0.8 * 0.75 = 0.54
  EXPECT_NEAR(paths[0].weight, 0.54, 1e-12);
  // IA1 -> oa1 -> ob1 -> (feedback b2) -> ob2 -> oe1 : 0.9*0.5*0.4*0.75
  EXPECT_NEAR(paths[1].weight, 0.135, 1e-12);
  // IA1 -> oa1 -> ob1 -> od1 -> oe1 : 0.9 * 0.5 * 0.2 * 0.5 = 0.045
  EXPECT_NEAR(paths[2].weight, 0.045, 1e-12);
}

TEST_F(TraceTreeTest, PathsEndAtSystemOutputs) {
  for (const PropagationPath& path : trace_paths(tree_)) {
    const TreeNode& terminal = tree_.node(path.nodes.back());
    EXPECT_EQ(terminal.kind, TreeNode::Kind::kOutput);
    EXPECT_TRUE(terminal.is_system_output);
    EXPECT_TRUE(path.reaches_system_boundary);
  }
}

TEST_F(TraceTreeTest, FeedbackFollowedOnceThenOmitted) {
  // After following B's feedback (ob1 -> b2), the expansion of b2 must not
  // contain ob1 again: "we do not have a child node from i that is i
  // itself" (Fig. 12).
  for (TreeNodeIndex n = 0; n < tree_.size(); ++n) {
    const TreeNode& node = tree_.node(static_cast<TreeNodeIndex>(n));
    if (node.kind != TreeNode::Kind::kOutput) continue;
    // Collect output endpoints on the path to the root; no duplicates.
    std::size_t occurrences = 0;
    for (TreeNodeIndex at = static_cast<TreeNodeIndex>(n); at != kNoNode;
         at = tree_.node(at).parent) {
      const TreeNode& anc = tree_.node(at);
      if (anc.kind == TreeNode::Kind::kOutput && anc.output == node.output) {
        ++occurrences;
      }
    }
    EXPECT_EQ(occurrences, 1u) << "output endpoint repeated on a path";
  }
}

TEST_F(TraceTreeTest, FormatPathUsesForwardArrows) {
  auto paths = trace_paths(tree_);
  sort_paths_by_weight(paths);
  EXPECT_EQ(format_path(model_, tree_, paths[0]),
            "IA1 -> oa1 -> ob2 -> oe1");
}

TEST_F(TraceTreeTest, PermeabilityEdgesCarryArcs) {
  for (const TreeNode& n : tree_.nodes()) {
    if (n.kind != TreeNode::Kind::kOutput) continue;
    ASSERT_TRUE(n.has_arc);
    EXPECT_EQ(n.arc.module, n.output.module);
    EXPECT_EQ(n.arc.output, n.output.port);
    EXPECT_DOUBLE_EQ(n.edge_weight,
                     perm_.get(n.arc.module, n.arc.input, n.arc.output));
  }
}

TEST_F(TraceTreeTest, TraceTreeForInputFeedingOutputDirectly) {
  // IE3 feeds E.e3 directly; the only path is IE3 -> oe1 with weight 0.25.
  const PropagationTree tree = build_trace_tree(model_, perm_, 2);
  const auto paths = trace_paths(tree);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_NEAR(paths[0].weight, 0.25, 1e-12);
  EXPECT_EQ(format_path(model_, tree, paths[0]), "IE3 -> oe1");
}

TEST_F(TraceTreeTest, TraceTreeForIC1GoesThroughD) {
  const PropagationTree tree = build_trace_tree(model_, perm_, 1);
  auto paths = trace_paths(tree);
  ASSERT_EQ(paths.size(), 1u);
  // IC1 -> oc1 -> od1 -> oe1 : 0.7 * 0.6 * 0.5 = 0.21
  EXPECT_NEAR(paths[0].weight, 0.21, 1e-12);
}

TEST_F(TraceTreeTest, DeadEndsAreMarkedNotReported) {
  // Input x reaches only A's unconsumed output "lost": the trace path dies
  // before any system output. B feeds the system output from input y.
  SystemModelBuilder builder;
  builder.add_module("A", {"a"}, {"lost"});
  builder.add_module("B", {"b"}, {"ob"});
  builder.add_system_input("x");
  builder.add_system_input("y");
  builder.connect_system_input("x", "A", "a");
  builder.connect_system_input("y", "B", "b");
  builder.add_system_output("out", "B", "ob");
  const SystemModel model = std::move(builder).build();
  SystemPermeability perm(model);
  perm.set(model, "A", "a", "lost", 0.9);
  perm.set(model, "B", "b", "ob", 0.9);
  const PropagationTree tree = build_trace_tree(model, perm, 0);
  EXPECT_TRUE(trace_paths(tree).empty());
  bool has_dead_end = false;
  for (const TreeNode& n : tree.nodes()) {
    has_dead_end = has_dead_end || n.dead_end;
  }
  EXPECT_TRUE(has_dead_end);
}

TEST_F(TraceTreeTest, InvalidSystemInputViolatesContract) {
  EXPECT_THROW(build_trace_tree(model_, perm_, 3), ContractViolation);
}

TEST_F(TraceTreeTest, BuildAllMakesOneTreePerSystemInput) {
  const auto trees = build_all_trace_trees(model_, perm_);
  EXPECT_EQ(trees.size(), model_.system_input_count());
}

TEST_F(TraceTreeTest, ZeroWeightEdgesKeptByDefault) {
  SystemPermeability sparse(model_);  // all zeros
  const PropagationTree tree = build_trace_tree(model_, sparse, 0);
  // Tree still expands structurally; all path weights are zero.
  for (const PropagationPath& path : trace_paths(tree)) {
    EXPECT_DOUBLE_EQ(path.weight, 0.0);
  }
  EXPECT_GT(tree.size(), 1u);
}

}  // namespace
}  // namespace propane::core
