#include "core/backtrack_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/contracts.hpp"
#include "core/example_system.hpp"
#include "core/propagation_path.hpp"

namespace propane::core {
namespace {

class BacktrackTreeTest : public ::testing::Test {
 protected:
  SystemModel model_ = make_example_system();
  SystemPermeability perm_ = make_example_permeability(model_);
  PropagationTree tree_ = build_backtrack_tree(model_, perm_, 0);
};

TEST_F(BacktrackTreeTest, RootIsTheSystemOutput) {
  const TreeNode& root = tree_.root();
  EXPECT_EQ(root.kind, TreeNode::Kind::kOutput);
  EXPECT_EQ(root.output, model_.system_output_source(0));
  EXPECT_EQ(root.parent, kNoNode);
}

TEST_F(BacktrackTreeTest, RootHasOneChildPerInputOfE) {
  // Step A2: one child per permeability value of the root output.
  EXPECT_EQ(tree_.root().children.size(), 3u);  // e1, e2, e3
}

TEST_F(BacktrackTreeTest, SevenLeavesSevenPaths) {
  EXPECT_EQ(tree_.leaves().size(), 7u);
  EXPECT_EQ(backtrack_paths(tree_).size(), 7u);
}

TEST_F(BacktrackTreeTest, LeavesAreSystemInputsOrFeedbackBreaks) {
  std::size_t system_inputs = 0;
  std::size_t feedback = 0;
  for (TreeNodeIndex leaf : tree_.leaves()) {
    const TreeNode& n = tree_.node(leaf);
    EXPECT_EQ(n.kind, TreeNode::Kind::kInput);
    if (n.is_system_input) ++system_inputs;
    if (n.feedback_break) ++feedback;
    EXPECT_TRUE(n.is_system_input || n.feedback_break);
  }
  EXPECT_EQ(system_inputs, 5u);  // a1 x3, c1, e3
  EXPECT_EQ(feedback, 2u);       // b2 under each expansion of ob1
}

TEST_F(BacktrackTreeTest, LeftmostPathMatchesSection42Walk) {
  // O^E1 <- I^E1 <- O^B2 <- I^B1 <- O^A1 <- I^A1 with weight
  // P^E_{1,1} * P^B_{1,2} * P^A_{1,1} = 0.75 * 0.8 * 0.9 = 0.54.
  const auto paths = backtrack_paths(tree_);
  const PropagationPath& leftmost = paths.front();
  EXPECT_NEAR(leftmost.weight, 0.54, 1e-12);
  EXPECT_TRUE(leftmost.reaches_system_boundary);
  EXPECT_FALSE(leftmost.ends_in_feedback);
  EXPECT_EQ(format_path(model_, tree_, leftmost),
            "oe1 <- ob2 <- oa1 <- IA1");
}

TEST_F(BacktrackTreeTest, AllPathWeightsMatchHandComputation) {
  auto paths = backtrack_paths(tree_);
  sort_paths_by_weight(paths);
  ASSERT_EQ(paths.size(), 7u);
  EXPECT_NEAR(paths[0].weight, 0.54, 1e-12);   // e1 direct via A
  EXPECT_NEAR(paths[1].weight, 0.25, 1e-12);   // e3 system input
  EXPECT_NEAR(paths[2].weight, 0.21, 1e-12);   // e2 via C
  EXPECT_NEAR(paths[3].weight, 0.135, 1e-12);  // e1 via feedback once, A
  EXPECT_NEAR(paths[4].weight, 0.09, 1e-12);   // e1 feedback break
  EXPECT_NEAR(paths[5].weight, 0.045, 1e-12);  // e2 via B then A
  EXPECT_NEAR(paths[6].weight, 0.03, 1e-12);   // e2 feedback break
}

TEST_F(BacktrackTreeTest, FeedbackLeafHasDriverOnPath) {
  for (TreeNodeIndex leaf : tree_.leaves()) {
    const TreeNode& n = tree_.node(leaf);
    if (!n.feedback_break) continue;
    const Source& driver = model_.input_source(n.input);
    ASSERT_EQ(driver.kind, SourceKind::kModuleOutput);
    // Walk up: the driving output must appear among the ancestors.
    bool found = false;
    for (TreeNodeIndex at = n.parent; at != kNoNode;
         at = tree_.node(at).parent) {
      const TreeNode& anc = tree_.node(at);
      if (anc.kind == TreeNode::Kind::kOutput && anc.output == driver.output) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST_F(BacktrackTreeTest, EveryInputNodeCarriesItsArc) {
  for (const TreeNode& n : tree_.nodes()) {
    if (n.kind != TreeNode::Kind::kInput) continue;
    EXPECT_TRUE(n.has_arc);
    EXPECT_EQ(n.arc.module, n.input.module);
    EXPECT_EQ(n.arc.input, n.input.port);
    EXPECT_DOUBLE_EQ(n.edge_weight,
                     perm_.get(n.arc.module, n.arc.input, n.arc.output));
  }
}

TEST_F(BacktrackTreeTest, OutputNodesCarryWeightOneEdges) {
  for (const TreeNode& n : tree_.nodes()) {
    if (n.kind != TreeNode::Kind::kOutput) continue;
    EXPECT_FALSE(n.has_arc);
    EXPECT_DOUBLE_EQ(n.edge_weight, 1.0);
  }
}

TEST_F(BacktrackTreeTest, MaxDepthStopsExpansion) {
  // A chain of 100 one-input modules, M0 <- M1 <- ... <- M99 <- x: each
  // module adds two tree levels, so the guard cuts the chain just past
  // depth kMaxTreeDepth with a broken-feedback leaf instead of reaching x.
  constexpr int kModules = 100;
  const auto name = [](int m) {
    return std::string("M").append(std::to_string(m));
  };
  SystemModelBuilder builder;
  for (int m = 0; m < kModules; ++m) {
    builder.add_module(name(m), {"in"}, {"out"});
  }
  builder.add_system_input("x");
  builder.connect_system_input("x", name(kModules - 1), "in");
  for (int m = 0; m + 1 < kModules; ++m) {
    builder.connect(name(m + 1), "out", name(m), "in");
  }
  builder.add_system_output("y", "M0", "out");
  const SystemModel chain = std::move(builder).build();
  SystemPermeability perm(chain);
  for (int m = 0; m < kModules; ++m) {
    perm.set(chain, name(m), "in", "out", 0.5);
  }

  const PropagationTree tree = build_backtrack_tree(chain, perm, 0);
  std::size_t max_depth = 0;
  for (TreeNodeIndex n = 0; n < tree.size(); ++n) {
    max_depth = std::max(max_depth, tree.depth(n));
  }
  EXPECT_GE(max_depth, kMaxTreeDepth);
  EXPECT_LE(max_depth, kMaxTreeDepth + 1);
  EXPECT_LT(tree.size(), 2u * kModules);
  const auto paths = backtrack_paths(tree);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_FALSE(paths[0].reaches_system_boundary);
  EXPECT_TRUE(tree.node(paths[0].nodes.back()).feedback_break);
}

TEST_F(BacktrackTreeTest, InvalidSystemOutputViolatesContract) {
  EXPECT_THROW(build_backtrack_tree(model_, perm_, 7), ContractViolation);
}

TEST_F(BacktrackTreeTest, BuildAllMakesOneTreePerSystemOutput) {
  const auto trees = build_all_backtrack_trees(model_, perm_);
  EXPECT_EQ(trees.size(), model_.system_output_count());
}

TEST_F(BacktrackTreeTest, PathWeightToLeafMatchesPathExtraction) {
  const auto paths = backtrack_paths(tree_);
  for (const PropagationPath& path : paths) {
    EXPECT_DOUBLE_EQ(tree_.path_weight_to(path.nodes.back()), path.weight);
  }
}

TEST_F(BacktrackTreeTest, DepthIncreasesAlongPath) {
  const auto paths = backtrack_paths(tree_);
  for (const PropagationPath& path : paths) {
    for (std::size_t i = 0; i < path.nodes.size(); ++i) {
      EXPECT_EQ(tree_.depth(path.nodes[i]), i);
    }
  }
}

}  // namespace
}  // namespace propane::core
