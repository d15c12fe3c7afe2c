#include "core/backtrack_tree.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace propane::core {

namespace {

/// Recursive builder. `path_outputs` holds every output endpoint on the
/// path from the root down to (and including) the node being expanded.
class BacktrackBuilder {
 public:
  BacktrackBuilder(const SystemModel& model,
                   const SystemPermeability& permeability)
      : model_(model), permeability_(permeability) {}

  std::vector<TreeNode> build(OutputRef root_output) {
    TreeNode root;
    root.kind = TreeNode::Kind::kOutput;
    root.output = root_output;
    nodes_.push_back(std::move(root));
    path_outputs_.push_back(root_output);
    expand_output(0, 0);
    path_outputs_.pop_back();
    PROPANE_ENSURE(path_outputs_.empty());
    return std::move(nodes_);
  }

 private:
  /// Step A2: children of an output node are the module's inputs, one per
  /// permeability value P^M_{i,k}.
  void expand_output(TreeNodeIndex node_index, std::size_t depth) {
    const OutputRef out = nodes_[node_index].output;
    const ModuleInfo& info = model_.module(out.module);
    for (PortIndex i = 0; i < info.input_count(); ++i) {
      TreeNode child;
      child.kind = TreeNode::Kind::kInput;
      child.input = InputRef{out.module, i};
      child.has_arc = true;
      child.arc = ArcId{out.module, i, out.port};
      child.edge_weight = permeability_.get(out.module, i, out.port);
      child.parent = node_index;
      const auto child_index = add_child(node_index, std::move(child));
      expand_input(child_index, depth + 1);
    }
    // A module without inputs cannot receive errors: its output node is a
    // dead end, not a propagation-path terminal.
    if (info.input_count() == 0) nodes_[node_index].dead_end = true;
  }

  /// Step A3: follow the input's driving signal backwards.
  void expand_input(TreeNodeIndex node_index, std::size_t depth) {
    const InputRef in = nodes_[node_index].input;
    const Source& source = model_.input_source(in);
    if (source.kind == SourceKind::kSystemInput) {
      nodes_[node_index].is_system_input = true;  // leaf
      return;
    }
    const OutputRef driver = source.output;
    const bool on_path =
        std::find(path_outputs_.begin(), path_outputs_.end(), driver) !=
        path_outputs_.end();
    if (on_path || depth >= kMaxTreeDepth) {
      // Broken feedback: "a leaf in the tree having a special relation to
      // its parent node" (step A3). We do not follow the recursion.
      nodes_[node_index].feedback_break = true;
      return;
    }

    TreeNode child;
    child.kind = TreeNode::Kind::kOutput;
    child.output = driver;
    child.parent = node_index;
    child.edge_weight = 1.0;  // wire: errors permeate connections perfectly
    const auto child_index = add_child(node_index, std::move(child));
    path_outputs_.push_back(driver);
    expand_output(child_index, depth + 1);
    path_outputs_.pop_back();
  }

  TreeNodeIndex add_child(TreeNodeIndex parent, TreeNode child) {
    const auto index = static_cast<TreeNodeIndex>(nodes_.size());
    nodes_.push_back(std::move(child));
    nodes_[parent].children.push_back(index);
    return index;
  }

  const SystemModel& model_;
  const SystemPermeability& permeability_;
  std::vector<TreeNode> nodes_;
  std::vector<OutputRef> path_outputs_;
};

}  // namespace

PropagationTree build_backtrack_tree(const SystemModel& model,
                                     const SystemPermeability& permeability,
                                     std::uint32_t system_output) {
  PROPANE_REQUIRE(system_output < model.system_output_count());
  BacktrackBuilder builder(model, permeability);
  return PropagationTree(
      builder.build(model.system_output_source(system_output)));
}

std::vector<PropagationTree> build_all_backtrack_trees(
    const SystemModel& model, const SystemPermeability& permeability) {
  std::vector<PropagationTree> trees;
  trees.reserve(model.system_output_count());
  for (std::uint32_t o = 0; o < model.system_output_count(); ++o) {
    trees.push_back(build_backtrack_tree(model, permeability, o));
  }
  return trees;
}

}  // namespace propane::core
