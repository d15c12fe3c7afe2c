#include "core/trace_tree.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace propane::core {

namespace {

class TraceBuilder {
 public:
  TraceBuilder(const SystemModel& model,
               const SystemPermeability& permeability)
      : model_(model), permeability_(permeability) {}

  std::vector<TreeNode> build(std::uint32_t system_input) {
    TreeNode root;
    root.kind = TreeNode::Kind::kSignalRoot;
    root.system_input = system_input;
    nodes_.push_back(std::move(root));
    // Step B2: determine the receiving module(s) of the signal. The paper's
    // systems have one consumer per signal; fan-out generalises naturally by
    // giving the root one input child per consumer.
    for (const InputRef& consumer :
         model_.system_input_consumers(system_input)) {
      TreeNode child;
      child.kind = TreeNode::Kind::kInput;
      child.input = consumer;
      child.parent = 0;
      child.edge_weight = 1.0;
      const auto child_index = add_child(0, std::move(child));
      expand_input(child_index, 1);
    }
    PROPANE_ENSURE(path_outputs_.empty());
    return std::move(nodes_);
  }

 private:
  /// Step B2/B3: children of an input node are the module's outputs, one
  /// per permeability value; outputs already on the path are omitted
  /// ("follow this feedback once and generate the sub-trees for the
  /// remaining outputs").
  void expand_input(TreeNodeIndex node_index, std::size_t depth) {
    const InputRef in = nodes_[node_index].input;
    const ModuleInfo& info = model_.module(in.module);
    bool expanded = false;
    for (PortIndex k = 0; k < info.output_count(); ++k) {
      const OutputRef out{in.module, k};
      if (std::find(path_outputs_.begin(), path_outputs_.end(), out) !=
          path_outputs_.end()) {
        continue;  // feedback already followed once
      }
      const double weight = permeability_.get(in.module, in.port, k);
      if (depth >= kMaxTreeDepth) break;

      TreeNode child;
      child.kind = TreeNode::Kind::kOutput;
      child.output = out;
      child.has_arc = true;
      child.arc = ArcId{in.module, in.port, k};
      child.edge_weight = weight;
      child.parent = node_index;
      const auto child_index = add_child(node_index, std::move(child));
      path_outputs_.push_back(out);
      expand_output(child_index, depth + 1);
      path_outputs_.pop_back();
      expanded = true;
    }
    if (!expanded) nodes_[node_index].dead_end = true;
  }

  /// Step B3: follow the output signal forwards to its consumers.
  void expand_output(TreeNodeIndex node_index, std::size_t depth) {
    const OutputRef out = nodes_[node_index].output;
    if (model_.output_is_system_output(out)) {
      nodes_[node_index].is_system_output = true;
    }
    for (const InputRef& consumer : model_.output_consumers(out)) {
      TreeNode child;
      child.kind = TreeNode::Kind::kInput;
      child.input = consumer;
      child.parent = node_index;
      child.edge_weight = 1.0;
      const auto child_index = add_child(node_index, std::move(child));
      expand_input(child_index, depth + 1);
    }
    if (nodes_[node_index].is_leaf() && !nodes_[node_index].is_system_output) {
      nodes_[node_index].dead_end = true;
    }
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

PropagationTree build_trace_tree(const SystemModel& model,
                                 const SystemPermeability& permeability,
                                 std::uint32_t system_input) {
  PROPANE_REQUIRE(system_input < model.system_input_count());
  TraceBuilder builder(model, permeability);
  return PropagationTree(builder.build(system_input));
}

std::vector<PropagationTree> build_all_trace_trees(
    const SystemModel& model, const SystemPermeability& permeability) {
  std::vector<PropagationTree> trees;
  trees.reserve(model.system_input_count());
  for (std::uint32_t i = 0; i < model.system_input_count(); ++i) {
    trees.push_back(build_trace_tree(model, permeability, i));
  }
  return trees;
}

}  // namespace propane::core
