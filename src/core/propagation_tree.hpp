// Shared tree representation for Output Error Tracing (backtrack trees,
// steps A1-A4) and Input Error Tracing (trace trees, steps B1-B4) from
// Section 4.2 of the paper.
//
// Trees alternate between *output* nodes and *input* nodes, mirroring the
// paper's figures (e.g. the Fig. 4 path O^E_1 -> I^E_1 -> O^B_2 -> I^B_1 ->
// O^A_1 -> I^A_1 with weight P^E_{1,1} * P^B_{1,2} * P^A_{1,1}):
//
//   * Edges from an output node k of module M to an input node i of M carry
//     the permeability P^M_{i,k} (backtrack direction), and symmetrically
//     input->output edges carry P^M_{i,k} in trace trees.
//   * Edges that follow a signal connection (input -> driving output in
//     backtrack trees; output -> receiving input in trace trees) carry
//     weight 1: a wire permeates errors perfectly.
//
// Cycle policy: expansion never revisits an output endpoint already on the
// path from the root. In backtrack trees a broken feedback is kept as a leaf
// marked `feedback_break` (the "double line" of Figs. 4 and 10); in trace
// trees the offending child is simply omitted ("we do not have a child node
// from i that is i itself", Fig. 12). This reproduces the paper's self-loop
// handling and generalises it to arbitrary cycles.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/permeability_graph.hpp"
#include "core/system_model.hpp"

namespace propane::core {

using TreeNodeIndex = std::uint32_t;
inline constexpr TreeNodeIndex kNoNode =
    std::numeric_limits<TreeNodeIndex>::max();

/// One vertex of a backtrack or trace tree.
struct TreeNode {
  enum class Kind : std::uint8_t {
    kOutput,       ///< a module output signal
    kInput,        ///< a module input
    kSignalRoot,   ///< trace-tree root: a system input signal
  };

  Kind kind = Kind::kOutput;
  OutputRef output;               ///< valid when kind == kOutput
  InputRef input;                 ///< valid when kind == kInput
  std::uint32_t system_input = 0; ///< valid when kind == kSignalRoot

  /// Edge from the parent. Permeability edges carry the ArcId of the
  /// (module, input, output) pair; connection edges carry weight 1 and no
  /// arc. The root has no parent edge (weight 1, no arc).
  bool has_arc = false;
  ArcId arc;
  double edge_weight = 1.0;

  // Leaf annotations.
  bool is_system_input = false;   ///< backtrack leaf: externally driven input
  bool feedback_break = false;    ///< backtrack leaf: broken feedback loop
  bool is_system_output = false;  ///< trace: output feeding a system output
  bool dead_end = false;          ///< trace: no continuation and not a system output

  TreeNodeIndex parent = kNoNode;
  std::vector<TreeNodeIndex> children;

  bool is_leaf() const { return children.empty(); }
};

/// An immutable propagation tree; nodes_[0] is the root. Built by
/// build_backtrack_tree / build_trace_tree.
class PropagationTree {
 public:
  explicit PropagationTree(std::vector<TreeNode> nodes)
      : nodes_(std::move(nodes)) {}

  std::span<const TreeNode> nodes() const { return nodes_; }
  const TreeNode& node(TreeNodeIndex index) const;
  const TreeNode& root() const { return node(0); }
  std::size_t size() const { return nodes_.size(); }

  /// Indices of all leaves, in depth-first order.
  std::vector<TreeNodeIndex> leaves() const;

  /// Product of edge weights from the root to `index` (inclusive).
  double path_weight_to(TreeNodeIndex index) const;

  /// Depth of a node (root = 0).
  std::size_t depth(TreeNodeIndex index) const;

 private:
  std::vector<TreeNode> nodes_;
};

/// Safety net against pathological growth in dense models: the tree
/// builders stop expanding with a dead-end marker beyond this depth.
inline constexpr std::size_t kMaxTreeDepth = 64;

}  // namespace propane::core
