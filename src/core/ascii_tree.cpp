#include "core/ascii_tree.hpp"

#include "common/strings.hpp"

namespace propane::core {

namespace {

struct Renderer {
  const SystemModel& model;
  const PropagationTree& tree;
  AsciiTreeOptions options;
  std::string out;

  std::string label(const TreeNode& n) const {
    switch (n.kind) {
      case TreeNode::Kind::kSignalRoot:
        return model.system_input_name(n.system_input) + "  [system input]";
      case TreeNode::Kind::kOutput: {
        std::string text = model.signal_name(SignalRef::from_output(n.output));
        if (n.is_system_output) text += "  [system output]";
        if (n.dead_end) text += "  [dead end]";
        return text;
      }
      case TreeNode::Kind::kInput: {
        const Source& src = model.input_source(n.input);
        std::string text = model.signal_name(src);
        text += " @" + model.input_name(n.input);
        if (n.is_system_input) text += "  [system input]";
        if (n.feedback_break) text += "  [feedback ==]";
        if (n.dead_end) text += "  [dead end]";
        return text;
      }
    }
    return "?";
  }

  std::string edge_annotation(const TreeNode& n) const {
    if (!n.has_arc) return {};
    std::string text = "  P";
    if (options.show_arcs) {
      const ModuleInfo& info = model.module(n.arc.module);
      text += "(" + info.name + ": " + info.input_names[n.arc.input] + "->" +
              info.output_names[n.arc.output] + ")";
    }
    text += "=";
    text += format_double(n.edge_weight, 3);
    return text;
  }

  void walk(TreeNodeIndex index, const std::string& prefix, bool last,
            bool root) {
    const TreeNode& n = tree.node(index);
    if (root) {
      out += label(n);
      out += "\n";
    } else {
      out += prefix;
      out += last ? "`-- " : "|-- ";
      out += label(n);
      out += edge_annotation(n);
      out += "\n";
    }
    const std::string child_prefix =
        root ? "" : prefix + (last ? "    " : "|   ");
    for (std::size_t c = 0; c < n.children.size(); ++c) {
      walk(n.children[c], child_prefix, c + 1 == n.children.size(), false);
    }
  }
};

}  // namespace

std::string render_ascii_tree(const SystemModel& model,
                              const PropagationTree& tree,
                              AsciiTreeOptions options) {
  Renderer renderer{model, tree, options, {}};
  renderer.walk(0, "", true, true);
  return renderer.out;
}

}  // namespace propane::core
