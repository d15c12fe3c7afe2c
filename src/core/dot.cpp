#include "core/dot.hpp"

#include "common/strings.hpp"

namespace propane::core {

std::string dot_escape(const std::string& text) {
  std::string out;
  for (char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

std::string to_dot(const SystemModel& model) {
  std::string out = "digraph system {\n  rankdir=LR;\n";
  out += "  node [shape=box];\n";
  for (ModuleId m = 0; m < model.module_count(); ++m) {
    out += "  m" + std::to_string(m) + " [label=\"" +
           dot_escape(model.module_name(m)) + "\"];\n";
  }
  for (std::uint32_t i = 0; i < model.system_input_count(); ++i) {
    out += "  si" + std::to_string(i) + " [shape=plaintext,label=\"" +
           dot_escape(model.system_input_name(i)) + "\"];\n";
    for (const InputRef& consumer : model.system_input_consumers(i)) {
      out += "  si" + std::to_string(i) + " -> m" +
             std::to_string(consumer.module) + " [label=\"" +
             dot_escape(
                 model.module(consumer.module).input_names[consumer.port]) +
             "\"];\n";
    }
  }
  for (ModuleId m = 0; m < model.module_count(); ++m) {
    const ModuleInfo& info = model.module(m);
    for (PortIndex k = 0; k < info.output_count(); ++k) {
      const OutputRef out_ref{m, k};
      for (const InputRef& consumer : model.output_consumers(out_ref)) {
        out += "  m" + std::to_string(m) + " -> m" +
               std::to_string(consumer.module) + " [label=\"" +
               dot_escape(info.output_names[k]) + "\"];\n";
      }
    }
  }
  for (std::uint32_t o = 0; o < model.system_output_count(); ++o) {
    out += "  so" + std::to_string(o) + " [shape=plaintext,label=\"" +
           dot_escape(model.system_output_name(o)) + "\"];\n";
    const OutputRef src = model.system_output_source(o);
    out += "  m" + std::to_string(src.module) + " -> so" + std::to_string(o) +
           " [label=\"" +
           dot_escape(model.module(src.module).output_names[src.port]) +
           "\"];\n";
  }
  out += "}\n";
  return out;
}

std::string to_dot(const SystemModel& model, const PermeabilityGraph& graph) {
  std::string out = "digraph permeability {\n  rankdir=LR;\n";
  out += "  node [shape=circle];\n";
  for (ModuleId m = 0; m < model.module_count(); ++m) {
    out += "  m" + std::to_string(m) + " [label=\"" +
           dot_escape(model.module_name(m)) + "\"];\n";
  }
  std::size_t next_terminal = 0;
  for (const PermeabilityArc& arc : graph.arcs()) {
    const ModuleInfo& info = model.module(arc.id.module);
    const std::string label = dot_escape(
        info.input_names[arc.id.input] + "->" +
        info.output_names[arc.id.output] + " = " +
        format_double(arc.weight, 3));
    std::string tail;
    if (arc.internal()) {
      tail = "m";
      tail += std::to_string(arc.tail.output.module);
    } else {
      // Draw each externally-sourced arc from its own terminal node so the
      // graph shows where external errors enter.
      tail = "ext";
      tail += std::to_string(next_terminal++);
      out += "  " + tail + " [shape=plaintext,label=\"" +
             dot_escape(model.system_input_name(arc.tail.system_input)) +
             "\"];\n";
    }
    out += "  " + tail + " -> m" + std::to_string(arc.id.module) +
           " [label=\"" + label + "\"" +
           (arc.weight == 0.0 ? ",style=dashed" : "") + "];\n";
  }
  out += "}\n";
  return out;
}

std::string to_dot(const SystemModel& model, const PropagationTree& tree,
                   const std::string& title) {
  std::string out = "digraph tree {\n";
  out += "  label=\"" + dot_escape(title) + "\";\n";
  out += "  node [shape=ellipse];\n";
  for (TreeNodeIndex n = 0; n < tree.size(); ++n) {
    const TreeNode& node = tree.node(n);
    std::string label;
    switch (node.kind) {
      case TreeNode::Kind::kSignalRoot:
        label = model.system_input_name(node.system_input);
        break;
      case TreeNode::Kind::kOutput:
        label = model.signal_name(SignalRef::from_output(node.output));
        break;
      case TreeNode::Kind::kInput:
        label = model.signal_name(model.input_source(node.input)) + "\\n@" +
                model.input_name(node.input);
        break;
    }
    out += "  n" + std::to_string(n) + " [label=\"" + dot_escape(label) + "\"";
    if (node.is_system_input || node.is_system_output) {
      out += ",peripheries=2";
    }
    out += "];\n";
    if (node.parent != kNoNode) {
      out += "  n" + std::to_string(node.parent) + " -> n" +
             std::to_string(n);
      std::string attrs;
      if (node.has_arc) {
        attrs += "label=\"" + format_double(node.edge_weight, 3) + "\"";
      }
      if (node.feedback_break) {
        if (!attrs.empty()) attrs += ",";
        attrs += "style=bold,color=\"black:invis:black\"";
      }
      if (!attrs.empty()) out += " [" + attrs + "]";
      out += ";\n";
    }
  }
  out += "}\n";
  return out;
}

}  // namespace propane::core
