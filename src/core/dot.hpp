// Graphviz DOT export of system models, permeability graphs (Figs. 3, 9)
// and propagation trees (Figs. 4, 5, 10-12).
#pragma once

#include <string>

#include "core/permeability_graph.hpp"
#include "core/propagation_tree.hpp"
#include "core/system_model.hpp"

namespace propane::core {

/// Escapes `text` for a double-quoted DOT string: a backslash before each
/// quote and backslash.
std::string dot_escape(const std::string& text);

/// Exports the raw wiring (Fig. 8-style software structure): one node per
/// module plus system input/output terminals; one edge per connection.
std::string to_dot(const SystemModel& model);

/// Exports the permeability graph (Fig. 9): one node per module, one edge
/// per permeability arc labelled "in->out = P". Zero-weight arcs are drawn
/// dashed when present.
std::string to_dot(const SystemModel& model, const PermeabilityGraph& graph);

/// Exports a backtrack or trace tree (Figs. 4/5/10/11/12). Feedback-break
/// leaves are connected to their logical target with a double (bold) edge,
/// matching the paper's double-line notation.
std::string to_dot(const SystemModel& model, const PropagationTree& tree,
                   const std::string& title);

}  // namespace propane::core
