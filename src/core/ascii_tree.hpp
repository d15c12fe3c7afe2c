// ASCII rendering of backtrack / trace trees (the textual analogue of the
// paper's Figs. 4, 5, 10, 11, 12).
#pragma once

#include <string>

#include "core/propagation_tree.hpp"
#include "core/system_model.hpp"

namespace propane::core {

struct AsciiTreeOptions {
  /// Print the (module, input, output) arc identity for permeability edges.
  bool show_arcs = false;
};

/// Renders the tree with box-drawing indentation, e.g.:
///
///   TOC2  [system output]
///   `-- OutValue  P(PRES_A: OutValue->TOC2)=0.860
///       |-- InValue  P(V_REG: InValue->OutValue)=0.920
///       ...
std::string render_ascii_tree(const SystemModel& model,
                              const PropagationTree& tree,
                              AsciiTreeOptions options = {});

}  // namespace propane::core
